"""Unit tests for BasicTensorBlock: construction, layout, access, conversion."""

import numpy as np
import pytest

from repro.tensor import BasicTensorBlock
from repro.tensor.block import MIN_SPARSE_SIZE, SPARSITY_TURN_POINT
from repro.types import ValueType


class TestConstruction:
    def test_from_numpy_preserves_values(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        block = BasicTensorBlock.from_numpy(data)
        assert block.shape == (3, 4)
        np.testing.assert_array_equal(block.to_numpy(), data)

    def test_from_numpy_infers_value_type(self):
        block = BasicTensorBlock.from_numpy(np.ones((2, 2), dtype=np.int32))
        assert block.value_type == ValueType.INT32

    def test_from_numpy_scalar_promotes_to_1x1(self):
        block = BasicTensorBlock.from_numpy(np.float64(3.5))
        assert block.shape == (1, 1)
        assert block.as_scalar() == 3.5

    def test_zeros_large_numeric_is_sparse(self):
        block = BasicTensorBlock.zeros((64, 64))
        assert block.is_sparse
        assert block.nnz == 0

    def test_zeros_small_is_dense(self):
        block = BasicTensorBlock.zeros((2, 2))
        assert not block.is_sparse

    def test_zeros_string_is_dense(self):
        block = BasicTensorBlock.zeros((64, 64), ValueType.STRING)
        assert not block.is_sparse

    def test_full(self):
        block = BasicTensorBlock.full((3, 3), 7.0)
        assert np.all(block.to_numpy() == 7.0)

    def test_full_zero_routes_to_sparse_for_large(self):
        block = BasicTensorBlock.full((64, 64), 0.0)
        assert block.is_sparse

    def test_rand_deterministic_under_seed(self):
        a = BasicTensorBlock.rand((10, 10), seed=42)
        b = BasicTensorBlock.rand((10, 10), seed=42)
        np.testing.assert_array_equal(a.to_numpy(), b.to_numpy())

    def test_rand_bounds(self):
        block = BasicTensorBlock.rand((50, 50), min_value=2.0, max_value=3.0, seed=1)
        data = block.to_numpy()
        assert data.min() >= 2.0 and data.max() <= 3.0

    def test_rand_sparsity_respected(self):
        block = BasicTensorBlock.rand((100, 100), sparsity=0.1, seed=1)
        assert 0.05 < block.sparsity < 0.15
        assert block.is_sparse

    def test_rand_normal_pdf(self):
        block = BasicTensorBlock.rand((200, 200), pdf="normal", seed=1)
        assert abs(float(block.to_numpy().mean())) < 0.05

    def test_rand_unknown_pdf_rejected(self):
        with pytest.raises(ValueError, match="pdf"):
            BasicTensorBlock.rand((2, 2), pdf="cauchy")

    def test_scalar_block(self):
        block = BasicTensorBlock.scalar(4.25)
        assert block.shape == (1, 1)
        assert block.as_scalar() == 4.25

    def test_nd_tensor(self):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        block = BasicTensorBlock.from_numpy(data)
        assert block.ndim == 3
        np.testing.assert_array_equal(block.to_numpy(), data)


class TestLayout:
    def test_compact_densifies_mostly_full_sparse(self):
        dense_data = np.ones((32, 32))
        block = BasicTensorBlock.from_numpy(dense_data).to_sparse()
        assert block.is_sparse
        block.compact()
        assert not block.is_sparse

    def test_compact_sparsifies_mostly_empty_dense(self):
        data = np.zeros((64, 64))
        data[0, 0] = 1.0
        block = BasicTensorBlock(
            __import__("repro.tensor.dense", fromlist=["DenseStore"]).DenseStore.from_numpy(data)
        )
        assert not block.is_sparse
        block.compact()
        assert block.is_sparse
        assert block.get((0, 0)) == 1.0

    def test_roundtrip_dense_sparse_preserves_values(self):
        rng = np.random.default_rng(0)
        data = rng.random((20, 20)) * (rng.random((20, 20)) < 0.2)
        block = BasicTensorBlock.from_numpy(data)
        np.testing.assert_allclose(block.to_sparse().to_numpy(), data)
        np.testing.assert_allclose(block.to_dense().to_numpy(), data)

    def test_negative_zero_survives_layout_decision(self):
        # a 1/3-dense block would flip to sparse, and CSR cannot hold -0.0:
        # the layout change must stay invisible, bit for bit
        from repro.tensor.compressed import CompressedBlock

        data = np.column_stack([np.full(100, -0.0), np.full(100, 91.84),
                                np.full(100, -0.0)])
        block = BasicTensorBlock.from_numpy(data)
        assert block.to_numpy().tobytes() == data.tobytes()
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        assert compressed.to_dense_array().tobytes() == data.tobytes()

    def test_sparsity_turn_point_constant_sane(self):
        assert 0.0 < SPARSITY_TURN_POINT < 1.0
        assert MIN_SPARSE_SIZE > 0


class TestAccess:
    def test_get_set_dense(self):
        block = BasicTensorBlock.from_numpy(np.zeros((3, 3)))
        block.set((1, 2), 5.0)
        assert block.get((1, 2)) == 5.0

    def test_get_set_sparse(self):
        block = BasicTensorBlock.zeros((64, 64))
        block.set((10, 20), 3.0)
        assert block.get((10, 20)) == 3.0
        assert block.get((0, 0)) == 0.0
        assert block.nnz == 1

    def test_nnz_and_sparsity(self):
        data = np.zeros((10, 10))
        data[:5, 0] = 1.0
        block = BasicTensorBlock.from_numpy(data)
        assert block.nnz == 5
        assert block.sparsity == pytest.approx(0.05)

    def test_as_scalar_requires_single_cell(self):
        with pytest.raises(ValueError, match="as.scalar"):
            BasicTensorBlock.from_numpy(np.ones((2, 2))).as_scalar()


class TestConversion:
    def test_astype(self):
        block = BasicTensorBlock.from_numpy(np.asarray([[1.9, 2.1]]))
        converted = block.astype(ValueType.INT64)
        assert converted.value_type == ValueType.INT64
        np.testing.assert_array_equal(converted.to_numpy(), [[1, 2]])

    def test_astype_same_type_is_identity(self):
        block = BasicTensorBlock.from_numpy(np.ones((2, 2)))
        assert block.astype(ValueType.FP64) is block

    def test_reshape(self):
        block = BasicTensorBlock.from_numpy(np.arange(6, dtype=np.float64).reshape(2, 3))
        reshaped = block.reshape((3, 2))
        assert reshaped.shape == (3, 2)
        np.testing.assert_array_equal(reshaped.to_numpy().ravel(), np.arange(6))

    def test_reshape_size_mismatch_rejected(self):
        block = BasicTensorBlock.from_numpy(np.ones((2, 3)))
        with pytest.raises(ValueError, match="reshape"):
            block.reshape((4, 2))

    def test_to_scipy_of_dense(self):
        data = np.eye(4)
        csr = BasicTensorBlock.from_numpy(data).to_scipy()
        np.testing.assert_array_equal(np.asarray(csr.todense()), data)

    def test_copy_is_independent(self):
        block = BasicTensorBlock.from_numpy(np.zeros((2, 2)))
        clone = block.copy()
        clone.set((0, 0), 9.0)
        assert block.get((0, 0)) == 0.0

    def test_memory_size_positive_and_ordering(self):
        dense = BasicTensorBlock.from_numpy(np.ones((100, 100)))
        sparse = BasicTensorBlock.rand((100, 100), sparsity=0.01, seed=1)
        assert dense.memory_size() == 100 * 100 * 8
        assert sparse.memory_size() < dense.memory_size()

    def test_equals(self):
        a = BasicTensorBlock.from_numpy(np.ones((3, 3)))
        b = BasicTensorBlock.from_numpy(np.ones((3, 3))).to_sparse()
        assert a.equals(b)
        assert not a.equals(BasicTensorBlock.from_numpy(np.zeros((3, 3))))
        assert not a.equals(BasicTensorBlock.from_numpy(np.ones((3, 4))))
