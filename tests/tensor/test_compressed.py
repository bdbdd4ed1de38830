"""Tests for compressed linear algebra (co-coded column groups, CLA)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.tensor import BasicTensorBlock
from repro.tensor.compressed import CompressedBlock, CompressedStore


@pytest.fixture
def categorical_block():
    """Low-cardinality columns: the CLA sweet spot."""
    rng = np.random.default_rng(0)
    data = np.column_stack([
        rng.choice([0.0, 1.0], size=500),              # binary flag
        rng.choice([1.0, 2.0, 3.0, 4.0], size=500),    # category code
        rng.integers(0, 10, size=500).astype(float),   # small-int feature
    ])
    return BasicTensorBlock.from_numpy(data), data


@pytest.fixture
def mixed_block():
    rng = np.random.default_rng(1)
    data = np.column_stack([
        rng.choice([0.0, 5.0], size=400),
        rng.random(400),  # continuous: stays uncompressed
    ])
    return BasicTensorBlock.from_numpy(data), data


class TestCompression:
    def test_lossless_roundtrip(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        np.testing.assert_array_equal(compressed.decompress().to_numpy(), data)

    def test_ratio_above_one_for_categorical(self, categorical_block):
        block, __ = categorical_block
        compressed = CompressedBlock.compress(block)
        assert compressed.compression_ratio() > 4.0
        # every column is dictionary-encoded: no uncompressed group
        assert all(codes is not None for __, __, codes in compressed.groups)
        assert sorted(np.concatenate([cols for cols, __, __ in compressed.groups])) == [0, 1, 2]

    def test_continuous_column_stays_dense(self, mixed_block):
        block, data = mixed_block
        compressed = CompressedBlock.compress(block)
        coded, dense = compressed.groups
        assert coded[0].tolist() == [0] and coded[2] is not None
        assert dense[0].tolist() == [1] and dense[2] is None
        np.testing.assert_array_equal(dense[1], data[:, [1]])

    def test_code_width_grows_with_cardinality(self):
        data = np.arange(2000, dtype=np.float64).reshape(-1, 1) % 260
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        (cols, dictionary, codes), = compressed.groups
        assert dictionary.shape == (260, 1)
        assert codes.dtype == np.uint16  # 260 > 256 distinct

    def test_lowcard_columns_are_co_coded(self):
        # 16 levels per column: pairs share one 256-tuple uint8 group, which
        # beats two 16-value groups; a third column's ~3500 tuples would not
        rng = np.random.default_rng(6)
        levels = rng.standard_normal((16, 128))
        data = levels[rng.integers(0, 16, size=(8000, 128)), np.arange(128)]
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        assert len(compressed.groups) < 128
        assert all(len(cols) == 2 and codes.dtype == np.uint8
                   for cols, __, codes in compressed.groups)
        assert compressed.compression_ratio() >= 8.0
        np.testing.assert_array_equal(compressed.to_dense_array(), data)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            CompressedBlock.compress(
                BasicTensorBlock.from_numpy(np.zeros((2, 2, 2)))
            )


class TestCompressedOps:
    def test_matvec(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        v = np.asarray([2.0, -1.0, 0.5])
        np.testing.assert_allclose(compressed.matvec(v), (data @ v).reshape(-1, 1))

    def test_matvec_zero_weight_keeps_nan(self):
        # 0 * NaN and 0 * Inf are NaN: a zero weight must not skip the column
        data = np.tile([[np.nan, 1.0], [np.inf, 2.0], [0.0, 1.0]], (20, 1))
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        v = np.asarray([0.0, 1.0])
        with np.errstate(invalid="ignore"):
            want = (data @ v).reshape(-1, 1)
            got = compressed.matvec(v)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, equal_nan=True)

    def test_vecmat(self, mixed_block):
        block, data = mixed_block
        compressed = CompressedBlock.compress(block)
        v = np.random.default_rng(2).random(400)
        np.testing.assert_allclose(
            compressed.vecmat(v), (data.T @ v).reshape(-1, 1), rtol=1e-12
        )

    def test_col_sums(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        np.testing.assert_allclose(
            compressed.col_sums(), data.sum(axis=0, keepdims=True)
        )

    def test_sum(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        assert compressed.sum() == pytest.approx(data.sum())

    def test_scalar_op_on_dictionary(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        scaled = compressed.scalar_op("*", 3.0)
        np.testing.assert_array_equal(
            scaled.decompress().to_numpy(), data * 3.0
        )
        # compression is preserved: codes are shared, dictionaries replaced
        assert len(scaled.groups) == len(compressed.groups)
        for (__, old, old_codes), (__, new, new_codes) in zip(compressed.groups, scaled.groups):
            assert new_codes is old_codes
            np.testing.assert_array_equal(new, old * 3.0)

    def test_dimension_checks(self, categorical_block):
        block, __ = categorical_block
        compressed = CompressedBlock.compress(block)
        with pytest.raises(ValueError, match="expects 3 RHS rows, got 7"):
            compressed.matvec(np.ones(7))
        with pytest.raises(ValueError, match="expects 500 RHS rows, got 7"):
            compressed.vecmat(np.ones(7))

    def test_unsupported_scalar_op(self, categorical_block):
        block, __ = categorical_block
        compressed = CompressedBlock.compress(block)
        with pytest.raises(ValueError, match="unsupported"):
            compressed.scalar_op("%%", 2.0)


class TestEndToEndUseCase:
    def test_compressed_ridge_gradient(self):
        """The CLA training loop: t(X)(Xw - y) computed fully compressed."""
        rng = np.random.default_rng(3)
        data = np.column_stack([
            rng.choice([0.0, 1.0], size=800) for __ in range(6)
        ])
        y = data @ rng.random(6) + 0.1
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        w = np.zeros(6)
        for __ in range(50):
            predictions = compressed.matvec(w).ravel()
            gradient = compressed.vecmat(predictions - y).ravel() / 800
            w = w - 1.0 * gradient
        np.testing.assert_allclose(
            compressed.matvec(w).ravel(), y, atol=0.2
        )

    def test_all_scalar_ops_roundtrip(self, categorical_block):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        for op, expected in [("+", data + 2.0), ("-", data - 2.0),
                             ("*", data * 2.0), ("/", data / 2.0),
                             ("^", data ** 2.0)]:
            np.testing.assert_allclose(
                compressed.scalar_op(op, 2.0).decompress().to_numpy(), expected
            )

    def test_constant_column_compresses_to_one_entry(self):
        data = np.column_stack([np.full(300, 7.0), np.zeros(300)])
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
        # two constant columns: one group, one dictionary row, no codes
        (cols, dictionary, codes), = compressed.groups
        assert sorted(cols.tolist()) == [0, 1]
        assert dictionary.shape == (1, 2) and codes is None
        np.testing.assert_array_equal(compressed.decompress().to_numpy(), data)
        np.testing.assert_allclose(compressed.col_sums(), [[2100.0, 0.0]])

    def test_memory_savings_realistic(self):
        # one-hot encoded features: the paper's data-prep output shape
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 4, size=2000)
        onehot = np.zeros((2000, 4))
        onehot[np.arange(2000), codes] = 1.0
        compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(onehot))
        assert compressed.compression_ratio() > 6.0


class TestAgreementWithCodegenEngine:
    """Compressed-space operations must agree with the DML engine evaluating
    the same expression — with codegen's fused cell templates on AND off —
    on the decompressed data (the differential check the fuzzer runs for
    ordinary matrices, specialised here to the CLA path)."""

    def _engine(self, source, inputs, output, codegen):
        config = ReproConfig(enable_codegen=codegen)
        result = MLContext(config).execute(source, inputs=inputs,
                                           outputs=[output])
        return result.matrix(output)

    @pytest.mark.parametrize("codegen", [True, False], ids=["fused", "plain"])
    def test_scalar_chain_matches_engine(self, categorical_block, codegen):
        block, data = categorical_block
        chained = (CompressedBlock.compress(block)
                   .scalar_op("*", 2.0).scalar_op("+", 1.0).scalar_op("^", 2.0))
        expected = self._engine("Y = (X * 2 + 1) ^ 2", {"X": data}, "Y", codegen)
        np.testing.assert_allclose(chained.decompress().to_numpy(), expected)

    @pytest.mark.parametrize("codegen", [True, False], ids=["fused", "plain"])
    def test_matvec_matches_engine(self, categorical_block, codegen):
        block, data = categorical_block
        compressed = CompressedBlock.compress(block)
        v = np.asarray([[2.0], [-1.0], [0.5]])
        expected = self._engine("p = X %*% v", {"X": data, "v": v}, "p", codegen)
        np.testing.assert_allclose(compressed.matvec(v), expected, rtol=1e-12)

    @pytest.mark.parametrize("codegen", [True, False], ids=["fused", "plain"])
    def test_vecmat_matches_engine(self, mixed_block, codegen):
        block, data = mixed_block
        compressed = CompressedBlock.compress(block)
        v = np.random.default_rng(5).random((400, 1))
        expected = self._engine("g = t(X) %*% v", {"X": data, "v": v}, "g",
                                codegen)
        np.testing.assert_allclose(compressed.vecmat(v), expected, rtol=1e-10)

    @pytest.mark.parametrize("codegen", [True, False], ids=["fused", "plain"])
    def test_colsums_of_scaled_matches_engine(self, categorical_block, codegen):
        block, data = categorical_block
        scaled = CompressedBlock.compress(block).scalar_op("*", 3.0)
        expected = self._engine("c = colSums(X * 3)", {"X": data}, "c", codegen)
        np.testing.assert_allclose(scaled.col_sums(), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# property battery: every compressed-space kernel against dense NumPy
# ---------------------------------------------------------------------------

#: A NaN with a non-default payload: only a bit-pattern dictionary keeps it.
_PAYLOAD_NAN = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
_SPECIALS = np.array([np.nan, _PAYLOAD_NAN, -0.0, 0.0, np.inf, -np.inf])


@st.composite
def _blocks(draw):
    """Random blocks mixing constant, low- and high-cardinality columns,
    optionally seeded with NaN / -0.0 / +-Inf cells."""
    n = draw(st.integers(1, 700))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.booleans())
    columns = []
    for __ in range(m):
        levels = draw(st.sampled_from([1, 2, 16, 257, 300]) | st.integers(1, 300))
        pool = np.round(rng.uniform(-100.0, 100.0, size=levels), 2)
        if specials:
            hits = rng.random(levels) < 0.2
            pool[hits] = rng.choice(_SPECIALS, size=int(hits.sum()))
        columns.append(pool[rng.integers(0, levels, size=n)])
    return np.column_stack(columns), rng


def _assert_matches(got, want, scale=1.0):
    """allclose, with NaN (and infinity) positions equal."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale, equal_nan=True)


def _weights(rng, shape):
    weights = rng.uniform(-1.0, 1.0, size=shape)
    weights[rng.random(shape) < 0.2] = 0.0  # 0 * NaN and 0 * Inf are NaN
    return weights


def _scale(data):
    return 1.0 + np.abs(np.nan_to_num(data, nan=0.0, posinf=0.0, neginf=0.0)).sum()


@given(_blocks())
@settings(max_examples=60, deadline=None)
def test_kernels_match_dense_numpy(case):
    data, rng = case
    n, m = data.shape
    compressed = CompressedBlock.compress(BasicTensorBlock.from_numpy(data))
    assert compressed.to_dense_array().tobytes() == data.tobytes()
    clone = pickle.loads(pickle.dumps(compressed, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone.to_dense_array().tobytes() == data.tobytes()
    assert clone.nnz == np.count_nonzero(data)
    scale = _scale(data)
    with np.errstate(all="ignore"):
        for block in (compressed, clone):
            v, B = _weights(rng, m), _weights(rng, (m, 4))
            u, C = _weights(rng, n), _weights(rng, (n, 3))
            _assert_matches(block.matvec(v), (data @ v).reshape(-1, 1), scale)
            _assert_matches(block.matmult_dense(B), data @ B, scale)
            _assert_matches(block.vecmat(u), (data.T @ u).reshape(-1, 1), scale)
            _assert_matches(block.t_matmult_dense(C), data.T @ C, scale)
            _assert_matches(block.col_sums(), data.sum(axis=0, keepdims=True), scale)
            _assert_matches(block.sum(), data.sum(), scale)
            _assert_matches(block.mean(), data.mean(), scale)
            _assert_matches(block.min(), data.min())
            _assert_matches(block.max(), data.max())
            recount = CompressedBlock(block.groups, n, m)
            assert recount.nnz == np.count_nonzero(data)
            for op, func in [("+", np.add), ("-", np.subtract), ("*", np.multiply),
                             ("/", np.divide), ("^", np.power)]:
                for left in (False, True):
                    want = func(1.5, data) if left else func(data, 1.5)
                    got = block.scalar_op(op, 1.5, scalar_left=left).to_dense_array()
                    _assert_matches(got, want)
            store = CompressedStore(block)
            for row, col in zip(rng.integers(0, n, 10), rng.integers(0, m, 10)):
                _assert_matches(store.get((row, col)), data[row, col])
