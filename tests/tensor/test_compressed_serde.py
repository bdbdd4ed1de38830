"""Serialisation of compressed blocks (the buffer pool's spill format).

The spill path pickles ``CompressedBlock`` instances as a few flat arrays
(column indexes, dictionaries, uint8 and uint16 codes, per-group sizes);
these tests pin down that the round trip is bitwise for every kind of
column group — co-coded dictionary groups, constant groups and the
uncompressed group (dictionaries are uint64 bit patterns, so -0.0 and NaN
payloads survive) — and that the metadata the runtime relies on (nnz,
value type) is carried through instead of being recounted from the
decompressed array.
"""

import pickle

import numpy as np
import pytest

from repro.tensor.block import BasicTensorBlock
from repro.tensor.compressed import CompressedBlock, CompressedStore
from repro.tensor.dense import DenseStore
from repro.types import ValueType


def block_of(array):
    return BasicTensorBlock.from_numpy(np.asarray(array, dtype=np.float64))


class TestPickleRoundTrip:
    @pytest.mark.parametrize(
        "array",
        [
            np.tile(np.arange(4.0), (32, 8)),                 # co-coded groups
            np.zeros((16, 16)),                               # constant block
            np.tile(np.array([0.0, -0.0, np.nan, 2.5]), (16, 4)),  # edge values
            np.eye(12) * 7.0,                                 # mostly zero
            np.column_stack([                                 # every group kind
                np.full(600, 3.0),                            # constant column
                np.arange(600.0) % 300,                       # uint16 codes
                np.arange(600.0) % 5,                         # uint8 codes
                np.random.default_rng(0).random(600),         # uncompressed
            ]),
        ],
    )
    def test_bitwise_roundtrip(self, array):
        compressed = CompressedBlock.compress(block_of(array))
        clone = pickle.loads(pickle.dumps(compressed))
        assert clone.to_dense_array().tobytes() == np.asarray(
            array, dtype=np.float64
        ).tobytes()

    def test_metadata_survives_pickle(self):
        array = np.tile(np.array([0.0, 1.0, 0.0, 3.0]), (32, 8))
        block = block_of(array)
        compressed = CompressedBlock.compress(block)
        clone = pickle.loads(pickle.dumps(compressed))
        assert clone.shape == block.shape
        assert clone.value_type is ValueType.FP64
        assert clone.nnz == block.nnz
        assert clone.num_rows == array.shape[0]

    def test_nnz_recorded_at_compress_time(self):
        array = np.tile(np.array([1.0, 0.0]), (8, 16))
        compressed = CompressedBlock.compress(block_of(array))
        # the count is carried in the compressed form, not recomputed
        assert compressed.nnz == int(np.count_nonzero(array))


class TestCompressedStoreSerde:
    def test_store_pickles_without_its_event_hook(self):
        events = []
        compressed = CompressedBlock.compress(block_of(np.tile(np.arange(4.0), (32, 8))))
        store = CompressedStore(compressed, on_event=events.append)
        clone = pickle.loads(pickle.dumps(store))
        # the hook (often a bound buffer-pool method) must not travel
        assert clone.on_event is None
        assert np.array_equal(clone.to_numpy(), store.block.to_dense_array())

    def test_restored_store_seeds_dense_nnz_cache(self, monkeypatch):
        array = np.tile(np.array([0.0, 5.0, 0.0, 0.0]), (16, 8))
        block = block_of(array)
        expected_nnz = block.nnz
        compressed = CompressedBlock.compress(block)
        store = pickle.loads(pickle.dumps(CompressedStore(compressed)))
        restored = BasicTensorBlock(store)

        def poisoned(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("restored block recounted nnz from scratch")

        monkeypatch.setattr(np, "count_nonzero", poisoned)
        assert restored.nnz == expected_nnz  # compressed-space count
        inflated = store.inflate()
        assert isinstance(inflated, DenseStore)
        assert inflated.nnz == expected_nnz  # seeded, not recounted

    def test_block_inflate_preserves_payload_bits(self):
        raw = np.tile(np.array([np.nan, -0.0, 9.0, 9.0]), (16, 8))
        compressed = CompressedBlock.compress(block_of(raw))
        restored = BasicTensorBlock(CompressedStore(compressed))
        assert restored.is_compressed
        restored.inflate()
        assert not restored.is_compressed
        assert restored.to_numpy().tobytes() == raw.tobytes()

    def test_value_type_metadata_preserved(self):
        compressed = CompressedBlock.compress(block_of(np.ones((16, 8))))
        store = pickle.loads(pickle.dumps(CompressedStore(compressed)))
        assert store.value_type is ValueType.FP64
        assert store.shape == (16, 8)
        assert store.ndim == 2
