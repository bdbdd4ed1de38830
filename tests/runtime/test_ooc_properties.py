"""Property tests for the out-of-core buffer pool.

Seeded randomised interleavings of the pool protocol (put/get/pin/unpin/
update/free) over a zoo of block shapes, checked against a
shadow model.  The invariants:

* **Bitwise round trips** — whatever falls out of ``get`` matches the
  last payload stored for that entry byte-for-byte, through any number
  of spills, compressed or raw.
* **Pins are never evicted** — a pinned entry's payload stays resident.
* **The budget holds** — outside pinned-overcommit, ``used`` never
  exceeds the budget once an operation completes (restores must make
  room).
* **Metadata survives** — nnz / value type / sparsity of a block are
  identical after paging.

Each scenario runs with raw and with compressed spills: turning the
out-of-core machinery on must never change results.
"""

import numpy as np
import pytest

from repro.runtime.bufferpool import BufferPool
from repro.tensor.block import BasicTensorBlock


def _block_zoo(rng):
    """Seeded generators of representative blocks (built lazily)."""
    return [
        # dense random: incompressible, spills raw
        lambda: BasicTensorBlock.from_numpy(rng.standard_normal((24, 12))),
        # few distinct values: dictionary-compresses well
        lambda: BasicTensorBlock.from_numpy(
            rng.choice([0.0, 1.5, -2.0, 3.25], size=(32, 16))
        ),
        # constant block: single-entry dictionary
        lambda: BasicTensorBlock.from_numpy(np.full((16, 16), 7.0)),
        # ultra-sparse, compacted into CSR: must spill raw, stay sparse
        lambda: _ultra_sparse(rng),
        # NaN / signed-zero payloads: bitwise hazards for naive codecs
        lambda: BasicTensorBlock.from_numpy(
            rng.choice([0.0, -0.0, np.nan, 1.0], size=(32, 8))
        ),
        # small vector (1D): below eligibility, raw path
        lambda: BasicTensorBlock.from_numpy(rng.standard_normal(7)),
    ]


def _ultra_sparse(rng):
    dense = np.zeros((64, 32))
    rows = rng.integers(0, 64, size=5)
    cols = rng.integers(0, 32, size=5)
    dense[rows, cols] = rng.standard_normal(5)
    return BasicTensorBlock.from_numpy(dense).compact()


def _fingerprint(block):
    return (
        block.to_numpy().tobytes(),
        block.shape,
        block.nnz,
        block.value_type,
        block.is_sparse,
    )


OOC_MODES = [
    pytest.param(False, id="raw-sync"),
    pytest.param(True, id="compressed-sync"),
]


@pytest.mark.parametrize("compress", OOC_MODES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_holds_invariants(tmp_path, seed, compress):
    rng = np.random.default_rng(1000 + seed)
    zoo = _block_zoo(rng)
    make_block = lambda: zoo[rng.integers(len(zoo))]()  # noqa: E731

    first = make_block()
    budget = first.memory_size() * 3 + 1  # a few blocks worth: forces paging
    pool = BufferPool(budget=budget, spill_dir=str(tmp_path / "spill"),
                      compress_spills=compress)
    shadow = {}  # entry_id -> fingerprint of the last stored payload
    pinned = set()
    entry = pool.put(first, first.memory_size())
    shadow[entry] = _fingerprint(first)

    def an_id():
        ids = list(shadow)
        return ids[rng.integers(len(ids))]

    for _ in range(120):
        action = rng.integers(6)
        if action == 0 or not shadow:  # put
            block = make_block()
            eid = pool.put(block, block.memory_size())
            shadow[eid] = _fingerprint(block)
        elif action == 1:  # get + verify bitwise
            eid = an_id()
            assert _fingerprint(pool.get(eid)) == shadow[eid]
        elif action == 2:  # pin (bounded so the pool can still evict)
            eid = an_id()
            if len(pinned) < 2 and eid not in pinned:
                assert _fingerprint(pool.pin(eid)) == shadow[eid]
                pinned.add(eid)
        elif action == 3:  # unpin
            if pinned:
                eid = pinned.pop()
                pool.unpin(eid)
        elif action == 4:  # update
            eid = an_id()
            block = make_block()
            pool.update(eid, block, block.memory_size())
            shadow[eid] = _fingerprint(block)
        else:  # free
            eid = an_id()
            if eid not in pinned and len(shadow) > 1:
                pool.free(eid)
                del shadow[eid]

        # -- invariants after every single operation --
        for eid in pinned:
            assert pool._entries[eid].in_memory, "pinned entry was evicted"
        overcommit = sum(pool._entries[e].size for e in pinned)
        assert pool.used <= pool.budget + overcommit, (
            "pool exceeded its budget outside pinned overcommit"
        )

    # final sweep: every surviving entry restores bitwise
    for eid, expected in shadow.items():
        assert _fingerprint(pool.get(eid)) == expected
    pool.close()


@pytest.mark.parametrize("compress", OOC_MODES)
def test_budget_never_exceeded_mid_restore(tmp_path, compress):
    """Cycling gets over a working set ~4x the budget keeps ``used``
    bounded at every step — a restore always makes room first."""
    rng = np.random.default_rng(99)
    blocks = [
        BasicTensorBlock.from_numpy(rng.choice([0.0, 1.0, 2.0], size=(32, 8)))
        for _ in range(8)
    ]
    size = blocks[0].memory_size()
    pool = BufferPool(budget=size * 2, spill_dir=str(tmp_path / "spill"),
                      compress_spills=compress)
    ids = [pool.put(b, size) for b in blocks]
    for _ in range(3):
        for index, eid in enumerate(ids):
            restored = pool.get(eid)
            assert restored.to_numpy().tobytes() == blocks[index].to_numpy().tobytes()
            assert pool.used <= pool.budget
    pool.close()


@pytest.mark.parametrize("compress", OOC_MODES)
def test_pins_survive_heavy_paging(tmp_path, compress):
    rng = np.random.default_rng(5)
    pinned_block = BasicTensorBlock.from_numpy(rng.standard_normal((16, 16)))
    size = pinned_block.memory_size()
    pool = BufferPool(budget=size * 3, spill_dir=str(tmp_path / "spill"),
                      compress_spills=compress)
    keep = pool.put(pinned_block, size, pinned=True)
    for _ in range(12):  # churn far past the budget
        filler = BasicTensorBlock.from_numpy(np.full((16, 16), 3.0))
        pool.put(filler, filler.memory_size())
        assert pool._entries[keep].in_memory
    pool.unpin(keep)
    assert pool.get(keep).to_numpy().tobytes() == pinned_block.to_numpy().tobytes()
    pool.close()


@pytest.mark.parametrize("compress", [False, True])
def test_sparse_layout_preserved_through_paging(tmp_path, compress):
    """Spilling must not change a block's physical layout: layout drives
    kernel selection, and kernel selection drives bitwise results."""
    rng = np.random.default_rng(21)
    sparse = _ultra_sparse(rng)
    assert sparse.is_sparse
    size = sparse.memory_size()
    pool = BufferPool(budget=max(size, 256), spill_dir=str(tmp_path / "spill"),
                      compress_spills=compress)
    a = pool.put(sparse, size)
    filler = BasicTensorBlock.from_numpy(np.zeros((64, 32)))
    pool.put(filler, filler.memory_size())  # forces the sparse block out
    restored = pool.get(a)
    assert restored.is_sparse
    assert restored.nnz == sparse.nnz
    assert restored.to_numpy().tobytes() == sparse.to_numpy().tobytes()
    pool.close()
