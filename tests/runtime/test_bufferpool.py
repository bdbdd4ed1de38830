"""Unit tests for the multi-level buffer pool."""

import os

import numpy as np
import pytest

from repro.errors import BufferPoolError
from repro.runtime.bufferpool import BufferPool
from repro.tensor.block import BasicTensorBlock


@pytest.fixture
def pool(tmp_path):
    return BufferPool(budget=1000, spill_dir=str(tmp_path))


def compressible_block(rows=64, cols=16, distinct=4):
    """A dense FP64 block with few distinct values (CLA-friendly)."""
    column = np.arange(distinct, dtype=np.float64)
    return BasicTensorBlock.from_numpy(np.tile(column, (rows, cols // distinct or 1)))


class TestBasicProtocol:
    def test_put_get_roundtrip(self, pool):
        entry = pool.put({"x": 1}, 100)
        assert pool.get(entry) == {"x": 1}

    def test_unknown_entry_rejected(self, pool):
        with pytest.raises(BufferPoolError, match="unknown"):
            pool.get(999)

    def test_free_is_idempotent(self, pool):
        entry = pool.put("payload", 10)
        pool.free(entry)
        pool.free(entry)  # no error
        with pytest.raises(BufferPoolError):
            pool.get(entry)

    def test_used_tracks_sizes(self, pool):
        pool.put("a", 300)
        pool.put("b", 200)
        assert pool.used == 500

    def test_update_replaces_payload_and_size(self, pool):
        entry = pool.put("old", 100)
        pool.update(entry, "new", 400)
        assert pool.get(entry) == "new"
        assert pool.used == 400


class TestEviction:
    def test_eviction_over_budget(self, pool):
        first = pool.put(np.ones(10), 600)
        pool.put(np.zeros(10), 600)
        assert pool.stats["evictions"] == 1
        assert pool.used <= 1000
        # evicted entry transparently restores
        np.testing.assert_array_equal(pool.get(first), np.ones(10))
        assert pool.stats["restores"] == 1

    def test_lru_order(self, pool):
        a = pool.put("a", 400)
        b = pool.put("b", 400)
        pool.get(a)  # touch a so b is least recently used
        pool.put("c", 400)
        entry_b = pool._entries[b]
        assert not entry_b.in_memory
        assert pool._entries[a].in_memory

    def test_restore_on_get_stays_within_budget(self, pool):
        """Regression: get() of an evicted entry restored it without an
        eviction pass, so repeated gets pushed the pool over budget."""
        entries = [pool.put(np.full(8, i), 600) for i in range(3)]
        assert pool.used <= 1000
        for __ in range(4):  # each round restores an evicted entry
            for index, entry in enumerate(entries):
                np.testing.assert_array_equal(pool.get(entry), np.full(8, index))
                assert pool.used <= 1000, "get() left the pool over budget"

    def test_restore_under_pin_may_exceed_budget(self, pool):
        # pin() must still restore and hold the payload even when the pool
        # cannot make room (everything else pinned): correctness over budget
        a = pool.put("a", 600)
        b = pool.put("b", 600)  # evicts a
        pool.pin(b)
        assert pool.pin(a) == "a"
        pool.unpin(a)
        pool.unpin(b)

    def test_pinned_entries_not_evicted(self, pool):
        a = pool.put("a", 600)
        pool.pin(a)
        pool.put("b", 600)  # would evict a, but it is pinned
        assert pool._entries[a].in_memory
        pool.unpin(a)

    def test_unpin_without_pin_rejected(self, pool):
        a = pool.put("a", 10)
        with pytest.raises(BufferPoolError, match="unpin"):
            pool.unpin(a)

    def test_spill_file_cleanup_on_free(self, pool, tmp_path):
        a = pool.put("a" * 100, 600)
        pool.put("b", 600)  # evicts a to disk
        spill = pool._entries[a].spill_path
        assert spill and os.path.exists(spill)
        pool.free(a)
        assert not os.path.exists(spill)

    def test_clean_entry_not_rewritten(self, pool):
        a = pool.put("payload", 600)
        pool.put("b", 600)       # evicts a (writes its spill file: 600)
        pool.get(a)              # restore a; b stays resident
        pool.put("c", 600)       # evicts b (dirty: +600) and a (clean: +0)
        assert pool.stats["evictions"] == 3
        assert pool.stats["bytes_spilled"] == 1200  # a written exactly once

    def test_clear(self, pool):
        pool.put("a", 100)
        pool.put("b", 100)
        pool.clear()
        assert pool.num_entries == 0
        assert pool.used == 0

    def test_scan_short_circuits_when_all_pinned(self, pool):
        a = pool.put("a", 600, pinned=True)
        pool.put("b", 600, pinned=True)  # over budget, nothing evictable
        scans = pool.stats["evict_scans"]
        for _ in range(5):
            pool.put("c", 0, pinned=True)  # over-budget puts, still no scan
        assert pool.stats["evict_scans"] == scans == 0
        pool.unpin(a)  # now one entry is evictable: the scan runs
        assert pool.stats["evict_scans"] == 1
        assert not pool._entries[a].in_memory

    def test_put_pinned_never_evicted(self, pool):
        a = pool.put("weights", 600, pinned=True)
        pool.put("b", 600)
        pool.put("c", 600)
        assert pool._entries[a].in_memory
        pool.unpin(a)

    def test_evictable_accounting_through_lifecycle(self, pool):
        a = pool.put("a", 100)
        assert pool._evictable == 1
        pool.pin(a)
        assert pool._evictable == 0
        pool.unpin(a)
        assert pool._evictable == 1
        pool.free(a)
        assert pool._evictable == 0


class TestClose:
    def test_close_removes_spill_dir(self, tmp_path):
        spill = tmp_path / "spill"
        pool = BufferPool(budget=1000, spill_dir=str(spill))
        a = pool.put("a" * 100, 600)
        pool.put("b", 600)  # evicts a into the spill dir
        assert spill.exists()
        pool.close()
        assert pool.num_entries == 0
        assert not spill.exists()

    def test_close_without_spill_is_fine(self, tmp_path):
        pool = BufferPool(budget=1000, spill_dir=str(tmp_path / "never"))
        pool.put("a", 10)
        pool.close()
        pool.close()  # idempotent

    def test_close_leaves_shared_dir_with_foreign_files(self, tmp_path):
        pool = BufferPool(budget=1000, spill_dir=str(tmp_path))
        other = tmp_path / "someone-elses-spill.bin"
        other.write_bytes(b"keep me")
        pool.put("a", 10)
        pool.close()
        assert other.exists()  # a shared spill dir is never clobbered


class TestScavenging:
    """Orphaned spill directories of dead processes are reclaimed."""

    def _spill_once(self, spill_dir):
        pool = BufferPool(budget=1000, spill_dir=str(spill_dir))
        pool.put("a" * 100, 600)
        pool.put("b" * 100, 600)  # forces the first entry to spill
        return pool

    def test_pid_marker_written_on_first_spill(self, tmp_path):
        from repro.runtime.bufferpool import PID_FILE

        spill = tmp_path / "repro-spill-x"
        pool = self._spill_once(spill)
        assert (spill / PID_FILE).read_text().strip() == str(os.getpid())
        pool.close()

    def test_dead_owner_dir_is_removed(self, tmp_path):
        from repro.runtime.bufferpool import PID_FILE, scavenge_spill_dirs

        orphan = tmp_path / "repro-spill-orphan"
        orphan.mkdir()
        (orphan / "entry-1.bin").write_bytes(b"stale")
        # pid from a long-gone process: max_pid+1 can't be running
        (orphan / PID_FILE).write_text("99999999\n")
        assert scavenge_spill_dirs(str(tmp_path)) == 1
        assert not orphan.exists()

    def test_live_owner_dir_is_kept(self, tmp_path):
        from repro.runtime.bufferpool import PID_FILE, scavenge_spill_dirs

        active = tmp_path / "repro-spill-active"
        active.mkdir()
        (active / PID_FILE).write_text(f"{os.getpid()}\n")
        assert scavenge_spill_dirs(str(tmp_path)) == 0
        assert active.exists()

    def test_unmarked_dir_is_kept(self, tmp_path):
        from repro.runtime.bufferpool import scavenge_spill_dirs

        unmarked = tmp_path / "repro-spill-unknown"
        unmarked.mkdir()
        (unmarked / "data.bin").write_bytes(b"?")
        assert scavenge_spill_dirs(str(tmp_path)) == 0
        assert unmarked.exists()  # conservative: no marker, no reclaim

    def test_non_prefix_dirs_are_never_touched(self, tmp_path):
        from repro.runtime.bufferpool import PID_FILE, scavenge_spill_dirs

        other = tmp_path / "important-data"
        other.mkdir()
        (other / PID_FILE).write_text("99999999\n")
        assert scavenge_spill_dirs(str(tmp_path)) == 0
        assert other.exists()

    def test_startup_scavenge_reclaims_orphans(self, tmp_path):
        import repro.runtime.bufferpool as bp

        orphan = tmp_path / "repro-spill-dead"
        orphan.mkdir()
        (orphan / bp.PID_FILE).write_text("99999999\n")
        with bp._SCAVENGE_LOCK:
            bp._SCAVENGED_ROOTS.discard(str(tmp_path))
        pool = BufferPool(budget=1000, spill_dir=str(tmp_path / "repro-spill-me"))
        assert not orphan.exists()
        pool.close()

    def test_close_scavenge_skips_own_dir(self, tmp_path):
        spill = tmp_path / "repro-spill-self"
        pool = self._spill_once(spill)
        pool.close()
        assert not spill.exists()  # removed as empty, not as an orphan


class TestCompressedSpills:
    def _pool(self, tmp_path, budget, **kw):
        kw.setdefault("compress_spills", True)
        return BufferPool(budget=budget, spill_dir=str(tmp_path), **kw)

    def test_eligible_block_spills_compressed(self, tmp_path):
        block = compressible_block()
        pool = self._pool(tmp_path, budget=block.memory_size())
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), block.memory_size())  # evicts a
        assert pool.stats["compressed_spills"] == 1
        # the compressed file is materially smaller than the raw pickle
        assert os.path.getsize(pool._entries[a].spill_path) < block.memory_size()
        restored = pool.get(a)
        assert np.array_equal(restored.to_numpy(), block.to_numpy())
        pool.close()

    def test_incompressible_block_spills_raw(self, tmp_path):
        # i.i.d. random doubles: every cell distinct, dictionary can't win
        block = BasicTensorBlock.from_numpy(
            np.random.default_rng(7).standard_normal((64, 16))
        )
        pool = self._pool(tmp_path, budget=block.memory_size())
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), block.memory_size())
        assert pool.stats["compressed_spills"] == 0
        assert pool.stats["raw_spills"] == 1
        assert pool.stats["compress_rejects"] == 1
        assert np.array_equal(pool.get(a).to_numpy(), block.to_numpy())
        pool.close()

    def test_sparse_block_spills_raw_and_stays_sparse(self, tmp_path):
        dense = np.zeros((64, 64))
        dense[::16, ::16] = 3.0
        block = BasicTensorBlock.from_numpy(dense).compact()
        assert block.is_sparse
        pool = self._pool(tmp_path, budget=block.memory_size())
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), 2000)
        assert pool.stats["raw_spills"] == 1
        restored = pool.get(a)
        assert restored.is_sparse  # layout (and thus kernel choice) preserved
        assert np.array_equal(restored.to_numpy(), dense)
        pool.close()

    def test_restore_is_lazy_until_touched(self, tmp_path):
        block = compressible_block()
        pool = self._pool(tmp_path, budget=block.memory_size())
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), block.memory_size())
        restored = pool.get(a)  # compressed_exec off: inflated on the way out
        assert not restored.store.compressed
        assert restored.nnz == block.nnz

    def test_compressed_exec_returns_compressed_payload(self, tmp_path):
        block = compressible_block()
        pool = self._pool(tmp_path, budget=block.memory_size(),
                          compressed_exec=True)
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), block.memory_size())
        restored = pool.get(a)
        assert restored.store.compressed
        assert restored.shape == block.shape
        assert restored.nnz == block.nnz  # metadata survives the round trip
        assert np.array_equal(restored.to_numpy(), block.to_numpy())
        pool.close()

    def test_bitwise_roundtrip_negative_zero_and_nan(self, tmp_path):
        raw = np.tile(np.array([0.0, -0.0, np.nan, 1.5]), (64, 4))
        block = BasicTensorBlock.from_numpy(raw)
        pool = self._pool(tmp_path, budget=block.memory_size())
        a = pool.put(block, block.memory_size())
        pool.put(compressible_block(), block.memory_size())
        assert pool.stats["compressed_spills"] == 1
        restored = pool.get(a)
        assert restored.to_numpy().tobytes() == raw.tobytes()
        pool.close()


class TestSyncPaging:
    """Update-after-spill and spill faults on the one (synchronous) path."""

    def _pool(self, tmp_path, budget, **kw):
        kw.setdefault("compress_spills", True)
        return BufferPool(budget=budget, spill_dir=str(tmp_path), **kw)

    def test_update_after_spill_leaves_no_stale_spill(self, tmp_path):
        from repro.runtime.bufferpool import PID_FILE

        blocks = [compressible_block() for _ in range(3)]
        size = blocks[0].memory_size()
        pool = self._pool(tmp_path, budget=size * 2)
        a = [pool.put(b, size) for b in blocks][0]  # the third put evicts a
        assert not pool._entries[a].in_memory and not pool._entries[a].dirty
        fresh = BasicTensorBlock.from_numpy(np.full((64, 16), 42.0))
        pool.update(a, fresh, size)
        pool.put(compressible_block(), size * 2)  # evicts a again
        assert not pool._entries[a].in_memory
        assert np.array_equal(pool.get(a).to_numpy(), fresh.to_numpy())
        # exactly one file per spilled entry: the rewrite left nothing behind
        on_disk = set(os.listdir(tmp_path)) - {PID_FILE}
        assert on_disk == {os.path.basename(e.spill_path)
                           for e in pool._entries.values() if e.spill_path}
        pool.close()

    def test_spill_faults_recovered_transparently(self, tmp_path):
        from repro.resilience import (
            FaultInjector, FaultPlan, ResilienceManager, RetryPolicy,
        )

        faults = ResilienceManager(
            injector=FaultInjector(
                FaultPlan.parse("spill.write:p=0.5;spill.read:p=0.5", seed=11)
            ),
            retry_policy=RetryPolicy(max_retries=5, jitter=0.0),
            sleep=None,
        )
        blocks = [
            BasicTensorBlock.from_numpy(np.tile(np.arange(4.0) + i, (64, 4)))
            for i in range(6)
        ]
        size = blocks[0].memory_size()
        pool = self._pool(tmp_path, budget=size * 2, resilience=faults)
        ids = [pool.put(b, size) for b in blocks]
        for __ in range(2):  # every get restores one entry and evicts another
            for index, i in enumerate(ids):
                assert np.array_equal(pool.get(i).to_numpy(),
                                      blocks[index].to_numpy())
        assert faults.stats.counter("faults_injected") > 0
        assert faults.stats.counter("retries") > 0
        pool.close()


class TestIntegrationWithExecution:
    def test_script_runs_under_tiny_bufferpool(self):
        import numpy as np

        from repro.api.mlcontext import MLContext
        from repro.config import ReproConfig

        # budget so small that intermediates must spill
        cfg = ReproConfig(memory_budget=400_000, bufferpool_fraction=0.1)
        ml = MLContext(cfg)
        x = np.random.default_rng(0).random((100, 50))
        result = ml.execute(
            "A = X + 1\nB = X * 2\nC = X - 3\nD = A + B + C + X\ns = sum(D)",
            inputs={"X": x},
            outputs=["s"],
        )
        expected = ((x + 1) + (x * 2) + (x - 3) + x).sum()
        assert abs(result.scalar("s") - expected) < 1e-6
