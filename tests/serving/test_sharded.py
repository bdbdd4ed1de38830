"""Integration tests for the multi-process sharded scoring service.

Workers are spawned OS processes attaching shared-memory weights, so one
module-scoped service is reused across tests to keep spawn cost down.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ServingError, SharedSegmentError, UnknownModelError
from repro.io.shm import SHM_DIR, SHM_PREFIX
from repro.serving import ModelRegistry, QosController, ShardedScoringService

FEATURES = 6
SCRIPT = "yhat = X %*% B"


@pytest.fixture(scope="module")
def rig():
    rng = np.random.default_rng(42)
    weights = {
        "alpha": rng.standard_normal((FEATURES, 1)),
        "beta": rng.standard_normal((FEATURES, 1)),
    }
    registry = ModelRegistry()
    for name, b in weights.items():
        registry.register(name, SCRIPT, weights={"B": b})
    qos = QosController()
    qos.set_policy("gold", weight=3.0)
    service = ShardedScoringService(registry, procs=2, qos=qos)
    service.start()
    yield service, weights
    service.stop()
    registry.close()


class TestShardedScoring:
    def test_exact_results_both_models(self, rig):
        service, weights = rig
        rng = np.random.default_rng(1)
        for name, b in weights.items():
            x = rng.standard_normal((5, FEATURES))
            got = service.score(name, x, timeout=30.0)
            np.testing.assert_allclose(got, x @ b)

    def test_burst_with_tenants(self, rig):
        service, weights = rig
        rng = np.random.default_rng(2)
        rows = [rng.standard_normal((1, FEATURES)) for _ in range(24)]
        futures = [
            service.submit("alpha", row, tenant="gold" if i % 2 else None)
            for i, row in enumerate(rows)
        ]
        got = np.vstack([future.result(30.0) for future in futures])
        np.testing.assert_allclose(got, np.vstack(rows) @ weights["alpha"])
        snap = service.snapshot()
        assert snap["tenants"]["gold"]["completed"] >= 12

    def test_workers_attached_and_verified_shm(self, rig):
        service, _ = rig
        snap = service.snapshot()
        workers = snap["workers"]
        assert len(workers) == 2
        for stats in workers.values():
            # each worker attached every published segment, checksum-verified
            assert stats["shm_segments_attached"] >= 1
            assert stats["shm_checksums_verified"] \
                == stats["shm_segments_attached"]
        assert snap["shared_memory"]["published"] >= 1
        assert snap["shared_memory"]["owned"] >= 1

    def test_unknown_model_rejected_in_parent(self, rig):
        service, _ = rig
        with pytest.raises(UnknownModelError):
            service.submit("nope", np.ones(FEATURES))

    def test_worker_errors_surface_to_caller(self, rig):
        service, _ = rig
        # wrong feature width: the worker's matmul fails; the error must
        # cross the process boundary and fail only this request
        future = service.submit("alpha", np.ones((1, FEATURES + 1)))
        with pytest.raises(Exception):
            future.result(30.0)
        x = np.ones((1, FEATURES))
        got = service.score("alpha", x, timeout=30.0)
        assert got.shape == (1, 1)  # plane still healthy afterwards


class TestOneQueue:
    def test_burst_of_one_model_runs_on_both_workers(self):
        # integer-valued inputs make every score exact, so a row scored on
        # either worker must come back bit-identical to the NumPy product
        rng = np.random.default_rng(7)
        b = rng.integers(-8, 8, (FEATURES, 1)).astype(float)
        x = rng.integers(-8, 8, (64, FEATURES)).astype(float)
        registry = ModelRegistry()
        registry.register("solo", SCRIPT, weights={"B": b})
        service = ShardedScoringService(registry, procs=2, max_batch_size=4)
        try:
            # queued before the worker loops start, so both find work
            futures = [service.submit("solo", x[i:i + 1])
                       for i in range(len(x))]
            with service:
                got = np.vstack([future.result(30.0) for future in futures])
                workers = service.snapshot()["workers"]
            assert workers["0"]["batches"] > 0
            assert workers["1"]["batches"] > 0
            assert np.array_equal(got, x @ b)
        finally:
            registry.close()


class TestConstruction:
    def test_procs_must_be_positive(self):
        registry = ModelRegistry()
        try:
            with pytest.raises(ServingError):
                ShardedScoringService(registry, procs=0)
        finally:
            registry.close()

    def test_identical_weights_share_one_segment(self):
        b = np.ones((4, 1))
        registry = ModelRegistry()
        try:
            registry.register("twin-a", SCRIPT, weights={"B": b})
            registry.register("twin-b", SCRIPT, weights={"B": b.copy()})
            service = ShardedScoringService(registry, procs=1)
            with service:
                snap = service.snapshot()
                assert snap["shared_memory"]["published"] == 1
                assert snap["shared_memory"]["deduped"] >= 1
                got = service.score("twin-b", np.ones(4), timeout=30.0)
                np.testing.assert_allclose(got, [[4.0]])
        finally:
            registry.close()


class TestStartRollback:
    def test_failed_bootstrap_leaves_nothing_behind(self):
        from multiprocessing import shared_memory

        from repro.io.shm import HEADER_SIZE

        registry = ModelRegistry()
        registry.register("lm", SCRIPT, weights={"B": np.ones((FEATURES, 1))})
        service = ShardedScoringService(registry, procs=2)
        published = []
        share_weights = registry.share_weights

        def share_then_corrupt(store):
            entries = share_weights(store)
            spec = entries[0]["weights"]["B"]
            published.append(spec.name)
            raw = shared_memory.SharedMemory(name=spec.name)
            try:
                raw.buf[HEADER_SIZE] ^= 0xFF
            finally:
                raw.close()
            return entries

        children_before = set(multiprocessing.active_children())
        try:
            registry.share_weights = share_then_corrupt
            with pytest.raises(SharedSegmentError, match="checksum"):
                service.start()
            # rolled back: no worker outlives the failure, the published
            # segment is unlinked, and the service is startable again
            assert set(multiprocessing.active_children()) <= children_before
            assert service.snapshot()["shared_memory"]["owned"] == 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=published[0])
            registry.share_weights = share_weights
            with service:
                got = service.score("lm", np.ones(FEATURES), timeout=30.0)
                np.testing.assert_allclose(got, [[float(FEATURES)]])
        finally:
            service.stop()
            registry.close()


@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason="needs /dev/shm")
class TestCleanStop:
    def test_stop_leaves_no_worker_and_no_segment(self):
        def segments():
            return {name for name in os.listdir(SHM_DIR)
                    if name.startswith(SHM_PREFIX)}

        registry = ModelRegistry()
        # weights no other test publishes, so this service owns the segment
        b = np.full((FEATURES, 1), 0.125)
        registry.register("leak-check", SCRIPT, weights={"B": b})
        service = ShardedScoringService(registry, procs=2)
        children_before = set(multiprocessing.active_children())
        segments_before = segments()
        try:
            service.start()
            got = service.score("leak-check", np.ones(FEATURES), timeout=30.0)
            np.testing.assert_allclose(got, [[0.75]])
            spawned = set(multiprocessing.active_children()) - children_before
            published = segments() - segments_before
            assert len(spawned) == 2
            assert published
            service.stop()
            assert not any(child.is_alive() for child in spawned)
            assert set(multiprocessing.active_children()) <= children_before
            assert not published & segments()
        finally:
            service.stop()
            registry.close()
