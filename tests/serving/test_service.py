"""Integration tests for the concurrent scoring service."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ScoreTimeoutError,
    ServiceOverloadedError,
    ServingError,
    UnknownModelError,
)
from repro.serving import ModelRegistry, ScoringService

SCRIPT = "yhat = X %*% B"
NORM_SCRIPT = "norm = sum(t(B) %*% B)\nyhat = (X %*% B) / sqrt(norm)"


@pytest.fixture
def registry():
    reg = ModelRegistry()
    yield reg
    reg.close()


def _register_lm(registry, name="lm", features=6, seed=0, **kwargs):
    weights = np.random.default_rng(seed).random((features, 1))
    registry.register(name, SCRIPT, weights={"B": weights}, **kwargs)
    return weights


class TestScoring:
    def test_single_request(self, registry):
        weights = _register_lm(registry)
        with ScoringService(registry, workers=2) as service:
            row = np.arange(6, dtype=float)
            score = service.score("lm", row, timeout=10.0)
            np.testing.assert_allclose(score, row.reshape(1, -1) @ weights)

    def test_multi_row_request(self, registry):
        weights = _register_lm(registry)
        with ScoringService(registry, workers=2) as service:
            batch = np.random.default_rng(1).random((5, 6))
            score = service.score("lm", batch, timeout=10.0)
            assert score.shape == (5, 1)
            np.testing.assert_allclose(score, batch @ weights)

    def test_unknown_model(self, registry):
        with ScoringService(registry, workers=1) as service:
            with pytest.raises(UnknownModelError):
                service.submit("ghost", np.ones(3))

    def test_multi_tenant_and_versions(self, registry):
        w1 = _register_lm(registry, "lm", seed=1)
        w2 = np.random.default_rng(2).random((6, 1))
        registry.register("lm", SCRIPT, weights={"B": w2})  # v2
        w_other = _register_lm(registry, "other", features=4, seed=3)
        with ScoringService(registry, workers=2) as service:
            row6 = np.ones(6)
            row4 = np.ones(4)
            np.testing.assert_allclose(
                service.score("lm", row6, version=1), row6.reshape(1, -1) @ w1
            )
            np.testing.assert_allclose(
                service.score("lm", row6), row6.reshape(1, -1) @ w2
            )
            np.testing.assert_allclose(
                service.score("other", row4), row4.reshape(1, -1) @ w_other
            )

    def test_script_error_propagates(self, registry):
        registry.register("bad", 'yhat = X %*% B\nstop("boom")',
                          weights={"B": np.ones((3, 1))})
        with ScoringService(registry, workers=1) as service:
            future = service.submit("bad", np.ones(3))
            with pytest.raises(Exception, match="boom"):
                future.result(timeout=10.0)
            assert service.snapshot()["models"]["bad@v1"]["errors"] == 1


class TestConcurrentLoad:
    def test_hammer_from_8_threads(self, registry):
        weights = _register_lm(registry)
        rng = np.random.default_rng(4)
        rows = [rng.random(6) for _ in range(200)]
        errors = []
        with ScoringService(registry, workers=4, queue_limit=1000) as service:

            def client(offset):
                try:
                    for index in range(offset, len(rows), 8):
                        score = service.score("lm", rows[index], timeout=30.0)
                        expected = rows[index].reshape(1, -1) @ weights
                        np.testing.assert_allclose(score, expected)
                except Exception as exc:  # noqa: BLE001 - collect for the assert
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors

    def test_burst_is_microbatched(self, registry):
        _register_lm(registry)
        rng = np.random.default_rng(5)
        service = ScoringService(registry, workers=2, queue_limit=500,
                                 max_batch_size=16, max_wait_ms=5.0)
        # queue a burst before the workers start: batches must form
        futures = [service.submit("lm", rng.random(6), timeout=30.0)
                   for _ in range(120)]
        with service:
            for future in futures:
                future.result(timeout=30.0)
        sizes = service.snapshot()["models"]["lm@v1"]["batch_sizes"]
        assert any(int(size) > 1 for size in sizes)

    def test_per_model_concurrency_limit(self, registry):
        _register_lm(registry, max_concurrency=1)
        peak = [0]
        active = [0]
        gate = threading.Lock()
        first_entered = threading.Event()
        release = threading.Event()
        servable = registry.get("lm")
        inner = servable.score_batch

        def tracked(matrix):
            with gate:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                first_entered.set()
                # hold the slot until every request is queued: a broken
                # limit would let the three idle workers overlap here
                release.wait(timeout=10.0)
                return inner(matrix)
            finally:
                with gate:
                    active[0] -= 1

        servable.score_batch = tracked
        with ScoringService(registry, workers=4, max_batch_size=1,
                            max_wait_ms=0.0) as service:
            futures = [service.submit("lm", np.ones(6)) for _ in range(12)]
            assert first_entered.wait(timeout=10.0)
            release.set()
            for future in futures:
                future.result(timeout=30.0)
        assert peak[0] == 1  # never more than the model's limit in flight


class TestOverloadAndTimeouts:
    def test_bounded_queue_rejects(self, registry):
        _register_lm(registry)
        service = ScoringService(registry, workers=1, queue_limit=3,
                                 max_batch_size=1, max_wait_ms=0.0)
        # workers not started: submissions can only pile up
        for _ in range(3):
            service.submit("lm", np.ones(6))
        with pytest.raises(ServiceOverloadedError):
            service.submit("lm", np.ones(6))
        assert service.snapshot()["models"]["lm@v1"]["rejected"] == 1
        assert service.snapshot()["queue_depth"] == 3

    def test_result_timeout_honored(self, registry):
        _register_lm(registry)
        service = ScoringService(registry, workers=1)  # never started
        future = service.submit("lm", np.ones(6))
        start = time.monotonic()
        with pytest.raises(ScoreTimeoutError):
            future.result(timeout=0.05)
        assert time.monotonic() - start < 2.0

    def test_expired_requests_dropped_not_scored(self, registry):
        _register_lm(registry)
        service = ScoringService(registry, workers=1, max_batch_size=1,
                                 max_wait_ms=0.0)
        # timeout=0 puts the deadline in the past: expired while queued,
        # with no real sleep (deadline checks use a strict now > deadline)
        future = service.submit("lm", np.ones(6), timeout=0.0)
        with service:
            with pytest.raises(ScoreTimeoutError, match="expired"):
                future.result(timeout=10.0)
        assert service.snapshot()["models"]["lm@v1"]["timeouts"] == 1

    def test_stop_fails_pending_requests(self, registry):
        _register_lm(registry)
        service = ScoringService(registry, workers=1)
        future = service.submit("lm", np.ones(6))
        service.stop()
        with pytest.raises(ServingError, match="stopped"):
            future.result(timeout=1.0)


class TestMetricsSurface:
    def test_snapshot_shape(self, registry):
        registry.register("lm", NORM_SCRIPT, weights={"B": np.ones((6, 1))})
        with ScoringService(registry, workers=2) as service:
            for _ in range(5):
                service.score("lm", np.random.default_rng(6).random(6),
                              timeout=10.0)
            snap = service.snapshot()
        model = snap["models"]["lm@v1"]
        assert model["completed"] == 5
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert model["latency_ms"][key] >= 0.0
        assert sum(model["batch_sizes"].values()) >= 1
        assert "queue_depth" in snap
        assert model["reuse"]["hits_full"] > 0  # weights-only tsmm reused
