"""Serving tolerance: score retry, per-model circuit breaker, load shedding."""

import numpy as np
import pytest

from repro.errors import ServiceUnavailableError
from repro.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ResilienceManager,
    RetryPolicy,
)
from repro.serving import ModelRegistry, ScoringService

SCRIPT = "yhat = X %*% B"


@pytest.fixture
def registry():
    reg = ModelRegistry()
    yield reg
    reg.close()


def _register_lm(registry, name="lm", features=6, seed=0):
    weights = np.random.default_rng(seed).random((features, 1))
    registry.register(name, SCRIPT, weights={"B": weights})
    return weights


def _manager(spec=None, retries=2, clock=None, **kwargs):
    injector = FaultInjector(FaultPlan.parse(spec)) if spec else None
    manager_kwargs = dict(
        injector=injector,
        retry_policy=RetryPolicy(max_retries=retries, jitter=0.0),
        sleep=None,
    )
    if clock is not None:
        manager_kwargs["clock"] = clock
    manager_kwargs.update(kwargs)
    return ResilienceManager(**manager_kwargs)


class TestScoreRetry:
    def test_transient_score_faults_are_retried(self, registry):
        weights = _register_lm(registry)
        resilience = _manager("serve.score:fail=2", retries=2)
        with ScoringService(registry, workers=1, max_batch_size=1,
                            max_wait_ms=0.0, resilience=resilience) as service:
            row = np.arange(6, dtype=float)
            score = service.score("lm", row, timeout=10.0)
            np.testing.assert_allclose(score, row.reshape(1, -1) @ weights)
        assert resilience.stats.counter("serve_retries") == 2
        assert resilience.stats.counter("faults_injected") == 2

    def test_exhausted_faults_fail_the_request_not_the_worker(self, registry):
        _register_lm(registry)
        resilience = _manager("serve.score:fail=1", retries=0)
        with ScoringService(registry, workers=1, max_batch_size=1,
                            max_wait_ms=0.0, resilience=resilience) as service:
            future = service.submit("lm", np.arange(6, dtype=float))
            with pytest.raises(Exception, match="serve.score"):
                future.result(timeout=10.0)
            # worker survived: the next request (faults exhausted) succeeds
            score = service.score("lm", np.arange(6, dtype=float), timeout=10.0)
            assert score.shape == (1, 1)


class TestCircuitBreaker:
    def test_breaker_opens_and_rejects_fast(self, registry, clock):
        _register_lm(registry)
        resilience = _manager("serve.score:p=1.0", retries=0, clock=clock,
                              breaker_threshold=2)
        with ScoringService(registry, workers=1, max_batch_size=1,
                            max_wait_ms=0.0, resilience=resilience) as service:
            for __ in range(2):
                future = service.submit("lm", np.arange(6, dtype=float))
                with pytest.raises(Exception):
                    future.result(timeout=10.0)
            # breaker for the model key (name, version) is now open
            breaker = resilience.breaker_for("lm@v1")
            assert breaker.state == CircuitBreaker.OPEN
            with pytest.raises(ServiceUnavailableError, match="circuit open"):
                service.submit("lm", np.arange(6, dtype=float))
        assert resilience.stats.counter("breaker_rejections") == 1
        assert service.snapshot()["models"]["lm@v1"]["rejected"] >= 1

    def test_breaker_recovers_after_cooldown(self, registry, clock):
        weights = _register_lm(registry)
        resilience = _manager("serve.score:fail=2", retries=0, clock=clock,
                              breaker_threshold=2, breaker_cooldown_s=5.0)
        with ScoringService(registry, workers=1, max_batch_size=1,
                            max_wait_ms=0.0, resilience=resilience) as service:
            for __ in range(2):
                future = service.submit("lm", np.arange(6, dtype=float))
                with pytest.raises(Exception):
                    future.result(timeout=10.0)
            breaker = resilience.breaker_for("lm@v1")
            assert breaker.state == CircuitBreaker.OPEN
            clock.advance(5.0)  # cooldown elapses; faults are exhausted
            row = np.arange(6, dtype=float)
            score = service.score("lm", row, timeout=10.0)
            np.testing.assert_allclose(score, row.reshape(1, -1) @ weights)
            assert breaker.state == CircuitBreaker.CLOSED


class TestLoadShedding:
    def test_nearly_full_queue_sheds_with_typed_error(self, registry):
        _register_lm(registry)
        resilience = _manager(retries=0)
        # not started: no workers drain the queue, so depth only grows
        service = ScoringService(registry, workers=1, queue_limit=10,
                                 max_batch_size=1, max_wait_ms=0.0,
                                 resilience=resilience)
        shed = None
        for __ in range(10):
            try:
                service.submit("lm", np.arange(6, dtype=float))
            except ServiceUnavailableError as exc:
                shed = exc
                break
        assert shed is not None and "load shed" in str(shed)
        assert service._batcher.depth == 9  # the 90% watermark held
        assert resilience.stats.counter("shed_requests") == 1
        service._batcher.close()

    def test_no_resilience_keeps_hard_queue_limit_only(self, registry):
        _register_lm(registry)
        service = ScoringService(registry, workers=1, queue_limit=10,
                                 max_batch_size=1, max_wait_ms=0.0)
        for __ in range(10):
            service.submit("lm", np.arange(6, dtype=float))
        assert service._batcher.depth == 10  # no watermark without resilience
        service._batcher.close()
