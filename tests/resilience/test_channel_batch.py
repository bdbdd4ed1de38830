"""ResilientChannel.scatter: one batch of site requests, resilient per
request.  Each round is one send of every pending request; a request that
failed is retried on its own while its siblings keep their replies."""

import numpy as np
import pytest

from repro.errors import FederatedError
from repro.federated import instructions as fed_ops
from repro.federated.tensor import FederatedPartition, FederatedRange, FederatedTensor
from repro.resilience import FaultInjector, FaultPlan, ResilienceStats, ResilientChannel, RetryPolicy
from repro.tensor import BasicTensorBlock


def _channel(clock, worker_registry, injector=None, **kwargs):
    kwargs.setdefault("policy", RetryPolicy(max_retries=2, jitter=0.0))
    return ResilientChannel(
        injector=injector, registry=worker_registry, stats=ResilienceStats(),
        clock=clock, sleep=clock.sleep, **kwargs,
    )


def _federate(worker_registry, data, addresses=("a:1", "b:1")):
    half = data.shape[0] // 2
    partitions = []
    for address, r0, r1 in zip(addresses, (0, half), (half, data.shape[0])):
        site = worker_registry.start_site(address)
        site.put("X", BasicTensorBlock.from_numpy(data[r0:r1]))
        partitions.append(FederatedPartition(
            site, "X", FederatedRange((r0, 0), (r1, data.shape[1]))))
    return FederatedTensor(partitions)


@pytest.fixture
def rounds(monkeypatch):
    """The partitions of every batch the federated ops send, in order."""
    sent, send = [], fed_ops._call_direct

    def recording(requests, on_reply=None):
        sent.append([site.address for site, __, __ in requests])
        return send(requests, on_reply)

    monkeypatch.setattr(fed_ops, "_call_direct", recording)
    return sent


def _flaky(site, method, failure):
    """Make ``site.method`` run ``failure(attempt)`` before each call."""
    real, calls = getattr(site, method), []

    def wrapped(*args):
        calls.append(args)
        failure(len(calls))
        return real(*args)

    setattr(site, method, wrapped)
    return calls


class TestBatchRounds:
    def test_a_transient_failure_is_retried_alone(self, clock, worker_registry, rounds):
        data = np.random.default_rng(3).standard_normal((8, 3))
        fed = _federate(worker_registry, data)
        clean = fed_ops.fed_tsmm(fed).to_numpy()
        site_a, site_b = (part.site for part in fed.partitions)
        requests_before = [site_a.metrics["requests"], site_b.metrics["requests"]]

        def reset_once(attempt):
            if attempt == 1:
                raise ConnectionResetError("link reset")

        calls_b = _flaky(site_b, "execute_and_return", reset_once)
        channel = _channel(clock, worker_registry)
        rounds.clear()
        got = fed_ops.fed_tsmm(fed, channel=channel).to_numpy()
        np.testing.assert_array_equal(got, clean)
        assert rounds == [["a:1", "b:1"], ["b:1"]]
        # the sibling's reply was kept: a executed once, b once it was retried
        assert site_a.metrics["requests"] - requests_before[0] == 1
        assert site_b.metrics["requests"] - requests_before[1] == 1
        assert len(calls_b) == 2
        assert channel.stats.counter("site_retries") == 1

    def test_an_injected_fault_is_drawn_before_the_send(self, clock, worker_registry, rounds):
        data = np.random.default_rng(4).standard_normal((6, 2))
        fed = _federate(worker_registry, data)
        clean = fed_ops.collect_federated(fed).to_numpy()
        injector = FaultInjector(FaultPlan.parse("site.request:fail=1"))
        channel = _channel(clock, worker_registry, injector)
        rounds.clear()
        got = fed_ops.collect_federated(fed, channel=channel).to_numpy()
        np.testing.assert_array_equal(got, clean)
        # partition 0's draw tripped: it was never sent in the first round
        assert rounds == [["b:1"], ["a:1"]]
        assert injector.snapshot()["site.request"] == {"calls": 3, "injected": 1}

    def test_a_slow_site_does_not_time_its_sibling_out(self, clock, worker_registry, rounds):
        data = np.random.default_rng(5).standard_normal((8, 3))
        fed = _federate(worker_registry, data)
        clean = fed_ops.fed_tsmm(fed).to_numpy()
        site_a, site_b = (part.site for part in fed.partitions)

        def slow_once(attempt):
            if attempt == 1:
                clock.advance(5.0)

        calls_a = _flaky(site_a, "execute_and_return", slow_once)
        calls_b = _flaky(site_b, "execute_and_return", lambda attempt: None)
        channel = _channel(clock, worker_registry, timeout_s=1.0)
        rounds.clear()
        got = fed_ops.fed_tsmm(fed, channel=channel).to_numpy()
        np.testing.assert_array_equal(got, clean)
        # a is awaited first and took 5 s; b's reply was in at once
        assert rounds == [["a:1", "b:1"], ["a:1"]]
        assert (len(calls_a), len(calls_b)) == (2, 1)
        assert channel.stats.counter("timeouts") == 1

    def test_a_permanent_error_is_raised_after_the_round(self, clock, worker_registry):
        data = np.random.default_rng(6).standard_normal((4, 2))
        fed = _federate(worker_registry, data)
        site_a, site_b = (part.site for part in fed.partitions)

        def refuse(attempt):
            raise FederatedError("privacy constraint violated")

        _flaky(site_a, "execute_and_return", refuse)
        calls_b = _flaky(site_b, "execute_and_return", lambda attempt: None)
        channel = _channel(clock, worker_registry)
        with pytest.raises(FederatedError, match="privacy"):
            fed_ops.fed_tsmm(fed, channel=channel)
        assert len(calls_b) == 1  # the sibling went out with it, once
        assert channel.stats.counter("retries") == 0
