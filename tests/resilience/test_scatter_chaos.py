"""Scatter under failure: a worker SIGKILLed mid-scatter, and a bound fault
plan whose seeded schedule replays while its batches scatter.
"""

import threading

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.net import registry_for
from repro.net.proc import ProcTransport
from repro.net.transport import for_config
from repro.tensor import BasicTensorBlock

_FAST_RETRY = {"retry_budget": 5, "retry_backoff_ms": 0.0,
               "retry_backoff_max_ms": 0.0}


@pytest.fixture(scope="module")
def transport():
    t = ProcTransport(site_workers=2, task_workers=1, heartbeat_s=0.1,
                      request_timeout_s=20.0)
    yield t
    t.close()


def _address_on(transport, slot, prefix):
    candidate = 0
    while transport._owner(f"{prefix}-{candidate}:9001") != slot:
        candidate += 1
    return f"{prefix}-{candidate}:9001"


class TestSigkillMidScatter:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_both_replies_correct_one_respawn_survivor_ran_once(
        self, transport, victim
    ):
        # victim 0 is awaited first (its death is seen at once, and the
        # survivor's reply waits in its socket through the respawn);
        # victim 1 is found dead only after the survivor's reply is in
        registry = transport.registry()
        addresses = [_address_on(transport, slot, "kill") for slot in (0, 1)]
        sites = []
        for value, address in enumerate(addresses):
            site = registry.start_site(address)
            site.put("X", BasicTensorBlock.from_numpy(np.full((2, 2), value + 1.0)))
            sites.append(site)

        def slow_double(block):
            import time

            time.sleep(1.0)
            return BasicTensorBlock.from_numpy(block.to_numpy() * 2.0)

        survivor = sites[1 - victim]
        ran_before = survivor.metrics["requests"]
        before = transport.snapshot()
        timer = threading.Timer(0.2, transport._pools["fed"][victim].kill)
        timer.start()
        try:
            replies = transport.site_calls([
                (address, "execute_and_return", ("X", slow_double, 0, 0), None, False)
                for address in addresses
            ])
            ran = survivor.metrics["requests"] - ran_before
            reran = sites[victim].metrics["requests"]
        finally:
            timer.cancel()
            timer.join(timeout=5.0)
            registry.clear()
        for value, reply in enumerate(replies):
            np.testing.assert_array_equal(
                reply.to_numpy(), np.full((2, 2), 2.0 * (value + 1.0))
            )
        delta = {key: transport.snapshot()[key] - before[key]
                 for key in ("worker_deaths", "worker_respawns",
                             "resent_requests", "dedup_hits",
                             "replayed_publications")}
        assert delta["worker_deaths"] == 1
        assert delta["worker_respawns"] == 1
        # the publications (start_site + put) rebuilt the dead site
        assert delta["replayed_publications"] == 2
        # one resend, to the fresh incarnation, which had nothing to replay
        # from: it executed the request (its only one) for the first time
        assert delta["resent_requests"] == 1
        assert delta["dedup_hits"] == 0
        assert reran == 1
        assert ran == 1  # the survivor never saw its request twice


L2SVM = """
Xf = federated(addresses=list("%s/X", "%s/X"), ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:6) {
  margin = Xf %%*%% w
  grad = t(Xf) %%*%% (margin - y)
  w = w - (0.1 / nrow(Xf)) * grad
}
"""

#: Counters that depend on the order requests went out in, not on timing.
_ORDERED = ("worker_deaths", "worker_respawns", "resent_requests",
            "replayed_publications", "scattered_requests", "reconnects",
            "partitions", "frames_dropped", "frames_duplicated",
            "frames_corrupt_rejected")


class TestBoundFaultPlanReplays:
    """Chaos runs the path production runs: a bound fault plan wraps the
    scattered batch, and the same seed still replays the same faults."""

    def _run(self, config, addresses):
        rng = np.random.default_rng(17)
        data = rng.random((40, 4))
        registry = registry_for(config)
        registry.clear()
        for address, part in zip(addresses, (data[:20], data[20:])):
            registry.start_site(address).put("X", BasicTensorBlock.from_numpy(part))
        transport = for_config(config)
        before = transport.snapshot() if transport is not None else {}
        try:
            ml = MLContext(config)
            result = ml.execute(
                L2SVM % tuple(addresses),
                inputs={"y": data @ np.ones((4, 1)),
                        "R1": np.asarray([[0.0, 0.0, 20.0, 4.0]]),
                        "R2": np.asarray([[20.0, 0.0, 40.0, 4.0]])},
                outputs=["w"],
            )
            w = result.matrix("w")
            result.close()
            stats = ml.stats()
            resilience = stats.snapshot()["resilience"] if stats else None
        finally:
            registry.clear()
        wire = {key: transport.snapshot()[key] - before[key]
                for key in _ORDERED} if transport is not None else None
        return w, resilience, wire

    def test_same_seed_same_counters(self):
        chaos = ReproConfig(
            transport="tcp", enable_stats=True, fault_seed=29,
            fault_spec="site.request:p=0.15;net.dup:p=0.25;net.partition:fail=2",
            heartbeat_interval_s=0.1, **_FAST_RETRY,
        )
        # one site per fed worker, so every batch can scatter
        addresses = [_address_on(for_config(chaos), slot, "seed") for slot in (0, 1)]
        try:
            clean_w, __, __ = self._run(ReproConfig(), addresses)
            first_w, first_resilience, first_wire = self._run(chaos, addresses)
            second_w, second_resilience, second_wire = self._run(chaos, addresses)
        finally:
            for_config(chaos).close()
        np.testing.assert_array_equal(first_w, clean_w)
        np.testing.assert_array_equal(second_w, clean_w)
        assert first_resilience == second_resilience
        assert first_wire == second_wire
        assert first_wire["scattered_requests"] > 0
        # the plan did fire: the equalities above compare real schedules
        assert first_wire["partitions"] == 2
        assert first_wire["frames_duplicated"] > 0
        assert first_resilience["injected_by_point"].get("site.request", 0) > 0
