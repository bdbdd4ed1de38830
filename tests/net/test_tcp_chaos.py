"""ChaosTransport: every wire fault preserves exactly-once execution.

Each per-point test drives real mutations (increments of a hosted cell)
through a seeded fault and then asserts the *value* — the one observable
that can't lie about duplicate or lost executions — alongside the stat
counters that prove the fault actually fired.  The closing end-to-end
test is the acceptance bar: a federated L2SVM run that survives seeded
mid-iteration partitions bit-identically.
"""

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.net import registry_for
from repro.net.chaos import ChaosTransport, spec_targets_network
from repro.net.proc import ProcTransport
from repro.net.transport import for_config
from repro.resilience.manager import ResilienceManager
from repro.tensor import BasicTensorBlock
from repro.tensor import ops

FAST_RETRY = {"retry_budget": 5, "retry_backoff_ms": 0.0,
              "retry_backoff_max_ms": 0.0}


@pytest.fixture(scope="module")
def transport():
    t = ChaosTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                       request_timeout_s=20.0, reconnect_backoff_ms=1.0,
                       reconnect_backoff_max_ms=5.0)
    yield t
    t.close()


@pytest.fixture
def registry(transport):
    reg = transport.registry()
    yield reg
    # disarm before the teardown clear so BYE/cleanup traffic stays clean
    transport.bind_resilience(None)
    reg.clear()


def _arm(transport, spec, seed=101):
    """Bind a fresh seeded fault plan (fresh ``fail=N`` counters)."""
    config = ReproConfig(transport="tcp", fault_spec=spec, fault_seed=seed,
                         **FAST_RETRY)
    manager = ResilienceManager.from_config(config)
    manager.bind_transport(transport)
    return manager


def _host_counter(registry, address):
    site = registry.start_site(address)
    site.put("X", BasicTensorBlock.from_numpy(np.zeros((1, 1))))
    return site


def _increment(site):
    site.execute_and_store("X", "X", lambda b: ops.binary_scalar("+", b, 1.0))


class TestPartition:
    def test_partition_mid_request_is_replayed_not_reexecuted(
        self, transport, registry
    ):
        # the partition trips recv-side, AFTER the request reached the
        # worker — so the worker executes through the outage and the
        # reconnect's same-id resend must come back as a replay, never
        # run a second time.  Five increments through two partitions:
        # exactly 5.0, or the exactly-once story is broken.
        site = _host_counter(registry, "chaos-part:9001")
        before = transport.snapshot()
        _arm(transport, "net.partition:fail=2")
        for __ in range(5):
            _increment(site)
        transport.bind_resilience(None)
        assert site.fetch("X").to_numpy()[0, 0] == 5.0
        snap = transport.snapshot()
        assert snap["partitions"] == before["partitions"] + 2
        assert snap["reconnects"] >= before["reconnects"] + 2
        # "link down", not "peer dead": no kills, no respawns, no replay
        assert snap["worker_deaths"] == before["worker_deaths"]
        assert snap["worker_respawns"] == before["worker_respawns"]
        assert snap["replayed_publications"] == before["replayed_publications"]


class TestDuplicate:
    def test_duplicated_requests_are_absorbed_by_the_dedup_cache(
        self, transport, registry
    ):
        site = _host_counter(registry, "chaos-dup:9001")
        before = transport.snapshot()
        _arm(transport, "net.dup:fail=3")
        for __ in range(5):
            _increment(site)
        transport.bind_resilience(None)
        # three of the five increment frames arrived twice; the value
        # proves each executed once
        assert site.fetch("X").to_numpy()[0, 0] == 5.0
        snap = transport.snapshot()
        assert snap["frames_duplicated"] == before["frames_duplicated"] + 3
        assert snap["dedup_hits"] >= before["dedup_hits"] + 2


class TestCorrupt:
    def test_corrupt_frame_is_rejected_then_resent_over_a_fresh_link(
        self, transport, registry
    ):
        data = np.arange(8.0).reshape(2, 4)
        site = registry.start_site("chaos-corrupt:9001")
        site.put("X", BasicTensorBlock.from_numpy(data))
        before = transport.snapshot()
        _arm(transport, "net.corrupt:fail=1")
        # the worker's CRC check rejects the flipped frame and severs the
        # session; the coordinator redials and resends — no worker dies
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
        transport.bind_resilience(None)
        snap = transport.snapshot()
        assert snap["frames_corrupt_rejected"] == \
            before["frames_corrupt_rejected"] + 1
        assert snap["reconnects"] >= before["reconnects"] + 1
        assert snap["worker_deaths"] == before["worker_deaths"]


class TestDelay:
    def test_latency_injection_changes_timing_not_results(
        self, transport, registry
    ):
        site = _host_counter(registry, "chaos-delay:9001")
        _arm(transport, "net.delay_ms:latency_ms=1")
        for __ in range(3):
            _increment(site)
        transport.bind_resilience(None)
        assert site.fetch("X").to_numpy()[0, 0] == 3.0


class TestDrop:
    def test_dropped_request_is_resent_under_the_same_id(self):
        # a vanished frame is pure silence — recovery needs the request
        # timeout, so this test owns a transport with a short deadline
        t = ChaosTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                           request_timeout_s=0.5, reconnect_backoff_ms=1.0,
                           reconnect_backoff_max_ms=5.0)
        try:
            data = np.arange(6.0).reshape(3, 2)
            site = t.registry().start_site("chaos-drop:9001")
            site.put("X", BasicTensorBlock.from_numpy(data))
            before = t.snapshot()
            _arm(t, "net.drop:fail=1")
            np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
            t.bind_resilience(None)
            snap = t.snapshot()
            assert snap["frames_dropped"] == before["frames_dropped"] + 1
            assert snap["resent_requests"] >= before["resent_requests"] + 1
            assert snap["worker_deaths"] == before["worker_deaths"]
        finally:
            t.registry().clear()
            t.close()


class TestRouting:
    def test_spec_targets_network(self):
        assert spec_targets_network("net.partition:fail=2")
        assert spec_targets_network("fed.worker:fail=1;net.dup:p=0.1")
        assert spec_targets_network("*:p=0.01")
        assert not spec_targets_network("fed.worker:fail=1")
        assert not spec_targets_network("")
        assert not spec_targets_network(None)

    def test_for_config_picks_chaos_only_for_net_specs(self):
        plain = for_config(ReproConfig(transport="tcp"))
        assert type(plain) is ProcTransport
        chaos = for_config(ReproConfig(
            transport="tcp", fault_spec="net.dup:p=0.5", fault_seed=1
        ))
        assert type(chaos) is ChaosTransport
        # a non-network fault plan over tcp needs no interposer
        killer = for_config(ReproConfig(
            transport="tcp", fault_spec="fed.worker:fail=1", fault_seed=1
        ))
        assert type(killer) is ProcTransport


L2SVM_SCRIPT = """
Xf = federated(addresses=list("chaos-e2e-a:9001/X", "chaos-e2e-b:9001/X"),
               ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:10) {
  margin = Xf %*% w
  diff = margin - y
  grad = t(Xf) %*% diff
  w = w - (0.1 / nrow(Xf)) * grad
}
obj = sum(diff * diff)
"""


def _run_l2svm(config):
    rng = np.random.default_rng(59)
    rows, features = 80, 5
    data = rng.random((rows, features))
    labels = data @ rng.standard_normal((features, 1))
    split = rows // 2
    inputs = {
        "y": labels,
        "R1": np.asarray([[0.0, 0.0, float(split), float(features)]]),
        "R2": np.asarray([[float(split), 0.0, float(rows), float(features)]]),
    }
    registry = registry_for(config)
    registry.clear()
    registry.start_site("chaos-e2e-a:9001").put(
        "X", BasicTensorBlock.from_numpy(data[:split])
    )
    registry.start_site("chaos-e2e-b:9001").put(
        "X", BasicTensorBlock.from_numpy(data[split:])
    )
    try:
        ml = MLContext(config)
        result = ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"])
        return np.asarray(result.matrix("w")), ml
    finally:
        registry.clear()


class TestEndToEnd:
    def test_federated_l2svm_survives_seeded_partitions_bit_identically(self):
        # the acceptance bar: the same training loop, once in-process and
        # fault-free, once over chaos tcp with partitions + duplicated
        # frames landing mid-iteration — bitwise-equal weights, links
        # severed and repaired, zero peer deaths
        clean_w, __ = _run_l2svm(ReproConfig())
        chaos_w, ml = _run_l2svm(ReproConfig(
            transport="tcp", enable_stats=True,
            fault_spec="net.partition:fail=2;net.dup:fail=2",
            fault_seed=71, heartbeat_interval_s=0.1, **FAST_RETRY,
        ))
        assert np.array_equal(chaos_w, clean_w)
        section = ml.stats().snapshot()["transport"]
        assert section["mode"] == "chaos_tcp"
        assert section["partitions"] > 0
        assert section["reconnects"] > 0
        assert section["dedup_hits"] > 0
        assert section["worker_respawns"] == 0
