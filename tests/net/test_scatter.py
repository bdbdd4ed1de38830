"""Scatter/gather site calls: every slot in flight at once, results as if
the calls had run one by one.

Real worker processes over the one socket transport, built twice: ``proc``
with the default link-repair backoff, ``tcp`` with a fast one. Each is
shared by the module's tests (a Python+numpy spawn per test would dominate).
"""

import socket
import threading

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.federated import instructions as fed_ops
from repro.federated.site import FederatedWorkerRegistry
from repro.federated.tensor import (
    FederatedPartition,
    FederatedRange,
    FederatedTensor,
)
from repro.net import registry_for
from repro.net.proc import ProcTransport, RemoteSiteProxy
from repro.net.transport import STAT_KEYS, InProcTransport, for_config
from repro.tensor import BasicTensorBlock
from repro.types import Direction

_FAST = {"site_workers": 2, "task_workers": 1, "heartbeat_s": 0.1,
         "request_timeout_s": 20.0}


@pytest.fixture(scope="module")
def proc():
    t = ProcTransport(**_FAST)
    yield t
    t.close()


@pytest.fixture(scope="module")
def tcp():
    t = ProcTransport(reconnect_backoff_ms=1.0, reconnect_backoff_max_ms=5.0,
                      **_FAST)
    yield t
    t.close()


@pytest.fixture(params=["proc", "tcp"])
def transport(request):
    t = request.getfixturevalue(request.param)
    yield t
    t.registry().clear()


def _addresses_on(transport, slots, prefix):
    """One address per entry of ``slots``, each owned by that fed slot."""
    found, candidate = [], 0
    for slot in slots:
        while transport._owner(f"{prefix}-{candidate}:9001") != slot:
            candidate += 1
        found.append(f"{prefix}-{candidate}:9001")
        candidate += 1
    return found


def _federate(registry, addresses, data):
    """Row-split ``data`` over ``addresses``; the federated tensor of it."""
    bounds = np.linspace(0, data.shape[0], len(addresses) + 1).astype(int)
    partitions = []
    for address, r0, r1 in zip(addresses, bounds[:-1], bounds[1:]):
        site = registry.start_site(address)
        site.put("X", BasicTensorBlock.from_numpy(data[r0:r1]))
        partitions.append(FederatedPartition(
            site, "X", FederatedRange((int(r0), 0), (int(r1), data.shape[1]))
        ))
    return FederatedTensor(partitions)


def _every_op(fed, rng_seed=3):
    """Each federated operation once; local results, in a fixed order."""
    rng = np.random.default_rng(rng_seed)
    rows, cols = fed.shape
    right = BasicTensorBlock.from_numpy(rng.standard_normal((cols, 3)))
    tall = BasicTensorBlock.from_numpy(rng.standard_normal((rows, 2)))
    same = BasicTensorBlock.from_numpy(rng.standard_normal((rows, cols)))
    results = [
        fed_ops.collect_federated(fed),
        fed_ops.fed_tsmm(fed),
        fed_ops.fed_tmm(fed, tall),
        fed_ops.collect_federated(fed_ops.fed_matmult(fed, right)),
        fed_ops.collect_federated(fed_ops.fed_elementwise_scalar("*", fed, 1.7)),
        fed_ops.collect_federated(fed_ops.fed_binary_rowsliced("+", fed, same)),
    ]
    for op in ("sum", "mean", "min", "max"):
        for direction in (Direction.COL, Direction.FULL, Direction.ROW):
            results.append(fed_ops.fed_aggregate(op, fed, direction))
    return [r.to_numpy() if isinstance(r, BasicTensorBlock) else np.float64(r)
            for r in results]


class TestAliasedSlots:
    def test_three_sites_on_two_workers_match_inproc_bitwise(self, transport):
        # two of the three addresses share a slot: their requests keep the
        # one-in-flight rule while the third site's runs alongside
        data = np.random.default_rng(7).standard_normal((90, 6))
        addresses = _addresses_on(transport, [0, 1, 0], "alias")
        before = transport.snapshot()["scattered_requests"]
        remote = _every_op(_federate(transport.registry(), addresses, data))
        local = _every_op(_federate(FederatedWorkerRegistry(), addresses, data))
        for got, want in zip(remote, local):
            np.testing.assert_array_equal(got, want)
        assert transport.snapshot()["scattered_requests"] > before

    def test_replies_come_back_in_call_order(self, transport):
        a, b = _addresses_on(transport, [0, 1], "order")
        for value, address in enumerate((a, b)):
            transport.registry().start_site(address).put(
                "X", BasicTensorBlock.from_numpy(np.full((1, 1), float(value)))
            )
        # b, a, b, a: two calls per slot, interleaved
        replies = transport.site_calls(
            [(address, "fetch", ("X",), None, False) for address in (b, a, b, a)]
        )
        assert [r.to_numpy()[0, 0] for r in replies] == [1.0, 0.0, 1.0, 0.0]

    def test_a_failed_call_raises_after_the_others_were_awaited(self, transport):
        a, b = _addresses_on(transport, [0, 1], "fail")
        for address in (a, b):
            transport.registry().start_site(address).put(
                "X", BasicTensorBlock.from_numpy(np.zeros((1, 1)))
            )

        def add_one(block):
            return BasicTensorBlock.from_numpy(block.to_numpy() + 1.0)

        site_a, site_b = (transport.registry().site(x) for x in (a, b))
        with pytest.raises(Exception, match="unknown tensor"):
            fed_ops._call_sites(None, [
                (site_a, "fetch", ("missing",)),
                (site_b, "execute_and_store", ("X", "X", add_one, 0, 0)),
            ])
        # b's mutation was in flight when a failed: it was awaited and
        # logged, so the next round trip reads a clean socket
        assert site_b.fetch("X").to_numpy()[0, 0] == 1.0
        log = transport._log[("fed", transport._owner(b))][b]
        assert sum(1 for r in log if r[2] == "execute_and_store") == 1


class TestFailedSpawnMidScatter:
    def test_sent_requests_are_awaited_before_the_spawn_error(self, monkeypatch):
        transport = ProcTransport(**_FAST)
        try:
            a, b = _addresses_on(transport, [0, 1], "spawn")
            site_a = transport.registry().start_site(a)  # spawns slot 0 only
            spawn = transport._spawn

            def refused(role, index, incarnation):
                if (role, index) == ("fed", 1):
                    raise ConnectionRefusedError("worker refused the dial")
                return spawn(role, index, incarnation)

            monkeypatch.setattr(transport, "_spawn", refused)
            block = BasicTensorBlock.from_numpy(np.ones((1, 1)))
            with pytest.raises(ConnectionRefusedError):
                fed_ops._call_sites(None, [
                    (site_a, "put", ("Y", block, None)),
                    (RemoteSiteProxy(transport, b), "has", ("X",)),
                ])
            # slot 0's mutation was in flight: awaited and logged
            log = transport._log[("fed", 0)][a]
            assert [r[2:4] for r in log if r[2] == "put"] == [("put", ("Y", block, None))]
            assert transport.round_trip(
                "fed", 0, ("site", a, "has", ("Y",), {})) is True
        finally:
            transport.close()

    def test_on_reply_sees_every_position(self, transport):
        a, b = _addresses_on(transport, [0, 1], "reply")
        for address in (a, b):
            transport.registry().start_site(address)
        seen = []
        replies = transport.site_calls(
            [(address, "has", ("X",), None, False) for address in (b, a, b)],
            seen.append,
        )
        assert replies == [False, False, False]
        assert sorted(seen) == [0, 1, 2]


class TestSeveredLinkMidScatter:
    def test_reconnects_and_resends_the_same_id_without_respawn(self, tcp):
        registry = tcp.registry()
        a, b = _addresses_on(tcp, [0, 1], "sever")
        sites = []
        for address in (a, b):
            site = registry.start_site(address)
            site.put("X", BasicTensorBlock.from_numpy(np.ones((2, 2))))
            sites.append(site)

        def slow_double(block):
            import time as _time

            _time.sleep(1.0)
            return BasicTensorBlock.from_numpy(block.to_numpy() * 2.0)

        executed = [site.metrics["requests"] for site in sites]
        before = tcp.snapshot()
        # slot 1 is awaited second: its link dies while slot 0 is awaited
        handle = tcp._pools["fed"][1]
        timer = threading.Timer(
            0.2, lambda: handle.sock.shutdown(socket.SHUT_RDWR)
        )
        timer.start()
        try:
            replies = tcp.site_calls([
                (address, "execute_and_return", ("X", slow_double, 0, 0), None, False)
                for address in (a, b)
            ])
            executed = [site.metrics["requests"] - n
                        for site, n in zip(sites, executed)]
        finally:
            timer.cancel()
            timer.join(timeout=5.0)
            registry.clear()
        for reply in replies:
            np.testing.assert_array_equal(reply.to_numpy(), np.full((2, 2), 2.0))
        snap = tcp.snapshot()
        assert snap["reconnects"] == before["reconnects"] + 1
        assert snap["worker_deaths"] == before["worker_deaths"]
        assert snap["worker_respawns"] == before["worker_respawns"]
        # the worker ran through the outage: the resend was answered from
        # its dedup cache, and each site executed its operation once
        assert snap["dedup_hits"] == before["dedup_hits"] + 1
        assert executed == [1, 1]


class TestConcurrentScatters:
    def test_opposite_partition_orders_do_not_deadlock(self, transport):
        a, b = _addresses_on(transport, [0, 1], "order")
        for address in (a, b):
            transport.registry().start_site(address).put(
                "X", BasicTensorBlock.from_numpy(np.ones((1, 1)))
            )
        rounds, failures = 30, []

        def scatter(order):
            try:
                for __ in range(rounds):
                    replies = transport.site_calls(
                        [(address, "has", ("X",), None, False) for address in order]
                    )
                    assert replies == [True, True]
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=scatter, args=(order,), daemon=True)
                   for order in ((a, b), (b, a), (a, b), (b, a))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert failures == []


L2SVM = """
Xf = federated(addresses=list("%s/X", "%s/X"), ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:4) {
  margin = Xf %%*%% w
  grad = t(Xf) %%*%% (margin - y)
  w = w - (0.1 / nrow(Xf)) * grad
}
"""


def _run_l2svm(config):
    rng = np.random.default_rng(21)
    data = rng.random((40, 4))
    registry = registry_for(config)
    registry.clear()
    transport = for_config(config) or InProcTransport()
    # two addresses on different workers (any two, in process)
    if isinstance(transport, ProcTransport):
        addresses = _addresses_on(transport, [0, 1], "obs")
    else:
        addresses = ["obs-0:9001", "obs-1:9001"]
    for address, part in zip(addresses, (data[:20], data[20:])):
        registry.start_site(address).put("X", BasicTensorBlock.from_numpy(part))
    before = transport.snapshot()["scattered_requests"]
    try:
        result = MLContext(config).execute(
            L2SVM % tuple(addresses),
            inputs={"y": data @ np.ones((4, 1)),
                    "R1": np.asarray([[0.0, 0.0, 20.0, 4.0]]),
                    "R2": np.asarray([[20.0, 0.0, 40.0, 4.0]])},
            outputs=["w"],
        )
        w = result.matrix("w")
        result.close()
    finally:
        registry.clear()
    return w, transport.snapshot()["scattered_requests"] - before


class TestScatteredRequestsCounter:
    def test_is_a_stable_stat_key(self):
        assert "scattered_requests" in STAT_KEYS
        assert InProcTransport().snapshot()["scattered_requests"] == 0

    def test_counts_tcp_scatters_and_nothing_else(self):
        try:
            inproc_w, inproc_n = _run_l2svm(ReproConfig())
            tcp_w, tcp_n = _run_l2svm(ReproConfig(transport="tcp"))
            # a bound channel wraps the batch: the same scatter
            bound_w, bound_n = _run_l2svm(
                ReproConfig(transport="tcp", enable_resilience=True)
            )
        finally:
            ProcTransport.default().close()
        assert inproc_n == 0
        assert tcp_n > 0
        assert bound_n > 0
        np.testing.assert_array_equal(tcp_w, inproc_w)
        np.testing.assert_array_equal(bound_w, inproc_w)


def _hosted(transport, address):
    """Names the worker-side site at ``address`` hosts right now."""
    return transport.round_trip(
        "fed", transport._owner(address),
        ("call", lambda state, a: sorted(state["sites"].site(a)._data), (address,)),
    )


class TestSiteTempsDroppedOnClose:
    SWEEPS = """
Xf = federated(addresses=list("%s/X", "%s/X"), ranges=list(R1, R2))
w = matrix(0.5, ncol(Xf), 1)
for (i in 1:10) {
  scaled = (Xf * 2) %%*%% w
  w = w - 0.001 * (t(Xf) %%*%% (scaled - y))
}
"""

    def test_sites_and_log_keep_only_the_publications(self):
        config = ReproConfig(transport="tcp")
        transport = for_config(config)
        registry = transport.registry()
        registry.clear()
        try:
            addresses = _addresses_on(transport, [0, 1], "temps")
            data = np.random.default_rng(5).random((40, 4))
            for address, part in zip(addresses, (data[:20], data[20:])):
                registry.start_site(address).put(
                    "X", BasicTensorBlock.from_numpy(part))
            result = MLContext(config).execute(
                self.SWEEPS % tuple(addresses),
                inputs={"y": data @ np.ones((4, 1)),
                        "R1": np.asarray([[0.0, 0.0, 20.0, 4.0]]),
                        "R2": np.asarray([[20.0, 0.0, 40.0, 4.0]])},
                outputs=["w"],
            )
            w = result.matrix("w")
            assert np.isfinite(w).all()
            # 10 sweeps x 3 stored intermediates (Xf * 2, its product with
            # w, the difference to y), all still hosted
            for address in addresses:
                assert len(_hosted(transport, address)) == 1 + 30
            frames_open = transport.snapshot()["frames_sent"]
            result.close()
            # one drop frame per site for the whole context
            assert transport.snapshot()["frames_sent"] == frames_open + 2
            for address in addresses:
                assert _hosted(transport, address) == ["X"]
                log = transport._log[("fed", transport._owner(address))][address]
                assert [r[:3] for r in log] == [
                    ("reg", "start_site", (address,)),
                    ("site", address, "put"),
                ]
            # a respawn replays the publications and nothing else
            before = transport.snapshot()
            victim = transport._pools["fed"][0]
            victim.kill()
            victim.process.join(timeout=10.0)
            assert _hosted(transport, addresses[0]) == ["X"]
            snap = transport.snapshot()
            assert snap["worker_respawns"] == before["worker_respawns"] + 1
            assert snap["replayed_publications"] == \
                before["replayed_publications"] + 2
        finally:
            registry.clear()
            transport.close()
