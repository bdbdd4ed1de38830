"""The tcp transport end to end: dialable addresses, severed links,
reconnects, and worker lifetimes.

These tests spawn actual OS processes (spawn context), so they share one
module-scoped transport with a fast heartbeat and near-zero reconnect
backoff instead of paying a Python+numpy interpreter start per test.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.config import ReproConfig
from repro.errors import FrameProtocolError, TransportError
from repro.net import pool as pool_mod
from repro.net.chaos import ChaosTransport
from repro.net.pool import WorkerPool
from repro.net.proc import ProcTransport
from repro.tensor import BasicTensorBlock
from repro.tensor import ops


@pytest.fixture(scope="module")
def transport():
    t = ProcTransport(site_workers=2, task_workers=1, heartbeat_s=0.1,
                     request_timeout_s=20.0, reconnect_backoff_ms=1.0,
                     reconnect_backoff_max_ms=5.0)
    yield t
    t.close()


@pytest.fixture
def registry(transport):
    reg = transport.registry()
    yield reg
    reg.clear()


def _host(registry, address, data, name="X"):
    site = registry.start_site(address)
    site.put(name, BasicTensorBlock.from_numpy(np.asarray(data, dtype=float)))
    return site


def _sever(handle):
    """Cut the coordinator->worker link without touching the worker."""
    handle.sock.shutdown(socket.SHUT_RDWR)


class TestAddressRegistry:
    def test_workers_register_dialable_addresses(self, transport, registry):
        _host(registry, "tcp-a:9001", np.ones((2, 2)))
        owner = transport._owner("tcp-a:9001")
        address = transport.snapshot()["addresses"][f"fed-{owner}"]
        host, port = address.rsplit(":", 1)
        port = int(port)
        assert port > 0
        # the address book entry is genuinely dialable
        probe = socket.create_connection((host, port), timeout=5.0)
        probe.close()

    def test_snapshot_surfaces_the_address_book(self, transport, registry):
        _host(registry, "tcp-b:9001", np.ones((2, 2)))
        snap = transport.snapshot()
        assert snap["mode"] == "tcp"
        owner = transport._owner("tcp-b:9001")
        assert f"fed-{owner}" in snap["addresses"]
        host, port = snap["addresses"][f"fed-{owner}"].rsplit(":", 1)
        assert int(port) > 0

    def test_handles_carry_their_service_address(self, transport, registry):
        _host(registry, "tcp-c:9001", np.ones((2, 2)))
        owner = transport._owner("tcp-c:9001")
        handle = transport._pools["fed"][owner]
        assert transport.snapshot()["addresses"][f"fed-{owner}"] == \
            f"{handle.host}:{handle.port}"


class TestRoundTrips:
    def test_put_fetch_round_trip(self, registry):
        data = np.arange(12.0).reshape(3, 4)
        site = _host(registry, "tcp-d:9001", data)
        assert site.has("X")
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)

    def test_task_runs_in_another_process(self, transport):
        assert transport.run_task(lambda: [os.getpid()])[0] != os.getpid()

    def test_worker_side_exception_is_typed(self, transport):
        def explode():
            raise ValueError("boom over tcp")

        with pytest.raises(ValueError, match="boom over tcp"):
            transport.run_task(explode)


class TestLinkDownVsPeerDead:
    def test_severed_link_reconnects_without_respawn(self, transport, registry):
        data = np.arange(20.0).reshape(5, 4)
        site = _host(registry, "tcp-sever:9001", data)
        owner = transport._owner("tcp-sever:9001")
        handle = transport._pools["fed"][owner]
        pid_before = handle.pid
        before = transport.snapshot()
        _sever(handle)
        # the next call hits the dead link, redials, and resends — the
        # worker process (and its hosted state) is untouched
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)
        snap = transport.snapshot()
        assert snap["reconnects"] > before["reconnects"]
        assert snap["worker_deaths"] == before["worker_deaths"]
        assert snap["worker_respawns"] == before["worker_respawns"]
        assert snap["replayed_publications"] == before["replayed_publications"]
        assert transport._pools["fed"][owner].pid == pid_before

    def test_mutation_across_severed_link_executes_exactly_once(
        self, transport, registry
    ):
        site = _host(registry, "tcp-once:9001", np.zeros((1, 1)))
        owner = transport._owner("tcp-once:9001")
        for __ in range(3):
            _sever(transport._pools["fed"][owner])
            site.execute_and_store(
                "X", "X", lambda b: ops.binary_scalar("+", b, 1.0)
            )
        # three increments through three severed links: exactly 3.0
        assert site.fetch("X").to_numpy()[0, 0] == 3.0

    def test_dead_peer_respawns_at_a_fresh_address_and_replays(
        self, transport, registry
    ):
        data = np.arange(6.0).reshape(2, 3)
        site = _host(registry, "tcp-kill:9001", data)
        site.execute_and_store(
            "X", "Y", lambda b: ops.binary_scalar("+", b, 1.0)
        )
        owner = transport._owner("tcp-kill:9001")
        handle = transport._pools["fed"][owner]
        pid_before, addr_before = handle.pid, (handle.host, handle.port)
        before = transport.snapshot()
        handle.kill()
        handle.process.join(timeout=10.0)
        np.testing.assert_array_equal(site.fetch("Y").to_numpy(), data + 1.0)
        snap = transport.snapshot()
        assert snap["worker_deaths"] == before["worker_deaths"] + 1
        assert snap["worker_respawns"] == before["worker_respawns"] + 1
        assert snap["replayed_publications"] >= before["replayed_publications"] + 3
        fresh = transport._pools["fed"][owner]
        assert fresh.pid != pid_before
        assert (fresh.host, fresh.port) != addr_before
        assert transport.snapshot()["addresses"][f"fed-{owner}"] == \
            f"{fresh.host}:{fresh.port}"


class TestLifecycle:
    def test_bye_drains_workers_gracefully(self):
        t = ProcTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                          request_timeout_s=20.0)
        reg = t.registry()
        _host(reg, "tcp-drain:9001", np.ones((2, 2)))
        procs = [h.process for pool in t._pools.values()
                 for h in pool if h is not None]
        assert procs
        t.close()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()

    def test_default_singleton_is_config_keyed(self):
        # a plain default() and a default-config default() must agree...
        a = ProcTransport.default()
        b = ProcTransport.default(ReproConfig(transport="tcp"))
        assert a is b
        # ...and the plain and chaos singletons never alias each other
        assert ChaosTransport.default() is not ProcTransport.default()
        # changed transport knobs rebuild the singleton
        c = ProcTransport.default(
            ReproConfig(transport="tcp", heartbeat_interval_s=0.11)
        )
        assert c is not b
        assert c.heartbeat_s == 0.11
        c.close()
        ChaosTransport.default().close()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_the_coordinator_is_killed(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _COORDINATOR], stdout=subprocess.PIPE,
            env=env,
        )
        pids = []
        try:
            pids = json.loads(coordinator.stdout.readline())
            assert len(pids) == 2 and all(map(_running, pids))
            coordinator.kill()
            coordinator.wait(timeout=10.0)
            # the workers' heartbeat is 0.1 s: ten windows is plenty
            deadline = time.monotonic() + 1.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(_running, pids))
        finally:
            coordinator.kill()
            coordinator.wait(timeout=10.0)
            coordinator.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("failure", ["ready", "dial", "pid"])
    def test_a_failed_spawn_leaves_no_process(self, monkeypatch, failure):
        if failure == "ready":
            def unreadable(sock, who):
                raise FrameProtocolError(f"{who}: injected bad READY")

            monkeypatch.setattr(pool_mod, "recv_ready", unreadable)
        elif failure == "dial":
            def refused(self, host, port):
                raise ConnectionRefusedError(f"{host}:{port} injected")

            monkeypatch.setattr(WorkerPool, "_dial", refused)
        else:
            dial = WorkerPool._dial

            def stranger(self, host, port):
                sock, pid = dial(self, host, port)
                return sock, pid + 1

            monkeypatch.setattr(WorkerPool, "_dial", stranger)
        before = set(multiprocessing.active_children())
        pool = WorkerPool({"rdd": 1}, heartbeat_s=0.1, respawn_limit=1)
        try:
            with pytest.raises((TransportError, OSError)):
                pool.round_trip("rdd", 0, ("task", list))
        finally:
            pool.close()
        assert set(multiprocessing.active_children()) <= before


_COORDINATOR = """
import json
import time

from repro.net.proc import ProcTransport

transport = ProcTransport(site_workers=1, task_workers=1, heartbeat_s=0.1)
transport.registry().start_site("orphan:9001")
transport.run_task(list)
print(json.dumps([handle.pid for pool in transport._pools.values()
                  for handle in pool]), flush=True)
time.sleep(120)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
