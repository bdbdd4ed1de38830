"""ProcTransport (the tcp transport) end to end: real worker processes,
kills, replay, dedup.

These tests spawn actual OS processes (spawn context), so they share one
module-scoped transport with a fast heartbeat instead of paying a
Python+numpy interpreter start per test.
"""

import os
import signal

import numpy as np
import pytest

from repro.errors import WorkerRespawnError
from repro.net import frames, serde
from repro.net.proc import ProcTransport
from repro.net.worker import STATUS_OK, STATUS_REPLAY
from repro.tensor import BasicTensorBlock
from repro.tensor import ops


@pytest.fixture(scope="module")
def transport():
    t = ProcTransport(site_workers=2, task_workers=1, heartbeat_s=0.1,
                      request_timeout_s=20.0)
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


class TestSiteOps:
    def test_put_fetch_round_trip(self, registry):
        data = np.arange(12.0).reshape(3, 4)
        site = _host(registry, "proc-a:9001", data)
        assert site.has("X")
        np.testing.assert_array_equal(site.fetch("X").to_numpy(), data)

    def test_execute_and_store_fuses_compute_and_host(self, transport, registry):
        site = _host(registry, "proc-b:9001", np.ones((4, 3)))
        meta = site.execute_and_store("X", "Y", lambda b: ops.binary_scalar("*", b, 3.0))
        assert meta["shape"] == (4, 3)
        np.testing.assert_array_equal(
            site.fetch("Y").to_numpy(), np.full((4, 3), 3.0)
        )

    def test_metrics_account_worker_side(self, registry):
        site = _host(registry, "proc-c:9001", np.ones((2, 2)))
        before = site.metrics["requests"]
        site.fetch("X")
        after = site.metrics["requests"]
        assert after == before + 1
        assert site.metrics["bytes_sent"] > 0

    def test_frames_and_bytes_are_counted(self, transport, registry):
        snap_before = transport.snapshot()
        _host(registry, "proc-d:9001", np.ones((2, 2)))
        snap_after = transport.snapshot()
        assert snap_after["frames_sent"] > snap_before["frames_sent"]
        assert snap_after["bytes_sent"] > snap_before["bytes_sent"]
        assert snap_after["mode"] == "tcp"


class TestTasks:
    def test_closure_task_runs_in_worker(self, transport):
        weights = np.asarray([1.0, 2.0, 3.0])
        records = transport.run_task(lambda: list(weights * 2))
        np.testing.assert_array_equal(records, [2.0, 4.0, 6.0])

    def test_worker_side_exception_is_typed(self, transport):
        def explode():
            raise ValueError("boom from the worker")

        with pytest.raises(ValueError, match="boom from the worker"):
            transport.run_task(explode)

    def test_task_worker_is_another_process(self, transport):
        assert transport.run_task(lambda: [os.getpid()])[0] != os.getpid()


class TestKillRespawnReplay:
    def test_sigkill_respawns_and_replays_publications(self, transport, registry):
        data = np.arange(20.0).reshape(5, 4)
        site = _host(registry, "proc-kill:9001", data)
        site.execute_and_store("X", "Y", lambda b: ops.binary_scalar("+", b, 1.0))
        owner = transport._owner("proc-kill:9001")
        handle = transport._pools["fed"][owner]
        deaths_before = transport.snapshot()["worker_deaths"]
        os.kill(handle.pid, signal.SIGKILL)
        handle.process.join(timeout=10.0)
        # the very next call detects the death, respawns the worker, and
        # replays the publication log -- bit-identical state
        np.testing.assert_array_equal(site.fetch("Y").to_numpy(), data + 1.0)
        snap = transport.snapshot()
        assert snap["worker_deaths"] == deaths_before + 1
        assert snap["worker_respawns"] >= 1
        assert snap["replayed_publications"] >= 3  # start_site + put + store

    def test_repeated_deaths_exhaust_the_respawn_limit(self):
        t = ProcTransport(site_workers=1, task_workers=1, heartbeat_s=0.1,
                          request_timeout_s=20.0, respawn_limit=1)
        try:
            registry = t.registry()
            site = _host(registry, "proc-doomed:9001", np.ones((2, 2)))

            class AlwaysKill:
                """A resilience stub whose fault point always trips."""

                class stats:
                    @staticmethod
                    def incr(name, amount=1):
                        pass

                @staticmethod
                def trip(point):
                    return point == "fed.worker"

            t.bind_resilience(AlwaysKill())

            def slow_op(b):
                # slow enough that the SIGKILL always lands mid-execution
                # (a fast op could answer before the kill, which is exactly
                # the invisibility the respawn path provides)
                import time

                time.sleep(0.5)
                return b

            with pytest.raises(WorkerRespawnError) as excinfo:
                site.execute_local("X", slow_op)
            assert excinfo.value.role == "fed"
            assert excinfo.value.deaths == 2  # first + the one respawn
        finally:
            t.close()


class TestIdempotentDedup:
    def test_same_request_id_replays_instead_of_double_executing(
        self, transport, registry
    ):
        site = _host(registry, "proc-dedup:9001", np.ones((3, 3)))
        owner = transport._owner("proc-dedup:9001")
        with transport._slot_locks["fed"][owner]:
            handle = transport._ensure("fed", owner)
            request = ("site", "proc-dedup:9001", "execute_and_store",
                       ("X", "Z", lambda b: ops.binary_scalar("*", b, 2.0), 0, 0),
                       {})
            body = serde.dumps(request)
            request_id = transport._next_id()
            executed_before = site.metrics["requests"]
            dedup_before = transport.snapshot()["dedup_hits"]
            first = transport._attempt(handle, request_id, body)
            # a retry after a lost ACK resends the SAME id: the worker must
            # replay the recorded response, not run the op again
            second = transport._attempt(handle, request_id, body)
        assert first == second
        assert transport.snapshot()["dedup_hits"] == dedup_before + 1
        # the worker-side site saw exactly one execute (plus metric reads)
        executed_after = site.metrics["requests"]
        assert executed_after == executed_before + 1

    def test_worker_replay_prefix_on_the_wire(self):
        # white-box: the dedup cache tags replayed responses STATUS_REPLAY
        assert STATUS_OK != STATUS_REPLAY
        assert frames.RES in frames.KINDS
