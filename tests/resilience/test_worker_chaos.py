"""Worker-death chaos: SIGKILL a scoring worker mid-batch, lose nothing.

The ``serve.worker`` fault point makes the parent SIGKILL a worker right
after sending it a batch (a true mid-batch death, not a graceful exit).
Recovery must respawn the worker, re-attach the shared weights (the
pool replays the logged init request), and resend the in-flight batch —
every request resolves with bit-identical results and zero drops, under
a seeded plan that replays the same death schedule on every run.  A
worker that is alive but wedged (SIGSTOP) is escalated by the transport
timeouts to the same recovery.
"""

import os
import signal

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import WorkerDiedError
from repro.resilience.manager import ResilienceManager
from repro.serving import ModelRegistry, ShardedScoringService

FEATURES = 6
SCRIPT = "yhat = X %*% B"


def _rig(fault_spec, seed=11, config=None, procs=2, **service_kwargs):
    rng = np.random.default_rng(3)
    b = rng.standard_normal((FEATURES, 1))
    registry = ModelRegistry(config)
    registry.register("lm", SCRIPT, weights={"B": b})
    resilience = ResilienceManager.from_config(
        ReproConfig(fault_spec=fault_spec, fault_seed=seed)
    )
    service = ShardedScoringService(registry, procs=procs,
                                    resilience=resilience, **service_kwargs)
    return registry, service, resilience, b


class TestSigkillMidBatch:
    def test_zero_drops_bit_identical(self):
        registry, service, resilience, b = _rig("serve.worker:fail=1")
        try:
            rng = np.random.default_rng(4)
            x = rng.standard_normal((30, FEATURES))
            with service:
                futures = [service.submit("lm", x[i:i + 1])
                           for i in range(len(x))]
                # zero drops: every future resolves despite the SIGKILL
                got = np.vstack([f.result(60.0) for f in futures])
                np.testing.assert_allclose(got, x @ b)
                # determinism: the resent batch recomputes the same bytes,
                # so a replay of one row is bit-identical to its result
                row = x[0:1]
                first = service.score("lm", row, timeout=60.0)
                second = service.score("lm", row, timeout=60.0)
                assert np.array_equal(first, second)
                snap = service.snapshot()
            workers = snap["workers"]
            deaths = sum(w["deaths"] for w in workers.values())
            respawns = sum(w["respawns"] for w in workers.values())
            resent = sum(w["resent_requests"] for w in workers.values())
            assert deaths == 1  # fail=1: exactly one seeded kill
            assert respawns == 1
            assert resent >= 1
            # the respawned incarnation re-attached + re-verified the
            # shared weights: attach counts cover procs + respawns
            attached = sum(w["shm_segments_attached"]
                           for w in workers.values())
            assert attached >= 3
        finally:
            registry.close()

    def test_resilience_counters_mirror_metrics(self):
        registry, service, resilience, b = _rig("serve.worker:fail=1")
        try:
            with service:
                got = service.score("lm", np.ones((2, FEATURES)),
                                    timeout=60.0)
                np.testing.assert_allclose(got, np.ones((2, FEATURES)) @ b)
            stats = resilience.stats.snapshot()
            assert stats["worker_deaths"] == 1
            assert stats["worker_respawns"] == 1
            assert stats["resent_requests"] >= 1
            assert stats["injected_by_point"]["serve.worker"] == 1
        finally:
            registry.close()

    def test_respawn_limit_fails_the_batch_not_the_plane(self):
        # the fault keeps killing the worker; after respawn_limit deaths
        # the batch fails loudly instead of respawning forever
        registry, service, resilience, b = _rig(
            "serve.worker:fail=4", respawn_limit=1
        )
        try:
            with service:
                future = service.submit("lm", np.ones((1, FEATURES)))
                with pytest.raises(WorkerDiedError):
                    future.result(120.0)
        finally:
            registry.close()

    def test_seeded_plan_replays_identically(self):
        # same spec + seed => the same single death on the same batch
        for _ in range(2):
            registry, service, resilience, b = _rig(
                "serve.worker:fail=1", seed=99
            )
            try:
                with service:
                    service.score("lm", np.ones((1, FEATURES)), timeout=60.0)
                stats = resilience.stats.snapshot()
                assert stats["worker_deaths"] == 1
                assert stats["injected_by_point"]["serve.worker"] == 1
            finally:
                registry.close()


class TestWedgedWorker:
    def test_sigstop_mid_batch_is_killed_respawned_and_resent(self):
        # alive but silent: no EOF ever arrives, only the heartbeat +
        # request-timeout escalation can recover the batch
        config = ReproConfig(
            enable_lineage=True, reuse_policy="full",
            heartbeat_interval_s=0.1, transport_request_timeout_s=1.0,
        )
        registry, service, resilience, b = _rig(None, config=config, procs=1)
        try:
            row = np.random.default_rng(5).standard_normal((3, FEATURES))
            with service:
                before = service.score("lm", row, timeout=60.0)
                pid = service._pool._pools["score"][0].pid
                os.kill(pid, signal.SIGSTOP)
                try:
                    after = service.score("lm", row, timeout=60.0)
                finally:
                    try:
                        os.kill(pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass  # the wedge-kill already reaped it
                snap = service.snapshot()
            assert np.array_equal(before, after)
            np.testing.assert_allclose(after, row @ b)
            assert snap["transport"]["heartbeats_missed"] > 0
            worker = snap["workers"]["0"]
            assert worker["deaths"] == 1
            assert worker["respawns"] == 1
            assert service._pool._pools["score"][0] is None  # drained
        finally:
            registry.close()


class TestDuplicateDelivery:
    def test_resent_score_id_is_replayed_not_rescored(self):
        from repro.net import serde
        from repro.serving.workers import _score

        registry, service, resilience, b = _rig(None, procs=1)
        try:
            with service:
                pool = service._pool

                def count_scores(state):
                    model = state["models"].get("lm")
                    inner, calls = model.score_batch, []
                    state["score_calls"] = calls

                    def counting(features):
                        calls.append(len(features))
                        return inner(features)

                    model.score_batch = counting

                pool.round_trip("score", 0, ("call", count_scores, ()))
                x = np.ones((2, FEATURES))
                body = serde.dumps(("call", _score, ("lm", 1, x)))
                with pool._slot_locks["score"][0]:
                    handle = pool._ensure("score", 0)
                    request_id = pool._next_id()
                    hits_before = service.snapshot()["transport"]["dedup_hits"]
                    first = pool._attempt(handle, request_id, body)
                    # a duplicate delivery / resend after a lost ACK carries
                    # the SAME id: the worker answers from its dedup cache
                    second = pool._attempt(handle, request_id, body)
                assert np.array_equal(first, second)
                np.testing.assert_allclose(first, x @ b)
                snap = service.snapshot()
                assert snap["transport"]["dedup_hits"] == hits_before + 1
                scored = pool.round_trip(
                    "score", 0,
                    ("call", lambda state: list(state["score_calls"]), ()),
                )
                assert scored == [2]  # one execution for two deliveries
        finally:
            registry.close()
