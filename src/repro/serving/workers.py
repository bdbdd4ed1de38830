"""Multi-process scoring: the sharded serving data plane.

:class:`ShardedScoringService` keeps the single-process front end — the
same ``submit``/``score`` admission path, bounded queue, deadlines,
per-tenant QoS, breakers, and load shedding — but executes batches in N
OS worker *processes*, so scoring escapes the GIL.  The processes are the
``score`` role of a :class:`repro.net.pool.WorkerPool`, the supervisor
federated sites and RDD executors also run on (DESIGN.md §13), so this
module holds no process, queue or liveness code of its own:

* at ``start()`` the parent publishes every registered model's weights
  into content-addressed shared memory (:mod:`repro.io.shm`) and sends
  each worker slot one *init* request, logged for replay; the worker
  attaches the segments zero-copy, checksum-verifies them, recompiles
  the scoring scripts locally, and replies with its attach counts;
* models route to shards by ``crc32(model) % shards`` (the
  :class:`~repro.serving.batcher.MicroBatcher`'s shard routing), and one
  parent loop per shard forms batches with ``take(shard=...)`` and
  round-trips each to its worker — one in-flight batch per worker;
* a worker death (SIGKILL, crash, or a wedge past the transport request
  timeout) is recovered by the pool: respawn, replay of the init request
  against the same shared segments, and a same-id *resend* of the
  in-flight batch.  Scoring is deterministic, so the resend is
  bit-identical: zero requests are dropped, no request observes the
  death.  Past ``respawn_limit`` deaths on one batch, that batch — not
  the plane — fails with :class:`~repro.errors.WorkerDiedError`;
* the ``serve.worker`` fault point turns the death path into a seeded
  chaos experiment: when its rule trips after a batch is sent, the pool
  SIGKILLs the worker mid-batch.

Heartbeat and timeout values come from the registry config's transport
fields (``heartbeat_interval_s``, ``heartbeat_miss_grace``,
``transport_request_timeout_s``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.errors import ServingError, WorkerDiedError, WorkerRespawnError
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import QosController
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService


def _attach_models(state: dict, entries, config) -> dict:
    """Worker side of the init request: rebuild the model registry over
    the parent's shared-memory weights; returns the attach counts."""
    from repro.io import shm

    # this worker shares the parent's resource tracker (spawn inherits it);
    # the parent's registration is the one that must survive
    shm.UNTRACK_ON_ATTACH = False
    store = state["store"] = shm.SharedWeightStore(scavenge=False)
    state["models"] = ModelRegistry.from_shared(entries, store, config)
    counts = store.snapshot()
    return {"segments": counts["attached"], "verified": counts["verified"]}


def _score(state: dict, name: str, version: int, features: np.ndarray):
    """Worker side of one batch."""
    return state["models"].get(name, version).score_batch(features)


class ShardedScoringService(ScoringService):
    """A :class:`ScoringService` whose batches execute in worker processes.

    ``procs`` is both the worker count and the shard count: every model
    lives on exactly one worker, so its per-process plan/reuse caches
    stay hot.  The admission path (queue bound, deadlines, QoS, shed
    watermark, breakers) is inherited unchanged — only batch execution
    crosses the process boundary.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        procs: int = 2,
        queue_limit: int = 256,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        batching: bool = True,
        default_timeout: Optional[float] = 30.0,
        metrics: Optional[ServingMetrics] = None,
        resilience=None,
        qos: Optional[QosController] = None,
        respawn_limit: int = 3,
    ):
        if procs < 1:
            raise ServingError("procs must be >= 1")
        super().__init__(
            registry, workers=1, queue_limit=queue_limit,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            batching=batching, default_timeout=default_timeout,
            metrics=metrics, resilience=resilience, qos=qos, shards=procs,
        )
        self.procs = procs
        self.respawn_limit = respawn_limit
        self._store = None
        self._pool = None

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardedScoringService":
        if self._started:
            return self
        from repro.io.shm import SharedWeightStore
        from repro.net.pool import WorkerPool

        config = self.registry.config
        self._store = SharedWeightStore()
        self._pool = WorkerPool(
            {"score": self.procs}, respawn_limit=self.respawn_limit,
            **WorkerPool.params_from(config),
        )
        self._pool.bind_resilience(self.resilience)
        try:
            # workers must not re-inject the parent's faults or share its
            # spill directory; everything else (lineage reuse, kernels)
            # carries over
            init = ("call", _attach_models, (
                self.registry.share_weights(self._store),
                config.copy(spill_dir=None, fault_spec=None,
                            enable_resilience=False),
            ))
            # one thread per slot, so the workers spawn and compile in
            # parallel; the logged init is what a respawn replays
            with ThreadPoolExecutor(self.procs) as executor:
                attaches = list(executor.map(
                    lambda shard: self._pool.round_trip(
                        "score", shard, init, topic="init"),
                    range(self.procs),
                ))
        except BaseException:
            # a worker failed to bootstrap: leave no sibling alive and no
            # segment linked
            self._release()
            raise
        for shard, attach in enumerate(attaches):
            self.metrics.record_worker_attach(shard, **attach)
        return super().start()

    def stop(self) -> None:
        if not self._started:
            return
        super().stop()
        self._release()

    def _release(self) -> None:
        self._pool.close()
        self._store.close(unlink=True)

    # --- dispatch -----------------------------------------------------------

    def _score_batch(self, servable, stacked: np.ndarray,
                     n_requests: int) -> np.ndarray:
        """Round-trip one batch to its shard's worker.

        The pool makes a worker death invisible (respawn, init replay,
        same-id resend); this only mirrors it into the per-worker metrics.
        """
        shard = self._batcher.shard_for(servable.key)

        def on_respawn(replies) -> None:
            self.metrics.record_worker_death(shard)
            self.metrics.record_worker_respawn(shard, resent=n_requests)
            for attach in replies:
                self.metrics.record_worker_attach(shard, **attach)

        try:
            scores = self._pool.round_trip(
                "score", shard,
                ("call", _score, (servable.name, servable.version, stacked)),
                "serve.worker", on_respawn=on_respawn,
            )
        except WorkerRespawnError as exc:
            self.metrics.record_worker_death(shard)  # the unrecovered one
            raise WorkerDiedError(
                f"worker {shard} died {exc.deaths} times executing one "
                f"batch (respawn_limit={self.respawn_limit})"
            ) from exc
        self.metrics.record_worker_batch(shard, n_requests)
        return scores

    # --- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        if self._pool is not None:
            snap["shared_memory"] = self._store.snapshot()
            snap["transport"] = self._pool.snapshot()
        if self.qos is not None:
            snap["qos"] = self.qos.snapshot()
        return snap
