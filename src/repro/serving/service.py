"""The concurrent scoring service: workers, deadlines, backpressure.

Requests enter through :meth:`ScoringService.submit` (non-blocking, returns
a :class:`ScoreFuture`) or :meth:`ScoringService.score` (blocking).
``workers`` worker loops share one :class:`MicroBatcher`: whichever loop
is free takes the next coalesced batch, of any model, stacks the feature
rows into one matrix, runs the model's prepared script once, and splits
the score rows back to the per-request futures.  Loop *k* is bound to
slot *k*, which a subclass may use to pick where the batch executes
(:class:`~repro.serving.workers.ShardedScoringService` sends it to worker
process *k*).

Overload behaviour is explicit: a full admission queue rejects with
:class:`~repro.errors.ServiceOverloadedError`, and requests that miss
their deadline resolve with :class:`~repro.errors.ScoreTimeoutError`
instead of occupying a worker.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from repro.errors import (
    InjectedFaultError,
    ScoreTimeoutError,
    ServiceUnavailableError,
    ServingError,
    TenantThrottledError,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import QosController
from repro.serving.registry import ModelRegistry, ServableModel


class ScoreFuture:
    """Completion handle of one scoring request."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value) -> None:
        if not self._event.is_set():
            self._value = value
            self._event.set()

    def set_exception(self, error: BaseException) -> None:
        if not self._event.is_set():
            self._error = error
            self._event.set()

    def result(self, timeout: Optional[float] = None):
        """The score row(s); raises the request's error or a timeout."""
        if not self._event.wait(timeout):
            raise ScoreTimeoutError("scoring request timed out")
        if self._error is not None:
            raise self._error
        return self._value


class _Request:
    """One admitted scoring request (internal)."""

    __slots__ = ("model", "servable", "features", "rows", "future",
                 "enqueued", "deadline", "tenant", "priority")

    def __init__(self, servable: ServableModel, features: np.ndarray,
                 deadline: Optional[float], tenant: Optional[str] = None,
                 priority: float = 0.0):
        self.model = servable.key
        self.servable = servable
        self.features = features
        self.rows = features.shape[0]
        self.future = ScoreFuture()
        self.enqueued = time.monotonic()
        self.deadline = deadline
        self.tenant = tenant
        #: WFQ virtual finish time (the batcher's heap key); 0.0 = FIFO.
        self.priority = priority


class ScoringService:
    """Thread-pool scoring over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        workers: int = 4,
        queue_limit: int = 256,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        default_timeout: Optional[float] = 30.0,
        metrics: Optional[ServingMetrics] = None,
        resilience=None,
        qos: Optional[QosController] = None,
    ):
        if workers < 1:
            raise ServingError("workers must be >= 1")
        self.registry = registry
        self.default_timeout = default_timeout
        self.metrics = metrics or ServingMetrics()
        #: Optional :class:`repro.resilience.ResilienceManager`.  When set,
        #: scoring batches retry transient failures (``serve.score`` point),
        #: each model gets a circuit breaker, and a nearly full queue sheds
        #: load with fast :class:`ServiceUnavailableError` rejections.
        self.resilience = resilience
        #: Optional per-tenant QoS (token buckets + WFQ ordering).
        self.qos = qos
        self._shed_watermark = max(1, int(queue_limit * 0.9))
        self._limits = {}
        self._batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            queue_limit=queue_limit,
            limit_of=self._limits.get,
        )
        self.metrics.depth_probe = lambda: self._batcher.depth
        self._slots = workers
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "ScoringService":
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        for slot in range(self._slots):
            worker = threading.Thread(
                target=self._worker_loop, args=(slot,),
                name=f"scoring-worker-{slot}", daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return self

    def stop(self) -> None:
        """Drain nothing: refuse new work, fail pending, join workers."""
        self._stop.set()
        leftovers = self._batcher.close()
        for request in leftovers:
            request.future.set_exception(
                ServingError("service stopped before the request ran")
            )
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        self._started = False

    def __enter__(self) -> "ScoringService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- request path -------------------------------------------------------

    def submit(
        self,
        model: str,
        features,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> ScoreFuture:
        """Admit one request (a feature row or a small row batch).

        Raises :class:`UnknownModelError` for unregistered models,
        :class:`ServiceOverloadedError` when the admission queue is full,
        and :class:`TenantThrottledError` when ``tenant`` exceeds its
        QoS rate limit (only with a :class:`QosController` attached).
        """
        servable = self.registry.get(model, version)
        if servable.key not in self._limits:
            # wire the concurrency limit and reuse probe on first contact
            self._limits[servable.key] = servable.max_concurrency
            self.metrics.attach_reuse_probe(servable.key, servable.reuse_snapshot)
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        priority = 0.0
        if self.qos is not None and tenant is not None:
            # throttle *before* the shared queue: an over-rate tenant never
            # consumes an admission slot, so it cannot starve its peers
            if not self.qos.admit(tenant, matrix.shape[0]):
                self.metrics.record_throttled(servable.key, tenant)
                raise TenantThrottledError(tenant)
            priority = self.qos.tag(tenant, matrix.shape[0])
        timeout = self.default_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout if timeout is not None else None
        request = _Request(servable, matrix, deadline, tenant=tenant,
                           priority=priority)
        self.metrics.record_submitted(servable.key, tenant=tenant)
        if self.resilience is not None:
            self._admission_check(servable.key, tenant)
        try:
            self._batcher.offer(request)
        except ServingError:
            self.metrics.record_rejected(servable.key, tenant=tenant)
            raise
        return request.future

    def score(
        self,
        model: str,
        features,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Submit and wait; returns the score rows for this request."""
        timeout = self.default_timeout if timeout is None else timeout
        future = self.submit(model, features, version=version,
                             timeout=timeout, tenant=tenant)
        return future.result(timeout)

    def snapshot(self) -> dict:
        """Live metrics: latency percentiles, queue depth, batches, reuse."""
        return self.metrics.snapshot()

    def attach_stats(self, stats_registry) -> "ScoringService":
        """Fold this service into a :class:`repro.obs.StatsRegistry`.

        Wires the ``serving`` section to the live metrics snapshot, the
        ``bufferpool`` section to the model registry's shared pool, and
        routes per-instruction profiling of every model's prepared script
        into the registry, so one ``obs.report()`` shows the scoring layer
        next to the runtime heavy hitters.
        """
        from repro.obs import attach_pool, attach_serving

        attach_serving(stats_registry, self)
        attach_pool(stats_registry, self.registry.pool)
        self.registry.set_stats(stats_registry)
        return self

    # --- resilience ---------------------------------------------------------

    def _admission_check(self, model_key, tenant=None) -> None:
        """Fast-fail before enqueueing: open breaker or shedding watermark.

        Both paths return a typed :class:`ServiceUnavailableError` in
        microseconds instead of letting the request queue behind work that
        is already doomed or drowning.
        """
        resilience = self.resilience
        breaker = resilience.breaker_for(model_key)
        if not breaker.allow():
            resilience.stats.incr("breaker_rejections")
            self.metrics.record_rejected(model_key, tenant=tenant)
            raise ServiceUnavailableError(
                f"model {model_key!r}: circuit open at point 'serve.score'"
            )
        if self._batcher.depth >= self._shed_watermark:
            resilience.stats.incr("shed_requests")
            self.metrics.record_rejected(model_key, tenant=tenant)
            raise ServiceUnavailableError(
                f"model {model_key!r}: load shed (queue depth "
                f">= {self._shed_watermark})"
            )

    def _score_batch(self, servable: ServableModel, stacked: np.ndarray,
                     n_requests: int, slot: int):
        """Run one coalesced batch of ``n_requests`` requests for worker
        loop ``slot``, with retry + breaker when resilience is on."""
        resilience = self.resilience
        if resilience is None:
            return servable.score_batch(stacked)
        from repro.resilience.retry import call_with_retry

        breaker = resilience.breaker_for(servable.key)

        def score_once():
            resilience.fire("serve.score")
            return servable.score_batch(stacked)

        try:
            scores = call_with_retry(
                score_once, resilience.retry_policy, (InjectedFaultError,),
                sleep=resilience.sleep, rng=resilience.rng,
                stats=resilience.stats, kind="serve",
            )
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return scores

    # --- workers ------------------------------------------------------------

    def _worker_loop(self, slot: int) -> None:
        while not self._stop.is_set():
            taken = self._batcher.take(timeout=0.05)
            if taken is None:
                continue
            model_key, requests = taken
            try:
                self._execute_batch(requests, slot)
            finally:
                self._batcher.done(model_key)

    def _split_expired(self, requests: List[_Request]):
        """Resolve deadline-missed requests without running them."""
        now = time.monotonic()
        live: List[_Request] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                request.future.set_exception(
                    ScoreTimeoutError("request expired in the admission queue")
                )
                self.metrics.record_timeout(request.model)
            else:
                live.append(request)
        return live

    def _execute_batch(self, requests: List[_Request], slot: int) -> None:
        requests = self._split_expired(requests)
        if not requests:
            return
        servable = requests[0].servable
        self.metrics.record_batch(servable.key, sum(r.rows for r in requests))
        stacked = requests[0].features if len(requests) == 1 else np.vstack(
            [request.features for request in requests]
        )
        try:
            scores = self._score_batch(servable, stacked, len(requests), slot)
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the worker
            self.metrics.record_error(servable.key, count=len(requests))
            for request in requests:
                request.future.set_exception(exc)
            return
        finished = time.monotonic()
        offset = 0
        for request in requests:
            request.future.set_result(scores[offset:offset + request.rows])
            offset += request.rows
            self.metrics.record_completed(
                servable.key, finished - request.enqueued,
                tenant=request.tenant,
            )
