"""Observability for the scoring service.

One :class:`ServingMetrics` instance aggregates per-model counters, a
sliding window of request latencies (for percentiles), a batch-size
histogram, and — for the multi-process data plane — per-tenant QoS
counters and per-worker lifecycle/attach counters.  ``snapshot()``
returns a plain dict so benchmarks and operators can serialise it directly.

All record methods are thread-safe: workers, the admission path, and
readers share one lock, and snapshots are consistent copies — every
counter is read *under* the lock, so a snapshot can never observe
``completed > submitted`` or torn percentile windows while recorders
run concurrently.
"""

from __future__ import annotations

import collections
import math
import threading
from typing import Callable, Dict, Optional

#: Latencies kept per model for percentile estimation (sliding window).
DEFAULT_WINDOW = 4096


def percentile(samples, q: float) -> float:
    """The q-th percentile (0..100) of a sample list, nearest-rank method."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _latency_entry(latencies) -> dict:
    return {
        "p50": percentile(latencies, 50) * 1e3,
        "p95": percentile(latencies, 95) * 1e3,
        "p99": percentile(latencies, 99) * 1e3,
        "max": max(latencies) * 1e3 if latencies else 0.0,
        "mean": (sum(latencies) / len(latencies)) * 1e3 if latencies else 0.0,
    }


class _ModelStats:
    """Mutable per-model counters (guarded by the owning metrics lock)."""

    __slots__ = (
        "submitted", "completed", "rejected", "timeouts", "errors",
        "latencies", "batch_sizes",
    )

    def __init__(self, window: int):
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.latencies = collections.deque(maxlen=window)
        self.batch_sizes: Dict[int, int] = collections.Counter()


class _TenantStats:
    """Per-tenant QoS counters (guarded by the owning metrics lock)."""

    __slots__ = ("submitted", "completed", "throttled", "rejected")

    def __init__(self):
        self.submitted = 0
        self.completed = 0
        self.throttled = 0
        self.rejected = 0


class _WorkerStats:
    """Per-worker-process lifecycle counters (guarded by the metrics lock)."""

    __slots__ = (
        "batches", "requests", "deaths", "respawns", "resent_requests",
        "shm_segments_attached", "shm_checksums_verified",
    )

    def __init__(self):
        self.batches = 0
        self.requests = 0
        self.deaths = 0
        self.respawns = 0
        self.resent_requests = 0
        self.shm_segments_attached = 0
        self.shm_checksums_verified = 0


class ServingMetrics:
    """Thread-safe counters + latency/batch histograms for one service."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._window = window
        self._lock = threading.Lock()
        self._models: Dict[str, _ModelStats] = {}
        self._tenants: Dict[str, _TenantStats] = {}
        self._workers: Dict[int, _WorkerStats] = {}
        #: Callable returning the live admission-queue depth (wired by the
        #: service); kept as a probe so snapshots never go stale.
        self.depth_probe: Optional[Callable[[], int]] = None
        #: Per-model reuse-cache snapshot probes (wired by the service).
        self._reuse_probes: Dict[str, Callable[[], dict]] = {}

    def _stats(self, model: str) -> _ModelStats:
        stats = self._models.get(model)
        if stats is None:
            stats = self._models[model] = _ModelStats(self._window)
        return stats

    def _tenant(self, tenant: str) -> _TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = _TenantStats()
        return stats

    def _worker(self, worker: int) -> _WorkerStats:
        stats = self._workers.get(worker)
        if stats is None:
            stats = self._workers[worker] = _WorkerStats()
        return stats

    # --- recording (called by the service) ---------------------------------

    def record_submitted(self, model: str, tenant: Optional[str] = None) -> None:
        with self._lock:
            self._stats(model).submitted += 1
            if tenant is not None:
                self._tenant(tenant).submitted += 1

    def record_rejected(self, model: str, tenant: Optional[str] = None) -> None:
        with self._lock:
            self._stats(model).rejected += 1
            if tenant is not None:
                self._tenant(tenant).rejected += 1

    def record_throttled(self, model: str, tenant: str) -> None:
        """A request refused by the tenant's token bucket (counts as a
        rejection on the model, plus the tenant's ``throttled``)."""
        with self._lock:
            self._stats(model).rejected += 1
            stats = self._tenant(tenant)
            stats.rejected += 1
            stats.throttled += 1

    def record_timeout(self, model: str) -> None:
        with self._lock:
            self._stats(model).timeouts += 1

    def record_error(self, model: str, count: int = 1) -> None:
        with self._lock:
            self._stats(model).errors += count

    def record_batch(self, model: str, size: int) -> None:
        with self._lock:
            self._stats(model).batch_sizes[int(size)] += 1

    def record_completed(self, model: str, latency_s: float,
                         tenant: Optional[str] = None) -> None:
        with self._lock:
            stats = self._stats(model)
            stats.completed += 1
            stats.latencies.append(latency_s)
            if tenant is not None:
                self._tenant(tenant).completed += 1

    # --- recording (multi-process data plane) -------------------------------

    def record_worker_attach(self, worker: int, segments: int,
                             verified: int) -> None:
        """A worker process answered its init request: it attached
        ``segments`` shared-memory weight segments, ``verified`` of which
        passed their content checksum."""
        with self._lock:
            stats = self._worker(worker)
            stats.shm_segments_attached += segments
            stats.shm_checksums_verified += verified

    def record_worker_batch(self, worker: int, requests: int) -> None:
        with self._lock:
            stats = self._worker(worker)
            stats.batches += 1
            stats.requests += requests

    def record_worker_death(self, worker: int) -> None:
        with self._lock:
            self._worker(worker).deaths += 1

    def record_worker_respawn(self, worker: int, resent: int = 0) -> None:
        with self._lock:
            stats = self._worker(worker)
            stats.respawns += 1
            stats.resent_requests += resent

    def attach_reuse_probe(self, model: str, probe: Callable[[], dict]) -> None:
        with self._lock:
            self._reuse_probes[model] = probe

    # --- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A serialisable view: queue depth, per-model latency percentiles,
        batch-size histogram, counters, reuse-cache hit rates, and (when the
        multi-process plane is active) tenant and worker sections.

        Every mutable field is copied while the lock is held; percentile
        math runs on the copies afterwards so recorders are never blocked
        on sorting.
        """
        with self._lock:
            models = {
                name: {
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "rejected": stats.rejected,
                    "timeouts": stats.timeouts,
                    "errors": stats.errors,
                    "latencies": list(stats.latencies),
                    "batch_sizes": dict(stats.batch_sizes),
                }
                for name, stats in self._models.items()
            }
            tenants = {
                name: {
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "throttled": stats.throttled,
                    "rejected": stats.rejected,
                }
                for name, stats in self._tenants.items()
            }
            workers = {
                worker: {
                    "batches": stats.batches,
                    "requests": stats.requests,
                    "deaths": stats.deaths,
                    "respawns": stats.respawns,
                    "resent_requests": stats.resent_requests,
                    "shm_segments_attached": stats.shm_segments_attached,
                    "shm_checksums_verified": stats.shm_checksums_verified,
                }
                for worker, stats in self._workers.items()
            }
            probes = dict(self._reuse_probes)
            depth_probe = self.depth_probe
        result = {
            "queue_depth": depth_probe() if depth_probe is not None else 0,
            "models": {},
        }
        for name, entry in models.items():
            latencies = entry.pop("latencies")
            entry["latency_ms"] = _latency_entry(latencies)
            probe = probes.get(name)
            if probe is not None:
                entry["reuse"] = probe()
            result["models"][name] = entry
        if tenants:
            result["tenants"] = tenants
        if workers:
            result["workers"] = {str(k): v for k, v in workers.items()}
        return result
