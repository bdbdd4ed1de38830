"""``serve_zipf``: skewed multi-tenant scoring against the sharded service.

Eight models on a two-process ``ShardedScoringService``; model and tenant
are drawn zipf(1.1) by rank, and the two most popular models route to the
same shard, so static ``crc32`` routing loads one worker more than the
other.  A run alternates two phases, four times each:

* **saturation** (closed loop): one generator thread keeps ``WINDOW``
  requests outstanding; throughput is requests completed per second;
* **open loop** at the fixed rate ``RATE_RPS``: requests are sent on a
  schedule whatever the service does, and each is timed from the moment
  it was *due*, so a stall is charged to every request it delays.  How
  late the generator itself ran is reported, and a run whose generator
  was more than ``LATE_LIMIT_MS`` late at p99 is marked invalid, not slow.

Every response is checked against the NumPy forward pass of its model.
"""

from __future__ import annotations

import collections
import os
import queue
import statistics
import threading
import time
from typing import Dict, List

import numpy as np

from repro.config import ReproConfig
from repro.errors import ReproError
from repro.serving import ModelRegistry
from repro.serving.batcher import shard_of
from repro.serving.qos import QosController, TenantPolicy
from repro.serving.workers import ShardedScoringService

from benchmarks.e2e import generators, layers, oracles, tracing
from benchmarks.e2e.measure import Measurement, cpu_seconds

#: Open-loop arrival rate: about half of the seed commit's saturation
#: throughput on two cores (see README, "How RATE_RPS was fixed").
RATE_RPS = 8000.0
#: Requests the saturation phase keeps outstanding.
WINDOW = 512
#: Completions per ``run_s`` / ``throughput_rps`` sample.
CHUNK = 2048
#: Share of ``--seconds`` spent in the saturation phases.
SATURATION_SHARE = 0.3
#: Saturation and open-loop phases alternate this many times in a run.
CYCLES = 4
#: Open-loop latency is summarised per window of this many seconds; the
#: reported value is the median over the windows, so a machine stall spoils
#: one window in sixteen and not the run.
LATENCY_WINDOW_S = 0.5
LATE_LIMIT_MS = 3.0
REQUEST_TIMEOUT_S = 30.0

SCRIPTS = {
    "lm": "yhat = lmPredict(X, B)",
    "softmax": "S = X %*% W\nS = S - rowMaxs(S)\nE = exp(S)\nyhat = E / rowSums(E)",
    "mlp": "H = max(X %*% W1 + b1, 0)\nyhat = H %*% W2 + b2",
}
#: (name, kind, features) in popularity order: rank 1 first.
MODELS = (
    ("lm64a", "lm", 64), ("lm64b", "lm", 64), ("lm256a", "lm", 256),
    ("softmax64", "softmax", 64), ("mlp64", "mlp", 64), ("lm256b", "lm", 256),
    ("softmax256", "softmax", 256), ("mlp256", "mlp", 256),
)
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
SIZES = {"full": {"pool": 64, "stream": 400_000, "warmup": 2000},
         "smoke": {"pool": 16, "stream": 60_000, "warmup": 300}}


class ServeZipf:
    name = "serve_zipf"
    # the admission queue holds two seconds of open-loop arrivals, so a stall
    # of the machine shows as latency and not as refused requests
    overrides = {"procs": 2, "queue_limit": int(2 * RATE_RPS), "max_batch_size": 32,
                 "max_wait_ms": 2.0}

    def __init__(self, scale: str = "full"):
        self.size = SIZES[scale]
        self.registry = None
        self.service = None
        self.cursor = 0

    # --- set-up ---------------------------------------------------------------

    def setup(self, seed: int, workdir: str) -> None:
        rng = generators.rng_for(seed, self.name)
        self.weights = generators.serving_models(rng, MODELS)
        self.pool = generators.request_pool(rng, MODELS, self.size["pool"])
        self.stream = generators.request_stream(
            rng, self.size["stream"], len(MODELS), len(TENANTS), self.size["pool"])
        self.cursor = 0
        config = ReproConfig(parallelism=2, spill_dir=os.path.join(workdir, "spill"))
        self.registry = ModelRegistry(config)
        for name, kind, _features in MODELS:
            self.registry.register(name, SCRIPTS[kind], weights=self.weights[name])
        qos = QosController(default_policy=TenantPolicy(weight=1.0))
        self.service = ShardedScoringService(
            self.registry, qos=qos, default_timeout=REQUEST_TIMEOUT_S, **self.overrides)
        self.service.start()
        self.expected = {
            name: [oracles.score(kind, self.weights[name], x) for x in self.pool[name]]
            for name, kind, _features in MODELS
        }
        warm = Measurement()
        self._saturate(warm, requests=self.size["warmup"])
        if warm.failed:
            raise RuntimeError(f"serve_zipf warm-up failed: {warm.problems[:3]}")

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.registry is not None:
            self.registry.close()
            self.registry = None

    def shard_loads(self) -> Dict[int, List[str]]:
        """Which models static routing puts on which shard."""
        shards: Dict[int, List[str]] = collections.defaultdict(list)
        for name, _kind, _features in MODELS:
            shards[shard_of(f"{name}@v1", self.overrides["procs"])].append(name)
        return dict(shards)

    # --- request plumbing -----------------------------------------------------

    def _next(self):
        i = self.cursor % self.size["stream"]
        self.cursor += 1
        model = int(self.stream["model"][i])
        entry = int(self.stream["entry"][i])
        name = MODELS[model][0]
        return name, entry, self.pool[name][entry], TENANTS[int(self.stream["tenant"][i])]

    def _verify(self, measurement: Measurement, done: List[tuple]) -> None:
        """Compare every response with the oracle's score, model by model."""
        by_model: Dict[str, List[tuple]] = collections.defaultdict(list)
        for name, entry, scores in done:
            by_model[name].append((entry, scores))
        for name, items in by_model.items():
            want = np.concatenate([self.expected[name][entry] for entry, _ in items])
            try:
                got = np.concatenate([scores for _, scores in items])
                bad = oracles.mismatch(name, got, want)
            except ValueError as exc:  # a response of the wrong shape
                bad = [f"{name}: {exc}"]
            if bad:
                measurement.failed += len(items)
                measurement.problems += bad

    # --- saturation phase (closed loop) ---------------------------------------

    def _saturate(self, measurement: Measurement, seconds: float = 0.0,
                  requests: int = 0) -> List[float]:
        """Keep ``WINDOW`` requests outstanding for ``seconds`` (or until
        ``requests`` were sent); returns the completion timestamps."""
        service = self.service
        outstanding: collections.deque = collections.deque()
        done: List[tuple] = []
        stamps: List[float] = []
        clock = time.perf_counter
        deadline = clock() + seconds

        def reap() -> None:
            name, entry, future = outstanding.popleft()
            try:
                done.append((name, entry, future.result(REQUEST_TIMEOUT_S)))
            except ReproError as exc:
                measurement.failed += 1
                measurement.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            stamps.append(clock())

        sent = 0
        while (sent < requests) if requests else (clock() < deadline):
            while len(outstanding) >= WINDOW:
                reap()
            name, entry, features, tenant = self._next()
            measurement.attempted += 1
            sent += 1
            try:
                outstanding.append((name, entry, service.submit(name, features, tenant=tenant)))
            except ReproError as exc:  # refused or throttled at admission
                measurement.failed += 1
                measurement.problems.append(f"{name}: {type(exc).__name__}: {exc}")
        while outstanding:
            reap()
        self._verify(measurement, done)
        return stamps

    # --- open-loop phase ------------------------------------------------------

    def _open_loop(self, measurement: Measurement, seconds: float):
        """Send at ``RATE_RPS`` for ``seconds``; returns ``(due, latency_s)``
        per completed request and the generator's lateness per request."""
        service = self.service
        clock = time.perf_counter
        inboxes = {name: queue.SimpleQueue() for name, _k, _f in MODELS}
        results: Dict[str, List[tuple]] = {name: [] for name in inboxes}
        errors: List[str] = []

        def collect(name: str) -> None:
            # one model's responses complete in submission order (one batch in
            # flight per shard), so waiting on the oldest stamps each promptly
            inbox, out = inboxes[name], results[name]
            while True:
                item = inbox.get()
                if item is None:
                    return
                due, entry, future = item
                try:
                    scores = future.result(REQUEST_TIMEOUT_S)
                    out.append((due, clock() - due, entry, scores))
                except ReproError as exc:
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")

        collectors = [threading.Thread(target=collect, args=(name,), name=f"collect-{name}")
                      for name in inboxes]
        for thread in collectors:
            thread.start()
        total = int(seconds * RATE_RPS)
        gap = 1.0 / RATE_RPS
        late: List[float] = []
        start = clock() + 0.01
        try:
            for i in range(total):
                due = start + i * gap
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                name, entry, features, tenant = self._next()
                measurement.attempted += 1
                late.append(clock() - due)
                try:
                    future = service.submit(name, features, tenant=tenant)
                except ReproError as exc:
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                inboxes[name].put((due, entry, future))
        finally:
            for inbox in inboxes.values():
                inbox.put(None)
            for thread in collectors:
                thread.join(timeout=2 * REQUEST_TIMEOUT_S)
        measurement.failed += len(errors)
        measurement.problems += errors[:20]
        self._verify(measurement, [(name, entry, scores) for name, items in results.items()
                                   for _due, _lat, entry, scores in items])
        timed = sorted((due - start, latency) for items in results.values()
                       for due, latency, _entry, _scores in items)
        return timed, late

    # --- one run --------------------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Measurement:
        """``CYCLES`` times a saturation phase followed by an open-loop phase,
        so that both phases sample the whole run: a slow spell of the machine
        then spoils some chunks and windows of each metric, which the medians
        ignore, and not all the samples of one."""
        measurement = Measurement()
        saturation_s = seconds * SATURATION_SHARE / CYCLES
        open_s = seconds * (1.0 - SATURATION_SHARE) / CYCLES
        tracer = measurement.tracer = tracing.Tracer() if traced else None
        cpu_start = cpu_seconds()
        wall_start = time.perf_counter()
        chunks: List[float] = []
        traced_chunks: List[float] = []
        windows: List[tuple] = []
        latencies: List[float] = []
        late: List[float] = []
        for cycle in range(CYCLES):
            # a traced run traces every other saturation phase, so a drift of
            # the machine is not read as tracing overhead
            trace_this = traced and cycle % 2 == 1
            if trace_this:
                self._instrument(tracer)
            try:
                stamps = self._saturate(measurement, saturation_s)
            finally:
                if trace_this:
                    tracer.unwrap()
            (traced_chunks if trace_this else chunks).extend(_chunk_seconds(stamps))
            timed, cycle_late = self._open_loop(measurement, open_s)
            windows += _latency_windows(timed, open_s)
            latencies += [latency for _offset, latency in timed]
            late += cycle_late
        measurement.samples["run_s"] = chunks
        measurement.samples["throughput_rps"] = [CHUNK / s for s in chunks]
        measurement.samples["latency_p50_ms"] = [w[0] for w in windows]
        measurement.samples["latency_p99_ms"] = [w[1] for w in windows]
        late_p99 = float(np.percentile(late, 99)) * 1e3
        measurement.valid = late_p99 <= LATE_LIMIT_MS
        if traced:
            wall = time.perf_counter() - wall_start
            overhead = statistics.median(traced_chunks) / statistics.median(chunks)
            measurement.layers = self._layer_metrics(
                tracer, late_p99, latencies, overhead, (cpu_seconds() - cpu_start) / wall)
        return measurement

    # --- traced run -----------------------------------------------------------

    def _instrument(self, tracer: tracing.Tracer) -> None:
        from repro.serving.batcher import MicroBatcher
        from repro.serving.service import ScoringService

        tracer.wrap(ScoringService, "submit", "serving")
        tracer.wrap(MicroBatcher, "offer", "serving")

    def _layer_metrics(self, tracer, late_p99_ms, latencies, overhead, cpu_share) -> Dict:
        snap = self.service.snapshot()
        models = snap.get("models", {}).values()
        rows = sum(int(size) * n for m in models for size, n in m["batch_sizes"].items())
        batches = sum(n for m in models for n in m["batch_sizes"].values())
        completed = sum(m["completed"] for m in models)
        workers = [w["requests"] for w in snap.get("workers", {}).values()]
        own = tracing.self_times(tracer.spans)
        values = {
            "serving.mean_batch_size": rows / batches if batches else 0.0,
            "serving.batches": batches,
            "serving.service_latency_p50_ms": sum(
                m["latency_ms"]["p50"] * m["completed"] for m in models) / max(completed, 1),
            "serving.latency_p99_whole_ms": float(np.percentile(latencies, 99)) * 1e3,
            "serving.worker_imbalance": max(workers) / statistics.mean(workers),
            "serving.rejected": sum(m["rejected"] for m in models),
            "serving.timeouts": sum(m["timeouts"] for m in models),
            "serving.throttled": sum(
                t["throttled"] for t in snap.get("tenants", {}).values()),
            "serving.resent_requests": sum(
                w["resent_requests"] for w in snap.get("workers", {}).values()),
            "serving.generator_late_ms_p99": late_p99_ms,
            # CPU seconds burnt per second of wall time, all processes
            "harness.cpu_s": cpu_share,
            "harness.trace_overhead_ratio": overhead,
        }
        for layer in layers.LAYERS:
            values[f"harness.self_time_s.{layer}"] = own.get(layer, 0.0)
        values.update(layers.probe_serving(self.registry, "lm256a", 256))
        return values


def _chunk_seconds(stamps: List[float]) -> List[float]:
    """Seconds per ``CHUNK`` consecutive completions."""
    marks = stamps[::CHUNK]
    chunks = [b - a for a, b in zip(marks, marks[1:])]
    if not chunks:  # a run too short for one chunk: scale what there is
        chunks = [(stamps[-1] - stamps[0]) * CHUNK / max(len(stamps) - 1, 1)]
    return chunks


def _latency_windows(timed: List[tuple], seconds: float) -> List[tuple]:
    """(p50_ms, p99_ms) of each full ``LATENCY_WINDOW_S`` window, by due time."""
    count = max(int(seconds / LATENCY_WINDOW_S), 1)
    width = seconds / count
    buckets: List[List[float]] = [[] for _ in range(count)]
    for offset, latency in timed:
        buckets[min(int(offset / width), count - 1)].append(latency)
    return [(float(np.percentile(b, 50)) * 1e3, float(np.percentile(b, 99)) * 1e3)
            for b in buckets if b]
