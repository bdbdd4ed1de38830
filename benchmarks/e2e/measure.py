"""Measuring one batch workload: timed passes, oracle checks, traced passes.

An untraced run times passes back to back for ``--seconds`` seconds with
statistics and spans off; these give the end-to-end metrics.  A traced
run alternates untraced and traced passes (spans around every layer
call, public counters read after the pass), which gives the per-layer
numbers and, from the two interleaved series, the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import resource
import statistics
import threading
import time
from typing import Dict, List, Optional

from benchmarks.e2e import layers, tracing

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


@dataclasses.dataclass
class Measurement:
    """What one run of one workload produced."""

    #: end-to-end metric -> its samples (the reported value is their median)
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: per-layer metric -> value (traced runs only)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: False when the load generator itself ran late (serve_zipf only)
    valid: bool = True
    tracer: Optional[tracing.Tracer] = None


def cpu_seconds() -> float:
    """User + system CPU of this process and its live worker processes."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS
        except (OSError, IndexError, ValueError):
            pass  # no procfs, or the worker just exited
    return total


def peak_rss_mb() -> float:
    """Max RSS of the harness plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports kilobytes


def quartiles(values: List[float]):
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure_batch(workload, seconds: float, traced: bool) -> Measurement:
    measurement = Measurement()
    want = workload.expect()
    tracer = tracing.Tracer() if traced else None
    measurement.tracer = tracer
    main_thread = threading.get_ident()
    plain: List[float] = []
    traced_s: List[float] = []
    cpu: List[float] = []
    per_pass: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        trace_this = traced and index % 2 == 1
        seen = layers.Seen()
        workload.before_pass()
        gc.collect()  # every pass starts from the same collector state
        before = workload.global_counters() if trace_this else None
        cpu_start = cpu_seconds()
        if trace_this:
            layers.instrument(tracer, seen)
            mark = tracer.mark()
        start = time.perf_counter()
        try:
            if trace_this:
                with tracer.span("harness", "harness.pass"):
                    outputs = workload.run_pass()
            else:
                outputs = workload.run_pass()
        finally:
            elapsed = time.perf_counter() - start
            if trace_this:
                tracer.unwrap()
        cpu.append(cpu_seconds() - cpu_start)
        (traced_s if trace_this else plain).append(elapsed)
        problems = workload.check(want, outputs)
        workload.release(outputs)
        measurement.attempted += 1
        if problems:
            measurement.failed += 1
            measurement.problems += [f"pass {index}: {p}" for p in problems]
        if trace_this:
            values = layers.pass_metrics(seen, tracer.since(mark), main_thread)
            values.update(workload.layer_deltas(before, workload.global_counters()))
            per_pass.append(values)
        index += 1
        if time.perf_counter() >= deadline and plain and (traced_s or not traced):
            break
    measurement.samples["run_s"] = plain
    measurement.samples["throughput_rps"] = [workload.rows / s for s in plain]
    # a pass is the unit of work a batch user waits for: its latency is the
    # pass time, and so few passes support no tail beyond the upper quartile
    measurement.samples["latency_p50_ms"] = [s * 1e3 for s in plain]
    measurement.samples["latency_p99_ms"] = [quartiles(plain)[2] * 1e3]
    if traced:
        for name in per_pass[0]:
            measurement.layers[name] = statistics.median(p[name] for p in per_pass)
        measurement.layers["harness.cpu_s"] = statistics.median(cpu)
        measurement.layers["harness.trace_overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(plain))
        measurement.layers.update(workload.probes())
    return measurement
