"""Self-test of the benchmark harness (run explicitly, not tier-1).

    python3 benchmarks/e2e/selftest.py --smoke

Runs all six workloads traced at smoke scale (well under a minute in
total) and asserts that

* every metric ``BENCHMARK.json`` names is reported, with its unit, and
  ``BENCHMARK.json`` names exactly the metrics the harness defines;
* every oracle check passes;
* each bypass counter reads 0 where the metric table predicts it:
  ``lineage.probes`` on ``train_loops``, buffer-pool evictions outside
  ``ooc_lowcard``, trace hits on ``modelsel_reuse``, wire frames outside
  ``dist_tcp`` — and is non-zero on the workload that exercises it;
* no process this run started (workers, their orphans, multiprocessing's
  resource tracker) and no ``rshm-*`` shared-memory segment outlives it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SMOKE_SECONDS = 1.5
BUDGET_S = 60.0


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rshm-")}
    except OSError:
        return set()


def check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)


def main(argv=None) -> int:
    from benchmarks.e2e import run

    run.pin_blas_threads()  # before anything imports NumPy
    run.become_subreaper()
    from benchmarks.e2e import layers

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run at smoke scale (the only scale the self-test has)")
    parser.parse_args(argv)

    failures: list = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared_e2e == {n: u for n, (u, _b) in run.END_TO_END.items()},
          "BENCHMARK.json end_to_end differs from run.END_TO_END", failures)
    check(declared_layers == {n: u for n, (u, _b) in layers.PER_LAYER.items()},
          "BENCHMARK.json per_layer differs from layers.PER_LAYER", failures)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS", failures)

    segments_before = shm_segments()
    started = time.perf_counter()
    reports = {}
    with run.work_directory() as workroot:
        for name in run.WORKLOADS:
            report, _tracer = run.run_workload(
                name, seed=1, seconds=SMOKE_SECONDS, traced=True, scale="smoke",
                workroot=workroot, setup_repeats=1)
            run.print_report(report)
            reports[name] = report
    elapsed = time.perf_counter() - started

    for name, report in reports.items():
        check(report["failed"] == 0, f"{name}: {report['problems'][:3]}", failures)
        check(report["attempted"] >= 1, f"{name}: nothing attempted", failures)
        for metric, unit in declared_e2e.items():
            entry = report["end_to_end"].get(metric)
            check(entry is not None and entry["unit"] == unit and entry["value"] > 0,
                  f"{name}: end-to-end metric {metric} missing, zero or wrong unit", failures)
        for metric, unit in declared_layers.items():
            entry = report["per_layer"].get(metric)
            check(entry is not None and entry["unit"] == unit,
                  f"{name}: per-layer metric {metric} missing or wrong unit", failures)

    def layer(workload: str, metric: str) -> float:
        return reports[workload]["per_layer"][metric]["value"]

    # the bypass predictions of the metric table
    check(layer("train_loops", "lineage.probes") == 0, "lineage probed on train_loops", failures)
    check(layer("modelsel_reuse", "lineage.probes") > 0, "no lineage probes on modelsel_reuse",
          failures)
    check(layer("modelsel_reuse", "trace.hit_ratio") == 0
          and layer("modelsel_reuse", "trace.traces_compiled") == 0,
          "trace did not stand down on modelsel_reuse", failures)
    check(layer("train_loops", "trace.traces_compiled") > 0, "no traces on train_loops", failures)
    for name in run.WORKLOADS:
        evictions = layer(name, "runtime.pool_evictions")
        frames = layer(name, "net.frames_sent")
        if name == "ooc_lowcard":
            check(evictions > 0, "ooc_lowcard never evicted", failures)
        else:
            check(evictions == 0, f"{name}: buffer pool evicted", failures)
        if name == "dist_tcp":
            check(frames > 0, "dist_tcp sent no frames", failures)
        else:
            check(frames == 0, f"{name}: frames on the wire", failures)
    check(layer("serve_zipf", "serving.batches") > 0, "serve_zipf formed no batches", failures)
    from benchmarks.e2e.serving_load import MODELS, ServeZipf

    shards = ServeZipf("smoke").shard_loads()
    top_two = {MODELS[0][0], MODELS[1][0]}
    check(any(top_two <= set(models) for models in shards.values()),
          f"the two most popular models do not share a shard: {shards}", failures)

    check(not multiprocessing.active_children() and not run.child_pids(),
          f"a process outlived the run: {run.child_pids()}", failures)
    leaked = shm_segments() - segments_before
    check(not leaked, f"shared-memory segments outlived the run: {sorted(leaked)}", failures)
    check(elapsed < BUDGET_S, f"smoke run took {elapsed:.1f}s (budget {BUDGET_S:.0f}s)", failures)

    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print(f"selftest: {len(failures)} failure(s), {elapsed:.1f}s for six workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
