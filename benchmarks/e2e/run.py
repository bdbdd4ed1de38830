"""The repo benchmark's one command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e.run [--workload W] [--seed N] [--traced] [--out FILE]

Generates the workload's inputs from the seed in this process, hands the
program only the generated inputs, sets it up several times (``setup_s``
is the median), measures for ``--seconds`` seconds, checks every output
against the NumPy oracle, prints every metric by name with its unit,
quartiles and sample count, and ends with one JSON line: the end-to-end
metrics of an untraced run, or the per-layer metrics of a traced one.
Without ``--workload`` all six workloads run one after the other.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json holds the bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
WORKLOADS = ("modelsel_reuse", "prep_frame", "train_loops", "ooc_lowcard",
             "dist_tcp", "serve_zipf")
SETUP_REPEATS = 3


def pin_blas_threads() -> None:
    """Fix every process's BLAS pool at one thread (call before NumPy loads).

    Like ``parallelism=2``, a fixed condition: thread counts never come from
    the machine.  The pools default to one thread per core *per process*,
    and with four transport workers plus the coordinator on two cores their
    spin-waiting made the same ``dist_tcp`` pass take 0.7 s or 2.3 s at
    random.  Worker processes inherit the setting through the environment.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"


def default_seconds() -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
            return int(json.load(handle)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10


def make_workload(name: str, scale: str):
    """The workload object: set-up / measure / tear-down."""
    if name == "serve_zipf":
        from benchmarks.e2e.serving_load import ServeZipf

        return ServeZipf(scale)
    from benchmarks.e2e.workloads import BATCH_WORKLOADS

    return BATCH_WORKLOADS[name](scale)


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str,
                 workroot: str, setup_repeats: int = SETUP_REPEATS):
    """Set up (several times), measure, tear down; returns the run's report
    and, for a traced run, the tracer holding its spans."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.measure import peak_rss_mb, quartiles

    workload = make_workload(name, scale)
    setup_times = []
    for repeat in range(setup_repeats):
        workdir = os.path.join(workroot, f"{name}-{repeat}")
        os.makedirs(workdir)
        start = time.perf_counter()
        workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)
        if repeat < setup_repeats - 1:
            workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        measurement = workload.measure(seconds, traced)
    finally:
        workload.teardown()
    measurement.samples["setup_s"] = setup_times
    measurement.samples["peak_rss_mb"] = [peak_rss_mb()]
    end_to_end = {}
    for metric, (unit, _better) in END_TO_END.items():
        samples = measurement.samples[metric]
        q1, median, q3 = quartiles(samples)
        end_to_end[metric] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                              "n": len(samples)}
    per_layer = {}
    if traced:
        per_layer = {metric: {"value": float(measurement.layers.get(metric, 0.0)),
                              "unit": unit}
                     for metric, (unit, _better) in layers.PER_LAYER.items()}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "scale": scale, "attempted": measurement.attempted,
        "failed": measurement.failed, "valid": measurement.valid,
        "failed_share": measurement.failed / max(measurement.attempted, 1),
        "problems": measurement.problems[:10],
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    return report, measurement.tracer


def print_report(report: dict) -> None:
    print(f"== {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"traced={int(report['traced'])} ==")
    for metric, entry in report["end_to_end"].items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']:<8} "
              f"q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}")
    print(f"  {'failed_share':<44} {report['failed_share']:>14.6g} {'ratio':<8} "
          f"failed={report['failed']} attempted={report['attempted']}")
    for metric, entry in report["per_layer"].items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    if not report["valid"]:
        print("  INVALID: the load generator itself ran late (see "
              "serving.generator_late_ms_p99); the latency of this run says "
              "nothing about the service")
    sys.stdout.flush()


def contract_line(reports) -> str:
    """The final JSON line: exactly correct / attempted / failed / metrics."""
    metrics = {}
    for report in reports:
        chosen = report["per_layer"] if report["traced"] else report["end_to_end"]
        prefix = f"{report['workload']}/" if len(reports) > 1 else ""
        for metric, entry in chosen.items():
            metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    failed = sum(r["failed"] for r in reports)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    })


def append_out(path: str, reports, tracers) -> None:
    """Add these runs to ``path`` (compare.py reads the accumulated runs) and
    write each traced run's spans beside it."""
    runs = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    for report, tracer in zip(reports, tracers):
        if tracer is not None:
            tracer.dump(os.path.join(os.path.dirname(os.path.abspath(path)),
                                     f"trace-{report['workload']}.json"))
    runs += reports
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def become_subreaper() -> None:
    """Have orphaned descendants reparented to this process instead of init
    (Linux), so ``stop_stragglers`` can find, stop and wait for them too."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # without it, orphans can still be found while their parent lives


def child_pids() -> list:
    """Pids whose parent is this process (live or not yet waited for)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone in between
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_stragglers() -> None:
    """Stop every process this run started and wait until each has ended:
    the workers a workload left behind, multiprocessing's resource tracker
    (it otherwise outlives the interpreter by a moment), and anything
    reparented to us."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=10.0)
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass
    for _round in range(50):  # killing a parent hands us its children: look again
        pids = child_pids()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except OSError:
                pass  # already reaped


@contextlib.contextmanager
def work_directory():
    """One directory of the checkout for everything a run writes: inputs,
    spills, and the temp files of the program and its worker processes.
    Workers still alive at the end are stopped before it is removed."""
    workroot = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workroot)
    previous = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = workroot
    try:
        yield workroot
    finally:
        stop_stragglers()
        if previous[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous[0]
        tempfile.tempdir = previous[1]
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass  # another run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=None,
                        help="append the run(s) to this JSON file; a traced run "
                             "also writes trace-<workload>.json beside it")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    pin_blas_threads()
    become_subreaper()
    # registered before the program is imported, so it runs after the program's
    # own exit handlers: whatever those start or leave is stopped as well
    atexit.register(stop_stragglers)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    traced = bool(args.trace) or args.traced
    seconds = args.seconds if args.seconds is not None else default_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)

    reports, tracers = [], []
    with work_directory() as workroot:
        for name in names:
            report, tracer = run_workload(name, args.seed, seconds, traced, args.scale,
                                          workroot)
            print_report(report)
            reports.append(report)
            tracers.append(tracer)
    if args.out:
        append_out(args.out, reports, tracers)
    print(contract_line(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
