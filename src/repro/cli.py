"""Command-line invocation of DML scripts (paper Figure 3, step 1).

    repro-dml script.dml [-f] [--args k=v ...] [--stats] [--explain]
    python -m repro.cli script.dml --args reg=0.001

Named arguments are bound as scalar input variables (ints, floats,
booleans, or strings).  ``--stats`` prints runtime metrics after execution,
``--explain`` the compiled runtime program, ``--lineage`` enables lineage
tracing and ``--reuse`` lineage-based reuse of intermediates.

``--checkpoint-dir DIR`` snapshots live variables at loop/top-level block
boundaries (``--checkpoint-every N`` thins the cadence); after a crash,
``--resume`` restores the manifest and fast-forwards the program to the
saved block/iteration.  Exit codes: 2 for a missing/corrupt manifest on
``--resume``, 3 when an injected ``crash=`` fault killed the run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict

from repro.config import ReproConfig


def _parse_value(text: str):
    if text in ("TRUE", "true", "True"):
        return True
    if text in ("FALSE", "false", "False"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_args(pairs) -> Dict[str, object]:
    bound = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--args entries must be name=value, got {pair!r}")
        bound[name] = _parse_value(value)
    return bound


def build_parser() -> argparse.ArgumentParser:
    """The repro-dml argument parser (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dml",
        description="Execute a DML script on the repro SystemDS reproduction.",
    )
    parser.add_argument("script", help="path to the .dml script")
    parser.add_argument("--args", nargs="*", metavar="NAME=VALUE",
                        help="scalar input bindings")
    parser.add_argument("--stats", action="store_true",
                        help="print unified runtime statistics (heavy-hitter "
                             "instructions + per-subsystem sections)")
    parser.add_argument("--stats-top-k", type=int, default=10,
                        help="rows of the heavy-hitter table (default 10)")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="also write the stats snapshot as JSON")
    parser.add_argument("--explain", action="store_true",
                        help="print the compiled runtime program")
    parser.add_argument("--lineage", action="store_true",
                        help="enable lineage tracing")
    parser.add_argument("--reuse", choices=["none", "full", "full_partial"],
                        default="none", help="lineage-based reuse policy")
    parser.add_argument("--mem", type=int, default=0,
                        help="memory budget in MB (0 = default)")
    parser.add_argument("--par", type=int, default=0,
                        help="degree of parallelism (0 = all cores)")
    parser.add_argument("--no-rewrites", action="store_true",
                        help="disable optimizer rewrites (debugging)")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable trace compilation of hot basic blocks")
    parser.add_argument("--transport", choices=["inproc", "tcp"],
                        default="inproc",
                        help="where federated sites and RDD tasks execute: "
                             "in-process thread sims (default) or "
                             "SIGKILL-able worker processes on dialable TCP "
                             "addresses with reconnecting links and net.* "
                             "chaos points")
    transport = parser.add_argument_group("transport tuning")
    transport.add_argument("--transport-host", metavar="HOST", default=None,
                           help="bind/advertise host for worker processes "
                                "(default 127.0.0.1)")
    transport.add_argument("--request-timeout", type=float, default=None,
                           metavar="S",
                           help="transport round-trip deadline before the "
                                "same-id resend / kill escalation "
                                "(default 60)")
    transport.add_argument("--heartbeat-interval", type=float, default=None,
                           metavar="S",
                           help="worker heartbeat cadence (default 0.25)")
    transport.add_argument("--heartbeat-grace", type=float, default=None,
                           metavar="N",
                           help="silent heartbeat intervals before a miss "
                                "is counted (default 3)")
    parser.add_argument("--trace-threshold", type=int, default=None,
                        metavar="N",
                        help="block executions before a trace is compiled "
                             "(default 8)")
    ooc = parser.add_argument_group("out-of-core")
    ooc.add_argument("--pool-budget", type=int, default=None, metavar="BYTES",
                     help="exact buffer-pool budget in bytes (overrides the "
                          "fraction of --mem); out-of-core smoke runs pin it "
                          "far below the working set")
    ooc.add_argument("--no-spill-compress", action="store_true",
                     help="spill raw pickles instead of CLA-compressing "
                          "eligible dense FP64 blocks")
    ooc.add_argument("--compressed-exec", action="store_true",
                     help="let eligible kernels execute directly on "
                          "still-compressed restored blocks (results match "
                          "within float tolerance, not bitwise)")
    resilience = parser.add_argument_group("resilience / fault injection")
    resilience.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministic fault-injection spec, e.g. "
             "'site.request:p=0.1;spill.write:fail=2' ('*' = every point); "
             "implies the tolerance machinery (retries, failover, breaker)")
    resilience.add_argument("--fault-seed", type=int, default=None,
                            help="seed of the injection/jitter streams "
                                 "(default 1234)")
    resilience.add_argument("--retry-budget", type=int, default=None,
                            help="retries per request/task/spill after the "
                                 "first attempt (default 2); enables the "
                                 "tolerance machinery even without faults")
    checkpoint = parser.add_argument_group("checkpoint / restore")
    checkpoint.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory for crash-consistent checkpoints; enables "
             "checkpointing at loop/top-level block boundaries (implies "
             "--lineage for incremental snapshots)")
    checkpoint.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot every N interpreter boundaries (default 1)")
    checkpoint.add_argument(
        "--resume", action="store_true",
        help="resume from the manifest in --checkpoint-dir, fast-forwarding "
             "the program to the saved block/iteration")
    return parser


#: Options copied into the config field of the same meaning when given.
_PASSED_THROUGH = {
    "transport_host": "transport_host",
    "request_timeout": "transport_request_timeout_s",
    "heartbeat_interval": "heartbeat_interval_s",
    "heartbeat_grace": "heartbeat_miss_grace",
    "trace_threshold": "trace_threshold",
    "pool_budget": "bufferpool_budget_override",
    "inject_faults": "fault_spec",
    "fault_seed": "fault_seed",
}


def main(argv=None) -> int:
    """Entry point of ``repro-dml``; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    if args.mem > 0:
        overrides["memory_budget"] = args.mem * 1024 * 1024
    if args.par > 0:
        overrides["parallelism"] = args.par
    if args.lineage or args.reuse != "none":
        overrides["enable_lineage"] = True
        overrides["reuse_policy"] = args.reuse
    if args.stats:
        overrides["enable_stats"] = True
    if args.no_rewrites:
        overrides["enable_rewrites"] = False
        overrides["enable_cse"] = False
        overrides["enable_fusion"] = False
    if args.no_trace:
        overrides["enable_trace"] = False
    if args.transport != "inproc":
        overrides["transport"] = args.transport
    for arg, field in _PASSED_THROUGH.items():
        if getattr(args, arg) is not None:
            overrides[field] = getattr(args, arg)
    if args.no_spill_compress:
        overrides["spill_compress"] = False
    if args.compressed_exec:
        overrides["compressed_exec"] = True
    if args.retry_budget is not None:
        overrides["retry_budget"] = args.retry_budget
        overrides["enable_resilience"] = True
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
        overrides["checkpoint_every"] = args.checkpoint_every
        # Incremental snapshots key off lineage hashes.
        overrides["enable_lineage"] = True
    try:
        config = ReproConfig(**overrides)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        with open(args.script, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.api.mlcontext import MLContext

    ml = MLContext(config)
    if args.resume:
        from repro.errors import CheckpointError

        try:
            ml.checkpoints().prepare_resume()
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    start = time.time()
    try:
        inputs = _parse_args(args.args)
        script = ml.prepare(source, list(inputs), capture_prints=False)
        if args.explain:  # the cached program execute runs
            print(script.program.explain(), file=sys.stderr)
        results = script.execute(**inputs)
    except Exception as exc:  # noqa: BLE001 - report any script failure
        from repro.errors import InjectedCrashError

        if isinstance(exc, InjectedCrashError):
            print(f"error: {exc}", file=sys.stderr)
            if args.checkpoint_dir is not None:
                print(
                    "note: rerun with --resume to continue from the last "
                    "checkpoint",
                    file=sys.stderr,
                )
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - start
    if args.stats:
        from repro import obs

        registry = ml.stats()
        obs.attach_federated(registry)  # default worker registry, if used
        print(f"-- execution time: {elapsed:.3f}s", file=sys.stderr)
        for key, value in sorted(results.metrics.items()):
            print(f"-- {key}: {value}", file=sys.stderr)
        top_k = max(args.stats_top_k, 1)
        print(registry.report(top_k=top_k), file=sys.stderr)
        if args.stats_json:
            snapshot = registry.snapshot(top_k)
            snapshot["metrics"] = dict(results.metrics)
            with open(args.stats_json, "w", encoding="utf-8") as out:
                out.write(obs.render_json(snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
