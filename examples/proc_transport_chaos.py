"""Transport chaos demo: kill workers or sever links mid-run, lose nothing.

Runs the two workloads of the repro.net acceptance bar with federated
sites and RDD executors as *real OS processes* listening on loopback
addresses, under two seeded fault families:

* ``kill`` — the ``fed.worker``/``rdd.worker`` points SIGKILL a worker
  mid-request: the pool respawns it, replays its publication log, and
  resends the in-flight request under the same id;
* ``wire`` — the ``net.partition``/``net.drop``/``net.dup`` points sever
  the link mid-stream, vanish frames and duplicate them: the pool
  reconnects and resends, the worker answers from its dedup cache
  (STATUS_REPLAY), and no worker dies.

The workloads are a row-federated L2SVM training loop (the faulted site
worker's shards must stay bit-identical) and a distributed blocked
matmul (the faulted executor's task is resent).  Every result is
compared bit-for-bit against a fault-free in-process run, and a JSON
report (CI asserts on it) is written when given a path.

Run:

    PYTHONPATH=src python examples/proc_transport_chaos.py [report.json]
"""

import argparse
import json
import sys

import numpy as np

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.net import for_config, registry_for
from repro.net.transport import STAT_KEYS
from repro.tensor import BasicTensorBlock

L2SVM_SCRIPT = """
Xf = federated(addresses=list("demo-a:9001/X", "demo-b:9001/X"),
               ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:10) {
  margin = Xf %*% w
  diff = margin - y
  grad = t(Xf) %*% diff
  w = w - (0.1 / nrow(Xf)) * grad
}
obj = sum(diff * diff)
"""

MATMUL_SCRIPT = """
Z = matrix(0, nrow(X), ncol(Y))
for (i in 1:4) {
  Z = Z + X %*% Y
}
s = sum(Z)
"""

#: Shrinks the per-operator budget so every matrix op runs on the RDD
#: backend, and keeps chaos retries free of real backoff sleeps.
SPARK = {"operator_memory_fraction": 1e-7, "block_size": 4}
FAST_RETRY = {"retry_budget": 5, "retry_backoff_ms": 0.0,
              "retry_backoff_max_ms": 0.0}


def run_federated(config):
    rng = np.random.default_rng(51)
    rows, features = 80, 5
    data = rng.random((rows, features))
    labels = data @ rng.standard_normal((features, 1))
    split = rows // 2
    inputs = {
        "y": labels,
        "R1": np.asarray([[0.0, 0.0, float(split), float(features)]]),
        "R2": np.asarray([[float(split), 0.0, float(rows), float(features)]]),
    }
    registry = registry_for(config)
    registry.clear()
    registry.start_site("demo-a:9001").put(
        "X", BasicTensorBlock.from_numpy(data[:split])
    )
    registry.start_site("demo-b:9001").put(
        "X", BasicTensorBlock.from_numpy(data[split:])
    )
    try:
        ml = MLContext(config)
        result = ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"])
        return np.asarray(result.matrix("w")), ml
    finally:
        registry.clear()


def run_matmul(config):
    rng = np.random.default_rng(53)
    inputs = {"X": rng.random((12, 10)), "Y": rng.random((10, 6))}
    ml = MLContext(config)
    result = ml.execute(MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"])
    return np.asarray(result.matrix("Z")), ml


#: Chaos overrides per fault family and workload.  The wire family
#: duplicates frames (absorbed by the dedup cache — guarantees observed
#: STATUS_REPLAY answers) and vanishes the occasional frame (recovered by
#: the request-timeout resend, so that run shrinks the round-trip
#: deadline).
CHAOS = {
    "kill": {
        "federated": {"fault_spec": "fed.worker:fail=2", "fault_seed": 61},
        "rdd": {"fault_spec": "rdd.worker:fail=2", "fault_seed": 67},
    },
    "wire": {
        "federated": {
            "fault_spec": "net.partition:fail=2;net.dup:fail=2;"
                          "net.drop:fail=1",
            "fault_seed": 71,
            "heartbeat_interval_s": 0.1,
            "transport_request_timeout_s": 1.0,
        },
        "rdd": {
            "fault_spec": "net.partition:fail=1;net.dup:fail=2",
            "fault_seed": 73,
            "heartbeat_interval_s": 0.1,
        },
    },
}

RUNS = {"federated": (run_federated, {}), "rdd": (run_matmul, SPARK)}


def chaos_run(workload, overrides, clean):
    """One faulted run; its transport counters (this run's share only)."""
    run, extra = RUNS[workload]
    config = ReproConfig(transport="tcp", **overrides, **extra, **FAST_RETRY)
    transport = for_config(config)
    before = transport.snapshot()
    got, __ = run(config)
    after = transport.snapshot()
    section = {key: after[key] - before[key] for key in STAT_KEYS}
    return {"identical": bool(np.array_equal(got, clean)),
            "mode": after["mode"], **section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    clean = {workload: run(ReproConfig(**extra))[0]
             for workload, (run, extra) in RUNS.items()}
    report = {}
    for family, workloads in CHAOS.items():
        for workload, overrides in workloads.items():
            section = chaos_run(workload, overrides, clean[workload])
            report.setdefault(family, {})[workload] = section
            print(f"{family:4} {workload:9}: identical={section['identical']} "
                  f"deaths={section['worker_deaths']} "
                  f"respawns={section['worker_respawns']} "
                  f"replayed={section['replayed_publications']} "
                  f"partitions={section['partitions']} "
                  f"reconnects={section['reconnects']} "
                  f"dedup_hits={section['dedup_hits']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    kill, wire = report["kill"].values(), report["wire"].values()
    ok = (all(s["identical"] for s in (*kill, *wire))
          and all(s["worker_respawns"] > 0 for s in kill)
          and all(s["reconnects"] > 0 and s["dedup_hits"] > 0
                  and s["worker_respawns"] == 0 for s in wire)
          and report["wire"]["federated"]["partitions"] > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
