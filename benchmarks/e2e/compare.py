"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files ``run.py --out`` wrote (each call
appends its runs).  For every workload x end-to-end metric the table
gives both medians with their quartiles, the ratio B/A with its base,
and a verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``same``        neither;
* ``unresolved``  A's own quartile spread exceeds the bound, so the
                  metric cannot tell a change of that size from noise.

With several runs of a workload in a file, medians and quartiles are
taken over the runs' values; with one run they are that run's own
(quartiles of its passes or windows).  ``failed_share`` may rise by
0.001 absolute.  Exit status 1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

FAILED_SHARE_SLACK = 0.001


def load_bounds() -> Dict[str, Tuple[float, str]]:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of a ``--out`` file, by workload."""
    with open(path, "r", encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: Dict[str, List[dict]] = {}
    for run in runs:
        if not run["traced"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def summarise(runs: List[dict], metric: str) -> Tuple[float, float, float, int]:
    """(q1, median, q3, n) of one metric over a workload's runs."""
    entries = [run["end_to_end"][metric] for run in runs]
    if len(entries) == 1:
        only = entries[0]
        return only["q1"], only["value"], only["q3"], only["n"]
    values = [entry["value"] for entry in entries]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, len(values)


def verdict(a, b, bound: float, better: str) -> Tuple[str, float]:
    """The verdict and B's relative worsening (negative = improvement)."""
    q1, median, q3, _n = a
    worsening = (b[1] - median) / median
    if better == "higher":
        worsening = -worsening
    if (q3 - q1) / median > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def compare(path_a: str, path_b: str) -> int:
    bounds = load_bounds()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    header = (f"{'workload':<16}{'metric':<16}{'A median [q1, q3] n':<40}"
              f"{'B median [q1, q3] n':<40}{'B/A':>8}  {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in runs_a:
        if workload not in runs_b:
            print(f"{workload:<16}(no runs in {path_b})")
            continue
        for metric, (bound, better) in bounds.items():
            a = summarise(runs_a[workload], metric)
            b = summarise(runs_b[workload], metric)
            word, _worsening = verdict(a, b, bound, better)
            worse += word == "worse"

            def cell(s):
                return f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}] n={s[3]}"

            print(f"{workload:<16}{metric:<16}{cell(a):<40}{cell(b):<40}"
                  f"{b[1] / a[1]:>8.3f}  {bound:>6.2f}  {word}")
        share_a = statistics.median(r["failed_share"] for r in runs_a[workload])
        share_b = statistics.median(r["failed_share"] for r in runs_b[workload])
        word = "worse" if share_b - share_a > FAILED_SHARE_SLACK else "same"
        worse += word == "worse"
        print(f"{workload:<16}{'failed_share':<16}{share_a:<40.6g}{share_b:<40.6g}"
              f"{'':>8}  {'+.001':>6}  {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
