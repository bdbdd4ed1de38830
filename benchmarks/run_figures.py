"""Regenerate every panel of the paper's Figure 5 (experiments E1-E4).

Prints the same series the paper plots — end-to-end execution time over the
number of models k (panels a-c) and over the number of rows (panel d) — and
writes the measured numbers to ``benchmarks/results/figures.json`` for
EXPERIMENTS.md.

Sizes are scaled from the paper's testbed (see DESIGN.md); set
``REPRO_FIG_ROWS`` / ``REPRO_FIG_COLS`` / ``REPRO_FIG_KMAX`` to re-scale.

Run:  python benchmarks/run_figures.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.lineage import clear_reuse_caches

from benchmarks.baselines import JuliaStyleBaseline, TFGraphBaseline, TFStyleBaseline
from benchmarks.workload import (
    WorkloadData,
    lambda_grid,
    run_sysds,
    sysds_config,
)

DENSE_ROWS = int(os.environ.get("REPRO_FIG_ROWS", "16000"))
DENSE_COLS = int(os.environ.get("REPRO_FIG_COLS", "256"))
SPARSE_ROWS = 2 * DENSE_ROWS
SPARSE_COLS = DENSE_COLS
K_MAX = int(os.environ.get("REPRO_FIG_KMAX", "70"))
K_GRID = tuple(k for k in (1, 10, 20, 30, 40, 50, 60, 70) if k <= K_MAX)
ROW_GRID_5D = tuple(int(r) for r in (SPARSE_ROWS // 4, SPARSE_ROWS // 2,
                                     SPARSE_ROWS, SPARSE_ROWS * 2))


def timed(func) -> float:
    start = time.time()
    func()
    return time.time() - start


def run_baseline(baseline, data: WorkloadData, k: int, sparse: bool) -> float:
    lambdas = lambda_grid(k)[:, 0]
    if sparse:
        return timed(
            lambda: baseline.run_sparse(data.x_path, data.y_path, lambdas, data.out_path)
        )
    return timed(lambda: baseline.run(data.x_path, data.y_path, lambdas, data.out_path))


def run_engine(data: WorkloadData, k: int, **config_kwargs) -> float:
    # the reuse cache lives for the process: without emptying it, a point
    # would be served by the entries of the points measured before it
    clear_reuse_caches()
    return timed(lambda: run_sysds(data, k, sysds_config(**config_kwargs)))


def print_panel(title: str, header, rows) -> None:
    print(f"\n=== {title} ===")
    print("  ".join(f"{h:>10}" for h in header))
    for row in rows:
        print("  ".join(f"{v:>10.2f}" if isinstance(v, float) else f"{v:>10}" for v in row))


def figure_5a(results: dict) -> None:
    data = WorkloadData(DENSE_ROWS, DENSE_COLS)
    series = {name: [] for name in ("TF", "TF-G", "Julia", "SysDS", "SysDS-B")}
    rows = []
    for k in K_GRID:
        tf = run_baseline(TFStyleBaseline(), data, k, sparse=False)
        tfg = run_baseline(TFGraphBaseline(), data, k, sparse=False)
        julia = run_baseline(JuliaStyleBaseline(), data, k, sparse=False)
        sysds = run_engine(data, k, native_blas=False)
        sysds_b = run_engine(data, k, native_blas=True)
        for name, value in zip(series, (tf, tfg, julia, sysds, sysds_b)):
            series[name].append(value)
        rows.append((k, tf, tfg, julia, sysds, sysds_b))
    print_panel(
        f"Figure 5(a) Baselines Dense [{DENSE_ROWS}x{DENSE_COLS}] (seconds)",
        ("k", "TF", "TF-G", "Julia", "SysDS", "SysDS-B"), rows,
    )
    results["fig5a"] = {"k": list(K_GRID), "series": series,
                        "shape": {"rows": DENSE_ROWS, "cols": DENSE_COLS}}


def figure_5b(results: dict) -> None:
    data = WorkloadData(SPARSE_ROWS, SPARSE_COLS, sparsity=0.1)
    series = {name: [] for name in ("TF", "TF-G", "Julia", "SysDS")}
    rows = []
    for k in K_GRID:
        tf = run_baseline(TFStyleBaseline(), data, k, sparse=True)
        tfg = run_baseline(TFGraphBaseline(), data, k, sparse=True)
        julia = run_baseline(JuliaStyleBaseline(), data, k, sparse=True)
        sysds = run_engine(data, k, native_blas=False)
        for name, value in zip(series, (tf, tfg, julia, sysds)):
            series[name].append(value)
        rows.append((k, tf, tfg, julia, sysds))
    print_panel(
        f"Figure 5(b) Baselines Sparse [{SPARSE_ROWS}x{SPARSE_COLS}, sp=0.1] (seconds)",
        ("k", "TF", "TF-G", "Julia", "SysDS"), rows,
    )
    results["fig5b"] = {"k": list(K_GRID), "series": series,
                        "shape": {"rows": SPARSE_ROWS, "cols": SPARSE_COLS}}


def figure_5c(results: dict) -> None:
    data = WorkloadData(DENSE_ROWS, DENSE_COLS)
    series = {"SysDS": [], "SysDS w/ Reuse": []}
    rows = []
    for k in K_GRID:
        plain = run_engine(data, k, native_blas=True)
        reuse = run_engine(data, k, native_blas=True, reuse=True)
        series["SysDS"].append(plain)
        series["SysDS w/ Reuse"].append(reuse)
        rows.append((k, plain, reuse, plain / reuse))
    print_panel(
        f"Figure 5(c) Reuse Dense [{DENSE_ROWS}x{DENSE_COLS}] (seconds)",
        ("k", "SysDS", "w/ Reuse", "speedup"), rows,
    )
    results["fig5c"] = {"k": list(K_GRID), "series": series}


def figure_5d(results: dict) -> None:
    k = K_GRID[-1]
    series = {"SysDS": [], "SysDS w/ Reuse": []}
    rows = []
    for n_rows in ROW_GRID_5D:
        data = WorkloadData(n_rows, SPARSE_COLS, sparsity=0.1)
        plain = run_engine(data, k, native_blas=True)
        reuse = run_engine(data, k, native_blas=True, reuse=True)
        series["SysDS"].append(plain)
        series["SysDS w/ Reuse"].append(reuse)
        rows.append((n_rows, plain, reuse, plain / reuse))
    print_panel(
        f"Figure 5(d) Reuse Sparse [cols={SPARSE_COLS}, sp=0.1, k={k}] (seconds)",
        ("nrow", "SysDS", "w/ Reuse", "speedup"), rows,
    )
    results["fig5d"] = {"rows": list(ROW_GRID_5D), "k": k, "series": series}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and a short k grid (smoke run)")
    parser.add_argument("--panel", choices=["a", "b", "c", "d"],
                        help="run a single panel")
    args = parser.parse_args()
    global DENSE_ROWS, DENSE_COLS, SPARSE_ROWS, SPARSE_COLS, K_GRID, ROW_GRID_5D
    if args.quick:
        DENSE_ROWS, DENSE_COLS = 2_000, 64
        SPARSE_ROWS, SPARSE_COLS = 4_000, 64
        K_GRID = (1, 5, 10)
        ROW_GRID_5D = (1_000, 2_000, 4_000)

    # warmup: page caches, BLAS thread pools, and interpreter imports, so
    # the first measured point is not a cold-start artifact
    warm = WorkloadData(1_000, 32, seed=1)
    for system in (TFStyleBaseline(), TFGraphBaseline(), JuliaStyleBaseline()):
        system.run(warm.x_path, warm.y_path, [0.1], warm.out_path)
        system.run_sparse(warm.x_path, warm.y_path, [0.1], warm.out_path)
    run_sysds(warm, 1, sysds_config(native_blas=True))
    run_sysds(warm, 1, sysds_config(native_blas=False))

    results = {"config": {"dense": [DENSE_ROWS, DENSE_COLS],
                          "sparse": [SPARSE_ROWS, SPARSE_COLS],
                          "k_grid": list(K_GRID)}}
    panels = {"a": figure_5a, "b": figure_5b, "c": figure_5c, "d": figure_5d}
    selected = [args.panel] if args.panel else list("abcd")
    for panel in selected:
        panels[panel](results)

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "figures.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"\nresults written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
