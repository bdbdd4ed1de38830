"""Figure 5(d) — Reuse Sparse (experiment E4 of DESIGN.md).

SysDS vs. SysDS with reuse at fixed k, varying the number of rows of the
sparse input (sparsity 0.1).  Expected shape: the reuse speedup *grows*
with the input size because after reuse only row-independent intermediates
(k x k solves) remain.
"""

import numpy as np
import pytest

from repro.lineage import clear_reuse_caches

from benchmarks.workload import (
    SPARSE_COLS,
    expected_model,
    lambda_grid,
    run_sysds,
    sparse_workload,
    sysds_config,
)

#: Scaled version of the paper's 33K..3.3M row sweep.
ROW_GRID = (4_000, 12_000, 36_000)

#: Fixed number of models (paper: 70).
K_MODELS = 20


@pytest.fixture(autouse=True)
def _cold_reuse_cache():
    """Every measured run starts cold: the reuse cache lives for the
    process, and a run would otherwise hit the entries of the one before."""
    clear_reuse_caches()


def _verify(data):
    models = np.loadtxt(data.out_path, delimiter=",", ndmin=2)
    lam = lambda_grid(K_MODELS)[-1, 0]
    np.testing.assert_allclose(models[:, [-1]], expected_model(data, lam), atol=1e-6)


@pytest.mark.parametrize("rows", ROW_GRID)
def test_fig5d_sysds(benchmark, rows):
    data = sparse_workload(rows=rows, cols=SPARSE_COLS)
    config = sysds_config(native_blas=True)
    benchmark.pedantic(lambda: run_sysds(data, K_MODELS, config), rounds=1, iterations=1)
    _verify(data)


@pytest.mark.parametrize("rows", ROW_GRID)
def test_fig5d_sysds_reuse(benchmark, rows):
    data = sparse_workload(rows=rows, cols=SPARSE_COLS)
    config = sysds_config(native_blas=True, reuse=True)
    benchmark.pedantic(lambda: run_sysds(data, K_MODELS, config), rounds=1, iterations=1)
    _verify(data)
