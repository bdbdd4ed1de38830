"""Figure 5(c) — Reuse Dense (experiment E3 of DESIGN.md).

SysDS vs. SysDS with lineage-based reuse over the number of models k.
Expected shape: without reuse, time grows linearly in k; with reuse, the
lambda-independent t(X)%*%X and t(X)%*%y are served from the lineage cache
after the first model, so time is nearly flat (the paper reports a 4.6x
end-to-end speedup at k=70).
"""

import numpy as np
import pytest

from repro.lineage import clear_reuse_caches

from benchmarks.workload import (
    dense_workload,
    expected_model,
    lambda_grid,
    run_sysds,
    sysds_config,
)

K_GRID = (1, 5, 20, 40)


@pytest.fixture(autouse=True)
def _cold_reuse_cache():
    """Every measured run starts cold: the reuse cache lives for the
    process, and a run would otherwise hit the entries of the one before."""
    clear_reuse_caches()


def _verify(data, k):
    models = np.loadtxt(data.out_path, delimiter=",", ndmin=2)
    lam = lambda_grid(k)[-1, 0]
    np.testing.assert_allclose(models[:, [-1]], expected_model(data, lam), atol=1e-6)


@pytest.mark.parametrize("k", K_GRID)
def test_fig5c_sysds(benchmark, k):
    data = dense_workload()
    config = sysds_config(native_blas=True)
    benchmark.pedantic(lambda: run_sysds(data, k, config), rounds=1, iterations=1)
    _verify(data, k)


@pytest.mark.parametrize("k", K_GRID)
def test_fig5c_sysds_reuse(benchmark, k):
    data = dense_workload()

    def run():
        config = sysds_config(native_blas=True, reuse=True)
        ml = run_sysds(data, k, config)
        if k > 1:
            assert ml.reuse_cache.stats["hits_full"] >= 2 * (k - 1)
        return ml

    benchmark.pedantic(run, rounds=1, iterations=1)
    _verify(data, k)
