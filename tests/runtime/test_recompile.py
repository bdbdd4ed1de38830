"""Tests for dynamic recompilation (paper section 2.3(3))."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.mlcontext import MLContext
from repro.cli import main
from repro.compiler.blocks import BasicBlock, ForBlock, IfBlock
from repro.compiler.codegen import _SPARSE_GUARD
from repro.compiler.compile import compile_script
from repro.compiler.recompile import (
    _PLAN_CACHE,
    nnz_class,
    recompile_basic_block,
    stats_from_symbol_table,
)
from repro.compiler.sizes import VarStats
from repro.config import ReproConfig
from repro.runtime.context import ExecutionContext
from repro.runtime.data import MatrixObject, ScalarObject
from repro.runtime.interpreter import execute_program
from repro.tensor import BasicTensorBlock
from repro.tensor.block import SPARSITY_TURN_POINT
from repro.types import DataType, ExecType


class TestStatsFromSymbolTable:
    def test_collects_all_kinds(self):
        program = compile_script("x = 1", outputs=["x"])
        ctx = ExecutionContext(program, ReproConfig())
        ctx.set("s", ScalarObject(3.5))
        ctx.set("M", MatrixObject.from_block(BasicTensorBlock.rand((10, 4), seed=1)))
        stats = stats_from_symbol_table(ctx)
        assert stats["s"].data_type == DataType.SCALAR
        assert (stats["M"].rows, stats["M"].cols) == (10, 4)
        assert stats["M"].nnz >= 0


class TestRecompilation:
    def test_recompiled_instructions_fold_metadata(self):
        program = compile_script("n = ncol(X)\ny = n * 2", outputs=["y"])
        block = program.blocks[0]
        assert block.requires_recompile
        ctx = ExecutionContext(program, ReproConfig())
        ctx.set("X", MatrixObject.from_block(BasicTensorBlock.rand((5, 7), seed=1)))
        instructions = recompile_basic_block(block, ctx)
        # ncol folds to the live value: only the assignments remain
        literals = [op.literal.value for i in instructions for op in i.inputs if op.is_literal]
        assert 14 in literals or 7 in literals

    def test_recompile_switches_to_spark(self):
        cfg = ReproConfig(memory_budget=200 * 1024, block_size=64)
        program = compile_script("G = X %*% t(X)\ns = sum(G)", config=cfg, outputs=["s"])
        block = program.blocks[0]
        assert block.requires_recompile  # X unknown at compile time
        ctx = ExecutionContext(program, cfg)
        ctx.set("X", MatrixObject.from_block(BasicTensorBlock.rand((400, 64), seed=2)))
        instructions = recompile_basic_block(block, ctx)
        assert any(i.exec_type == ExecType.SPARK for i in instructions)

    def test_recompile_stays_cp_for_small(self):
        program = compile_script("G = X %*% t(X)\ns = sum(G)", outputs=["s"])
        ctx = ExecutionContext(program, ReproConfig())
        ctx.set("X", MatrixObject.from_block(BasicTensorBlock.rand((20, 4), seed=2)))
        instructions = recompile_basic_block(program.blocks[0], ctx)
        assert all(i.exec_type in (ExecType.CP, None) for i in instructions)

    def test_recompile_counted_in_metrics(self):
        ml = MLContext()
        result = ml.execute(
            "Y = removeEmpty(target=X, margin=\"rows\")\nn = nrow(Y)",
            inputs={"X": np.asarray([[1.0], [0.0], [2.0]])},
            outputs=["n"],
        )
        assert result.metrics["recompiles"] >= 1
        assert result.scalar("n") == 2

    def test_disable_recompile_still_correct(self):
        cfg = ReproConfig(enable_recompile=False)
        result = MLContext(cfg).execute(
            "Z = X %*% t(X)\ns = sum(Z)",
            inputs={"X": np.ones((4, 3))},
            outputs=["s"],
        )
        assert result.scalar("s") == 4 * 4 * 3
        assert result.metrics["recompiles"] == 0

    def test_loop_recompiles_track_growing_matrix(self):
        # cbind in a loop: the block is recompiled with fresh sizes each
        # iteration, so nrow/ncol fold to the right literals every time
        source = """
        A = X
        sizes = matrix(0, 3, 1)
        for (i in 1:3) {
          A = cbind(A, X)
          sizes[i, 1] = ncol(A)
        }
        """
        result = MLContext().execute(
            source, inputs={"X": np.ones((2, 2))}, outputs=["sizes"]
        )
        np.testing.assert_array_equal(result.matrix("sizes")[:, 0], [4, 6, 8])


class TestPlanCache:
    def test_same_shapes_reuse_plan(self):
        from repro.compiler.recompile import _PLAN_CACHE

        program = compile_script(
            "s = 0\nfor (i in 1:5) { s = s + sum(X %*% t(X)) }", outputs=["s"]
        )
        ml_ctx = ExecutionContext(program, ReproConfig())
        ml_ctx.set("X", MatrixObject.from_block(BasicTensorBlock.rand((10, 4), seed=1)))
        from repro.runtime.interpreter import execute_program

        execute_program(program, ml_ctx)
        body_block = program.blocks[1].body[0]
        plans = _PLAN_CACHE.get(body_block)
        assert plans is not None
        # two signatures at most: s is INT64 on entry to iteration 1 and
        # FP64 afterwards; iterations 2..5 all hit the second plan
        assert len(plans) <= 2

    def test_changing_shapes_get_distinct_plans(self):
        from repro.compiler.recompile import _PLAN_CACHE

        source = """
        A = X
        sizes = matrix(0, 3, 1)
        for (i in 1:3) {
          A = cbind(A, X)
          sizes[i, 1] = ncol(A)
        }
        """
        result = MLContext().execute(
            source, inputs={"X": np.ones((2, 2))}, outputs=["sizes"]
        )
        # correctness first: folded ncol literals track the growth
        np.testing.assert_array_equal(result.matrix("sizes")[:, 0], [4, 6, 8])

    def test_unseeded_rand_not_frozen_by_cache(self):
        source = """
        t = 0
        for (i in 1:4) {
          R = rand(rows=8, cols=8)
          t = t + sum(R)
        }
        first = sum(rand(rows=8, cols=8))
        """
        result = MLContext().execute(source, outputs=["t", "first"])
        # if the cached plan froze a seed, t would be 4x one draw
        assert result.scalar("t") != pytest.approx(4 * result.scalar("first"))


class TestWriteAfterReadHazard:
    """Regression tests for the snapshot mechanism in instruction generation."""

    def test_swap_via_temps(self):
        source = "tmp = a\na = b\nb = tmp"
        result = MLContext().execute(
            source, inputs={"a": 1, "b": 2}, outputs=["a", "b"]
        )
        assert (result.scalar("a"), result.scalar("b")) == (2, 1)

    def test_simultaneous_update_semantics(self):
        # both updates must read the *entry* values (x, y) = (y+x, x)
        source = "x = x + y\ny = y * 2"
        result = MLContext().execute(
            source, inputs={"x": 3, "y": 10}, outputs=["x", "y"]
        )
        assert result.scalar("x") == 13
        assert result.scalar("y") == 20

    def test_cg_beta_pattern(self):
        # the lmCG pattern that exposed the original bug: a variable is
        # both read (old value) and rebound (new value) in one block
        source = """
        old = n
        n = n * 3
        ratio = n / old
        """
        result = MLContext().execute(source, inputs={"n": 4.0}, outputs=["ratio"])
        assert result.scalar("ratio") == 3.0

    def test_matrix_entry_value_reads(self):
        source = """
        B = A * 2
        A = A + 100
        s = sum(B)
        """
        result = MLContext().execute(
            source, inputs={"A": np.ones((2, 2))}, outputs=["s", "A"]
        )
        assert result.scalar("s") == 8.0
        assert result.matrix("A")[0, 0] == 101.0


class TestWhileLoopShapeChanges:
    """Recompilation must track shapes that change across while iterations
    (the growth pattern the fuzzer's rbind-growing while loops exercise)."""

    def test_while_rbind_growth_is_tracked(self):
        source = """
        A = X
        i = 1
        while (i < 4) {
          A = rbind(A, X)
          i = i + 1
        }
        n = nrow(A)
        s = sum(A)
        """
        result = MLContext().execute(
            source, inputs={"X": np.ones((2, 3))}, outputs=["n", "s"]
        )
        assert result.scalar("n") == 8  # 2 + 3 * 2 rows
        assert result.scalar("s") == 8 * 3

    def test_while_folds_fresh_ncol_each_iteration(self):
        # ncol(A) is metadata-folded at recompile time; a stale plan would
        # freeze the first iteration's literal into every later one
        source = """
        A = X
        i = 1
        total = 0
        while (i < 4) {
          A = cbind(A, X)
          total = total + ncol(A)
          i = i + 1
        }
        """
        result = MLContext().execute(
            source, inputs={"X": np.ones((2, 2))}, outputs=["total"]
        )
        assert result.scalar("total") == 4 + 6 + 8

    def test_while_shape_growth_with_recompile_disabled_still_correct(self):
        cfg = ReproConfig(enable_recompile=False)
        source = """
        A = X
        i = 1
        while (i < 3) {
          A = rbind(A, A)
          i = i + 1
        }
        n = nrow(A)
        """
        result = MLContext(cfg).execute(
            source, inputs={"X": np.ones((2, 2))}, outputs=["n"]
        )
        assert result.scalar("n") == 8


class TestPlanCacheBounds:
    def _recompile_block(self):
        program = compile_script("s = sum(X %*% t(X))", outputs=["s"])
        block = program.blocks[0]
        assert block.requires_recompile
        return program, block

    def test_eviction_cap_bounds_plans_per_block(self):
        from repro.compiler.recompile import _MAX_PLANS_PER_BLOCK, _PLAN_CACHE

        program, block = self._recompile_block()
        config = ReproConfig()
        for rows in range(2, 2 + _MAX_PLANS_PER_BLOCK + 8):
            ctx = ExecutionContext(program, config)
            ctx.set("X", MatrixObject.from_block(
                BasicTensorBlock.rand((rows, 3), seed=rows)
            ))
            instructions = recompile_basic_block(block, ctx)
            assert instructions  # still served beyond the cap, just uncached
        assert len(_PLAN_CACHE[block]) <= _MAX_PLANS_PER_BLOCK

    def test_cache_keys_include_the_config(self):
        from repro.compiler.recompile import _PLAN_CACHE

        program, block = self._recompile_block()
        for config in (ReproConfig(), ReproConfig(enable_rewrites=False)):
            ctx = ExecutionContext(program, config)
            ctx.set("X", MatrixObject.from_block(
                BasicTensorBlock.rand((6, 3), seed=9)
            ))
            recompile_basic_block(block, ctx)
        # same statistics under two configs: two distinct cached plans
        assert len(_PLAN_CACHE[block]) == 2

    def test_same_context_hits_the_cached_plan(self):
        program, block = self._recompile_block()
        ctx = ExecutionContext(program, ReproConfig())
        ctx.set("X", MatrixObject.from_block(BasicTensorBlock.rand((5, 4), seed=3)))
        first = recompile_basic_block(block, ctx)
        second = recompile_basic_block(block, ctx)
        assert first is second  # identity: the cached instruction list


class TestPlanCacheMetrics:
    SCRIPT = """
f = function(Matrix[Double] X) return (Double s) {
  s = 0.0
  for (i in 1:5) {
    s = s + sum(X %*% t(X))
  }
}
s = f(rand(rows=10, cols=4, seed=1))
print(s)
"""

    def test_recompiles_count_misses_not_lookups(self, tmp_path, capsys):
        script = tmp_path / "loop.dml"
        script.write_text(self.SCRIPT)
        stats_json = tmp_path / "stats.json"
        code = main([
            str(script), "--trace-threshold", "10",
            "--stats", "--stats-json", str(stats_json),
        ])
        assert code == 0
        err = capsys.readouterr().err
        metrics = json.loads(stats_json.read_text())["metrics"]
        # five plan-cache lookups of one fixed-shape body: the first
        # misses, the rest hit (recompiles used to count every lookup)
        assert metrics["recompiles"] <= 2
        assert metrics["plan_cache_hits"] >= 3
        assert f"-- recompiles: {metrics['recompiles']}" in err
        assert f"-- plan_cache_hits: {metrics['plan_cache_hits']}" in err


class TestNnzClass:
    @staticmethod
    def _side(nnz, cells):
        return (nnz / cells < _SPARSE_GUARD, nnz / cells < SPARSITY_TURN_POINT)

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.integers(1, 1 << 20),
        cols=st.integers(1, 1 << 12),
        frac=st.floats(0.0, 1.0),
    )
    def test_class_bounds_are_idempotent_and_keep_thresholds(self, rows, cols, frac):
        cells = rows * cols
        nnz = int(frac * cells)
        cls = nnz_class(rows, cols, nnz)
        assert nnz <= cls <= cells
        assert nnz_class(rows, cols, cls) == cls
        if nnz > 0:
            assert self._side(cls, cells) == self._side(nnz, cells)
        assert nnz_class(rows, cols, 0) == 0
        assert nnz_class(rows, cols, -1) == -1

    def test_threshold_neighbours(self):
        # every nnz around both thresholds of a 1000-cell block
        for nnz in range(1, 1001):
            cls = nnz_class(100, 10, nnz)
            assert nnz <= cls <= 1000
            assert self._side(cls, 1000) == self._side(nnz, 1000)
        assert nnz_class(100, 10, 199) == 199  # capped just under 0.2
        assert nnz_class(100, 10, 300) == 399  # capped just under 0.4
        assert nnz_class(100, 10, 400) == 1000


ACTIVE_SET = """
train = function(Matrix[Double] X, Matrix[Double] y)
    return (Matrix[Double] w, Double miscount, Double total) {
  w = matrix(0, rows=ncol(X), cols=1)
  miscount = 0.0
  total = 0.0
  for (i in 1:60) {
    active = (1 - y * (X %*% w)) > 0
    if (sum(active) > 0) {
      miscount = miscount + abs(nnz(active) - sum(active))
      total = total + nnz(active)
      w = w + 0.5 * t(X) %*% (y * active) / nrow(X) - 0.01 * w
    }
  }
}
X = rand(rows=2000, cols=16, seed=7) - 0.5
y = sign(X %*% rand(rows=16, cols=1, seed=8))
[w, miscount, total] = train(X, y)
"""


def _basic_blocks(blocks):
    for block in blocks:
        if isinstance(block, BasicBlock):
            yield block
        elif isinstance(block, ForBlock):
            yield from _basic_blocks(block.body)
        elif isinstance(block, IfBlock):
            yield from _basic_blocks(block.then_blocks)
            yield from _basic_blocks(block.else_blocks)


class TestSparsityDrift:
    """A loop whose 0/1 active set drifts in sparsity keeps its plan."""

    def _run(self, config):
        program = compile_script(ACTIVE_SET, config, {}, ["w", "miscount", "total"])
        ctx = ExecutionContext(program, config, print_handler=lambda text: None)
        execute_program(program, ctx)
        w = ctx.get("w").acquire_local(ctx.collect).to_numpy()
        return w, ctx, program

    def test_drifting_active_set_keeps_plan_and_traces(self):
        w, ctx, program = self._run(ReproConfig())
        body = list(_basic_blocks(program.functions["train"].blocks))
        assert any(block.requires_recompile for block in body)
        for block in body:
            assert len(_PLAN_CACHE.get(block, {})) <= 2
        assert ctx.traces.snapshot()["invalidations_recompile"] <= 2
        reference, _, _ = self._run(ReproConfig(enable_recompile=False))
        assert w.tobytes() == reference.tobytes()

    def test_nnz_reads_exact_count_in_recompiled_body(self):
        _, ctx, _ = self._run(ReproConfig())
        # nnz(active) is read where active is a live-in keyed by its class:
        # it must never fold to the class bound the plan was compiled for
        assert ctx.get("miscount").value == 0.0
        # the active set shrank below all-ones, so the exact counts varied
        assert ctx.get("total").value < 60 * 2000
