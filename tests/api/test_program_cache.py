"""The process-wide program cache behind ``MLContext`` and ``PreparedScript``."""

import dataclasses
import glob
import os
import re

import numpy as np
import pytest

from repro.api import jmlc
from repro.api.jmlc import PreparedScript
from repro.api.mlcontext import MLContext
from repro.compiler.compile import compile_script
from repro.config import ReproConfig
from repro.lineage import clear_reuse_caches
from repro.lineage.cache import _SCOPE_FREE_FIELDS

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: A loop body whose operand grows each iteration: a cold run recompiles
#: it once per iteration, a warm run finds every plan on the block.
LOOP = """
A = X
s = 0
for (i in 1:8) {
  A = cbind(A, X)
  s = s + sum(t(A) %*% A)
}
"""


def _loop_inputs():
    return {"X": np.random.default_rng(3).random((30, 4))}


class TestSharedPrograms:
    def test_equal_configs_share_one_program_and_its_plans(self):
        first, second = ReproConfig(), ReproConfig()
        assert first == second and first is not second
        cold = MLContext(first).execute(LOOP, _loop_inputs(), ["s"])
        warm = MLContext(second).execute(LOOP, _loop_inputs(), ["s"])
        assert cold.scalar("s") == warm.scalar("s")
        assert cold.metrics["recompiles"] > 5
        assert warm.metrics["recompiles"] <= 5
        assert MLContext(first).prepare(LOOP, ["X"], ["s"]).program is \
            MLContext(second).prepare(LOOP, ["X"], ["s"]).program

    def test_traces_serve_later_runs_with_an_equal_config(self):
        source = "s = 0.0\nfor (i in 1:20) {\n  s = s + sum(X * 2 + 1)\n}"
        x = np.ones((4, 3))
        for __ in range(3):
            ml = MLContext(ReproConfig(trace_threshold=4))
            assert ml.execute(source, {"X": x}, ["s"]).scalar("s") == 20 * 36.0
        snap = ml.prepare(source, ["X"], ["s"])._traces.snapshot()
        assert snap["traces_compiled"] == 1
        assert snap["guard_failures"] == 0
        assert snap["trace_hits"] > 2 * 16

    def test_both_apis_share_the_program(self):
        ml = MLContext().prepare(LOOP, ["X"], ["s"])
        ps = PreparedScript(LOOP, inputs=["X"], outputs=["s"])
        assert ps.program is ml.program

    def test_config_scope_change_gets_its_own_program(self):
        plain = MLContext().prepare(LOOP, ["X"], ["s"]).program
        other = MLContext(ReproConfig(enable_rewrites=False)).prepare(
            LOOP, ["X"], ["s"]).program
        assert other is not plain
        assert other.config.enable_rewrites is False

    def test_outputs_are_part_of_the_key(self):
        with_s = PreparedScript(LOOP, inputs=["X"], outputs=["s"]).program
        with_g = PreparedScript(LOOP, inputs=["X"], outputs=["s", "G"]).program
        assert with_s is not with_g

    def test_clear_reuse_caches_empties_the_program_cache(self):
        program = PreparedScript(LOOP, inputs=["X"], outputs=["s"]).program
        assert jmlc._PROGRAMS
        clear_reuse_caches()
        assert not jmlc._PROGRAMS
        assert PreparedScript(LOOP, inputs=["X"], outputs=["s"]).program \
            is not program

    def test_cache_is_bounded(self):
        for index in range(jmlc.PROGRAM_CACHE_ENTRIES + 5):
            PreparedScript(f"y = {index}", inputs=[], outputs=["y"])
        assert len(jmlc._PROGRAMS) == jmlc.PROGRAM_CACHE_ENTRIES

    def test_concurrent_runs_of_varied_shapes_share_the_program(self):
        import sys
        import threading

        def reference(x):
            a, total = x, 0.0
            for __ in range(8):
                a = np.hstack([a, x])
                total += (a.T @ a).sum()
            return total

        errors = []

        def caller(seed):
            rng = np.random.default_rng(seed)
            try:
                for rows in (5, 9, 5, 13):
                    x = rng.random((rows + seed, 3))
                    got = MLContext().execute(LOOP, {"X": x}, ["s"]).scalar("s")
                    assert got == pytest.approx(reference(x))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(jmlc._PROGRAMS) == 1

    def test_program_cache_holds_no_pool_or_context(self):
        import gc

        from repro.runtime.bufferpool import BufferPool
        from repro.runtime.context import ExecutionContext

        MLContext().execute(LOOP, _loop_inputs(), ["s"]).close()
        held = gc.get_referents(*jmlc._PROGRAMS.values())
        seen, frontier = set(), list(held)
        while frontier:
            obj = frontier.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (BufferPool, ExecutionContext))
            frontier.extend(gc.get_referents(obj))


class TestMetadataValidation:
    """A program folds dims from each ``.mtd`` it reads: a rewritten file
    must recompile, not serve the old dims."""

    @staticmethod
    def _write(path, rows, cols, value):
        MLContext().execute(
            f'Y = matrix({value}, rows={rows}, cols={cols})\n'
            f'write(Y, "{path}", format="csv")'
        )

    def _script(self, tmp_path):
        path = str(tmp_path / "X.csv")
        self._write(path, 10, 3, 10.0 / 3.0)
        return path, f'X = read("{path}")\nn = nrow(X)\nm = ncol(X)\ns = sum(X)'

    @staticmethod
    def _read(results):
        return (results.scalar("n"), results.scalar("m"),
                pytest.approx(results.scalar("s")))

    def test_prepared_script_sees_the_rewritten_file(self, tmp_path):
        path, source = self._script(tmp_path)
        ps = PreparedScript(source, inputs=[], outputs=["n", "m", "s"])
        assert self._read(ps.execute()) == (10, 3, 100.0)
        self._write(path, 20, 5, 1.0)
        assert self._read(ps.execute()) == (20, 5, 100.0)

    def test_mlcontext_sees_the_rewritten_file(self, tmp_path):
        path, source = self._script(tmp_path)
        assert self._read(MLContext().execute(source, outputs=["n", "m", "s"])) \
            == (10, 3, 100.0)
        before = MLContext().prepare(source, outputs=["n", "m", "s"]).program
        self._write(path, 20, 5, 1.0)
        assert self._read(MLContext().execute(source, outputs=["n", "m", "s"])) \
            == (20, 5, 100.0)
        assert MLContext().prepare(source, outputs=["n", "m", "s"]).program \
            is not before

    def test_unchanged_file_keeps_the_program(self, tmp_path):
        _, source = self._script(tmp_path)
        first = MLContext().prepare(source, outputs=["n"]).program
        assert first.mtd_reads
        assert MLContext().prepare(source, outputs=["n"]).program is first


def _flipped(field: dataclasses.Field, value, tmp):
    """Another valid value of a config field."""
    special = {
        "spill_dir": tmp, "checkpoint_dir": tmp, "transport": "tcp",
        "transport_host": "0.0.0.0", "fault_spec": "spill.write:p=0.5",
        "max_instructions": 10**6,
    }
    if field.name in special:
        return special[field.name]
    if isinstance(value, bool):
        return not value
    return value * 2 + 1


def _canonical(explain: str) -> str:
    """Explain output with compiler-generated names numbered by first use
    (temp and fused-kernel ids come from process-wide counters)."""
    names = {}

    def rename(match):
        prefix = match.group(1)
        return names.setdefault(match.group(0), f"{prefix}#{len(names)}")

    return re.sub(r"(_t|fused_cell_)\d+", rename, explain)


class TestScopeFreeFields:
    """The cache shares a program across configs that differ only in
    ``_SCOPE_FREE_FIELDS``: none of them may change what the compiler
    emits."""

    @pytest.mark.parametrize("name", sorted(_SCOPE_FREE_FIELDS))
    def test_field_leaves_the_compiled_program_unchanged(self, name, tmp_path):
        scripts = sorted(glob.glob(os.path.join(EXAMPLES, "*.dml")))
        assert scripts
        base = ReproConfig()
        field = next(f for f in dataclasses.fields(base) if f.name == name)
        other = base.copy(**{name: _flipped(field, getattr(base, name),
                                            str(tmp_path))})
        assert getattr(other, name) != getattr(base, name)
        for script in scripts:
            with open(script, encoding="utf-8") as handle:
                source = handle.read()
            assert _canonical(compile_script(source, other).explain()) == \
                _canonical(compile_script(source, base).explain()), script
