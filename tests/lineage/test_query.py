"""Tests for lineage query processing (debugging over traces)."""

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.lineage import query
from repro.lineage.item import LineageItem, input_item, literal_item


def _trace(source, inputs=None, output="Z", seed_inputs=None):
    ml = MLContext(ReproConfig(enable_lineage=True))
    result = ml.execute(source, inputs=inputs or {}, outputs=[output])
    return result.lineage(output)


class TestSearch:
    def test_find_by_opcode(self):
        item = _trace("Z = t(X) %*% X + t(X) %*% X * 2", {"X": np.ones((4, 3))})
        tsmm_nodes = query.find_by_opcode(item, "tsmm")
        assert len(tsmm_nodes) == 1  # CSE + dedup: one shared node

    def test_inputs_of(self):
        # input leaves name data by content: two inputs with different
        # values are two leaves, two with equal values one
        x, y = np.ones((2, 2)), np.full((2, 2), 2.0)
        item = _trace("Z = sum(X + Y)", {"X": x, "Y": y})
        leaves = query.inputs_of(item)
        assert len({leaf.key for leaf in leaves}) == 2
        assert all(leaf.opcode == "input" for leaf in leaves)
        same = _trace("Z = sum(X + Y)", {"X": x, "Y": x.copy()})
        assert len(query.inputs_of(same)) == 1

    def test_nondeterministic_ops_found(self):
        item = _trace("Z = sum(rand(rows=3, cols=3))", output="Z")
        generators = query.nondeterministic_ops(item)
        assert len(generators) == 1
        assert "seed=" in generators[0].data

    def test_opcode_histogram(self):
        # disable codegen so the trace keeps per-operator granularity
        ml = MLContext(ReproConfig(enable_lineage=True, enable_codegen=False))
        result = ml.execute("Z = abs(X) + abs(X) + abs(Y)",
                            inputs={"X": np.ones((2, 2)), "Y": np.full((2, 2), 2.0)},
                            outputs=["Z"])
        histogram = query.opcode_histogram(result.lineage("Z"))
        assert histogram["abs"] == 2  # abs(X) deduplicated, abs(Y) distinct
        assert histogram["+"] == 2

    def test_fused_regions_traced_by_signature(self):
        item = _trace("Z = abs(X) * 2 + 1", {"X": np.ones((2, 2))})
        fused = query.find_by_opcode(item, "fused")
        assert len(fused) == 1
        assert "signature=" in fused[0].data

    def test_depends_on(self):
        a = input_item("A", 1)
        b = input_item("B", 2)
        root = LineageItem("mm", [a, literal_item(2)])
        assert query.depends_on(root, a)
        assert not query.depends_on(root, b)


class TestDiff:
    def test_identical_traces_empty_diff(self):
        x = np.ones((3, 3))
        ml = MLContext(ReproConfig(enable_lineage=True))
        from repro.api.mlcontext import _to_data_object

        bound = _to_data_object(x)
        first = ml.execute("Z = sum(X * 2)", inputs={"X": bound}, outputs=["Z"])
        # the input guid differs between executes, so rebuild with one run
        item = first.lineage("Z")
        assert query.diff(item, item) == []

    def test_changed_literal_detected(self):
        left = LineageItem("*", [input_item("X", 1), literal_item(2)])
        right = LineageItem("*", [input_item("X", 1), literal_item(3)])
        differences = query.diff(left, right)
        assert len(differences) == 1
        kind, a, b = differences[0]
        assert kind == "data"
        assert "2" in a.data and "3" in b.data

    def test_changed_opcode_detected(self):
        left = LineageItem("+", [input_item("X", 1)])
        right = LineageItem("-", [input_item("X", 1)])
        assert query.diff(left, right)[0][0] == "opcode"

    def test_first_divergence_finds_deep_change(self):
        shared = input_item("X", 1)
        left = LineageItem("sum", [LineageItem("*", [shared, literal_item(2)])])
        right = LineageItem("sum", [LineageItem("*", [shared, literal_item(5)])])
        divergence = query.first_divergence(left, right)
        assert divergence is not None
        assert divergence[0].opcode == "lit"

    def test_first_divergence_none_for_equal(self):
        item = LineageItem("sum", [input_item("X", 1)])
        assert query.first_divergence(item, item) is None

    def test_diff_between_two_parameterised_runs(self):
        """The paper's debugging use case: compare traces of two runs."""
        x = np.random.default_rng(0).random((20, 4))
        traces = []
        for reg in (0.1, 0.9):
            ml = MLContext(ReproConfig(enable_lineage=True))
            result = ml.execute(
                "B = solve(t(X) %*% X + diag(matrix(reg, ncol(X), 1)), t(X) %*% y)",
                inputs={"X": x, "y": x @ np.ones((4, 1)), "reg": reg},
                outputs=["B"],
            )
            traces.append(result.lineage("B"))
        differences = query.diff(*traces)
        assert differences  # runs differ (different reg and input guids)
        kinds = {kind for kind, __, ___ in differences}
        assert "data" in kinds


class TestDot:
    def test_renders_graphviz(self):
        item = _trace("Z = t(X) %*% X", {"X": np.ones((3, 2))})
        dot = query.to_dot(item)
        assert dot.startswith("digraph lineage {")
        assert "tsmm" in dot
        assert "->" in dot

    def test_truncation(self):
        chain = literal_item(0)
        for i in range(20):
            chain = LineageItem("inc", [chain], str(i))
        dot = query.to_dot(chain, max_nodes=5)
        assert "truncated" in dot
