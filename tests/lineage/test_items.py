"""Unit tests for lineage items and tracing."""

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.lineage.item import LineageItem, input_item, literal_item, pread_item
from repro.lineage.tracer import LineageTracer


class TestLineageItem:
    def test_key_deterministic(self):
        a = LineageItem("mm", [literal_item(1), literal_item(2)])
        b = LineageItem("mm", [literal_item(1), literal_item(2)])
        assert a.key == b.key
        assert a == b

    def test_key_sensitive_to_opcode(self):
        inputs = [literal_item(1)]
        assert LineageItem("t", inputs).key != LineageItem("rev", inputs).key

    def test_key_sensitive_to_order(self):
        x, y = input_item("x", 1), input_item("y", 2)
        assert LineageItem("-", [x, y]).key != LineageItem("-", [y, x]).key

    def test_key_sensitive_to_data(self):
        assert literal_item(1).key != literal_item(2).key
        assert literal_item(1).key != literal_item(1.0).key  # typed payloads

    def test_input_guid_distinguishes_objects(self):
        assert input_item("X", 1).key != input_item("X", 2).key

    def test_pread_keyed_by_content(self, tmp_path):
        from repro.lineage.tracer import read_digest

        first, copy = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("1,2\n3,4\n")
        copy.write_text("1,2\n3,4\n")
        key = pread_item(read_digest(str(first), {})).key
        assert pread_item(read_digest(str(copy), {})).key == key
        assert pread_item(read_digest(str(first), {"sep": ";"})).key != key
        first.write_text("1,2\n3,5\n")
        assert pread_item(read_digest(str(first), {})).key != key

    def test_iter_nodes_visits_dag_once(self):
        shared = literal_item(5)
        root = LineageItem("+", [shared, shared])
        nodes = list(root.iter_nodes())
        assert len(nodes) == 2

    def test_depth_and_count(self):
        chain = literal_item(0)
        for i in range(5):
            chain = LineageItem("inc", [chain], str(i))
        assert chain.depth() == 6
        assert chain.count_nodes() == 6

    def test_explain_renders_topologically(self):
        root = LineageItem("mm", [input_item("X", 1), input_item("y", 2)])
        text = root.explain()
        lines = text.splitlines()
        assert len(lines) == 3
        assert "mm" in lines[-1]


class TestTracer:
    def test_dedup_interns_identical_subtrees(self):
        tracer = LineageTracer(dedup=True)
        a = tracer.make("mm", [tracer.make("lit", (), "1")])
        b = tracer.make("mm", [tracer.make("lit", (), "1")])
        assert a is b
        assert tracer.stats["interned_hits"] >= 2

    def test_no_dedup_keeps_distinct_objects(self):
        tracer = LineageTracer(dedup=False)
        a = tracer.make("mm", [tracer.make("lit", (), "1")])
        b = tracer.make("mm", [tracer.make("lit", (), "1")])
        assert a is not b
        assert a == b  # still structurally equal

    def test_copy_binding(self):
        tracer = LineageTracer()
        item = tracer.make("lit", (), "9")
        tracer.items["a"] = item
        tracer.copy_binding("a", "b")
        assert tracer.items["b"] is item


class TestEndToEndTracing:
    def _ml(self):
        return MLContext(ReproConfig(enable_lineage=True))

    def test_output_lineage_exposed(self):
        x = np.ones((4, 3))
        result = self._ml().execute("Z = t(X) %*% X + 1", inputs={"X": x}, outputs=["Z"])
        item = result.lineage("Z")
        assert item is not None
        assert item.opcode == "+"
        text = item.explain()
        assert "tsmm" in text
        assert "input" in text

    def test_identical_scripts_same_lineage_structure(self):
        x = np.ones((4, 3))
        first = self._ml().execute("Z = sum(X * 2)", inputs={"X": x}, outputs=["Z"])
        second = self._ml().execute("Z = sum(X * 2)", inputs={"X": x}, outputs=["Z"])
        # guids differ (different bound objects) but the shape matches
        assert first.lineage("Z").opcode == second.lineage("Z").opcode
        assert first.lineage("Z").count_nodes() == second.lineage("Z").count_nodes()

    def test_rand_seed_in_lineage(self):
        source = "Z = rand(rows=3, cols=3, seed=42)\ns = sum(Z)"
        result = self._ml().execute(source, outputs=["Z", "s"])
        item = result.lineage("Z")
        assert item.opcode == "datagen"
        assert "seed=42" in item.data

    def test_nondeterministic_seed_recorded(self):
        source = "Z = rand(rows=3, cols=3)"
        result = self._ml().execute(source, outputs=["Z"])
        assert "seed=" in result.lineage("Z").data

    def test_loop_lineage_dedup_bounds_memory(self):
        source = """
        A = X
        for (i in 1:50) {
          A = A * 1.5 - A * 0.5
        }
        s = sum(A)
        """
        cfg = ReproConfig(enable_lineage=True, enable_lineage_dedup=True)
        result = MLContext(cfg).execute(
            source, inputs={"X": np.ones((2, 2))}, outputs=["s"]
        )
        item = result.lineage("s")
        # per iteration the DAG grows by a constant number of interned nodes
        assert item.count_nodes() < 50 * 5

    def test_lineage_through_functions(self):
        source = """
        f = function(Matrix[Double] A) return (Matrix[Double] R) { R = A * 2 }
        Z = f(X)
        """
        result = self._ml().execute(source, inputs={"X": np.ones((2, 2))}, outputs=["Z"])
        item = result.lineage("Z")
        assert item.opcode == "*"  # fine-grained, not an opaque fcall node
