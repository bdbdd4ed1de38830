"""Tests for the JMLC prepared-script API and the lazy matrix binding."""

import gc
import threading

import numpy as np
import pytest

from repro.api.jmlc import PreparedScript
from repro.api.matrix import LazyMatrix, matrix, solve
from repro.config import ReproConfig
from repro.errors import RuntimeDMLError


class TestPreparedScript:
    def test_repeated_execution(self):
        ps = PreparedScript("yhat = X %*% B", inputs=["X", "B"], outputs=["yhat"])
        model = np.asarray([[1.0], [2.0]])
        for scale in (1.0, 2.0, 3.0):
            batch = np.full((4, 2), scale)
            out = ps.execute(X=batch, B=model)
            np.testing.assert_allclose(out.matrix("yhat"), batch @ model)

    def test_missing_input_rejected(self):
        ps = PreparedScript("y = X * 2", inputs=["X"], outputs=["y"])
        with pytest.raises(RuntimeDMLError, match="missing"):
            ps.execute()

    def test_unexpected_input_rejected(self):
        ps = PreparedScript("y = 1", inputs=[], outputs=["y"])
        with pytest.raises(RuntimeDMLError, match="unexpected"):
            ps.execute(Z=np.ones((1, 1)))

    def test_string_literal_next_to_untyped_input(self):
        # compiled without input statistics, ``a * 2`` may be a matrix:
        # cell fusion must not render the string literal as a float
        ps = PreparedScript('s = "value: " + (a * 2)', inputs=["a"], outputs=["s"])
        assert ps.execute(a=21).scalar("s") == "value: 42"

    def test_adapts_to_changing_shapes(self):
        ps = PreparedScript("n = nrow(X)", inputs=["X"], outputs=["n"])
        assert ps.execute(X=np.ones((3, 2))).scalar("n") == 3
        assert ps.execute(X=np.ones((7, 2))).scalar("n") == 7

    def test_reuse_across_calls_with_same_object(self):
        cfg = ReproConfig(enable_lineage=True, reuse_policy="full")
        ps = PreparedScript("s = sum(t(X) %*% X)", inputs=["X"], outputs=["s"],
                            config=cfg)
        x = np.random.default_rng(1).random((80, 6))
        first = ps.execute(X=x).scalar("s")
        hits = ps.reuse_cache.stats["hits_full"]
        second = ps.execute(X=x).scalar("s")
        assert first == second
        assert ps.reuse_cache.stats["hits_full"] > hits

    def test_no_stale_reuse_for_new_object(self):
        cfg = ReproConfig(enable_lineage=True, reuse_policy="full")
        ps = PreparedScript("s = sum(t(X) %*% X)", inputs=["X"], outputs=["s"],
                            config=cfg)
        a = np.ones((10, 2))
        b = np.full((10, 2), 3.0)
        assert ps.execute(X=a).scalar("s") != ps.execute(X=b).scalar("s")

    @staticmethod
    def _input_key(ps, value):
        results = ps.execute(X=value)
        try:
            return results.lineage("y").inputs[0].key
        finally:
            results.close()

    def test_input_leaf_keyed_by_content(self):
        cfg = ReproConfig(enable_lineage=True)
        ps = PreparedScript("y = X * 2", inputs=["X"], outputs=["y"], config=cfg)
        value = np.ones((2, 2))
        key = self._input_key(ps, value)
        assert self._input_key(ps, value) == key
        assert self._input_key(ps, np.ones((2, 2))) == key  # equal content
        assert self._input_key(ps, np.full((2, 2), 3.0)) != key

    def test_input_leaf_ignores_recycled_id(self):
        # a dead object's id() can be recycled by a new allocation; the leaf
        # is keyed on content, so the recycled id cannot inherit anything
        cfg = ReproConfig(enable_lineage=True)
        ps = PreparedScript("y = X * 2", inputs=["X"], outputs=["y"], config=cfg)
        value = np.ones((4, 4))
        old_id = id(value)
        old_key = self._input_key(ps, value)
        del value
        gc.collect()
        for _ in range(100):  # provoke CPython into recycling the address
            replacement = np.zeros((4, 4))
            if id(replacement) == old_id:
                assert self._input_key(ps, replacement) != old_key
                break
            del replacement

    def test_input_binding_holds_no_strong_ref_to_arrays(self):
        import weakref

        cfg = ReproConfig(enable_lineage=True, reuse_policy="full")
        ps = PreparedScript("y = t(X) %*% X", inputs=["X"], outputs=["y"],
                            config=cfg)
        value = np.ones((2, 2))
        ps.execute(X=value).close()
        watcher = weakref.ref(value)
        del value
        gc.collect()
        assert watcher() is None  # neither the script nor the cache leaks inputs

    def test_concurrent_execute_from_8_threads(self):
        cfg = ReproConfig(enable_lineage=True, reuse_policy="full")
        ps = PreparedScript("yhat = X %*% B", inputs=["X", "B"],
                            outputs=["yhat"], config=cfg)
        model = np.random.default_rng(0).random((6, 1))
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(25):
                    batch = rng.random((3, 6))
                    out = ps.execute(X=batch, B=model).matrix("yhat")
                    np.testing.assert_allclose(out, batch @ model)
            except Exception as exc:  # noqa: BLE001 - collect for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestLazyMatrix:
    def test_arithmetic_dag(self):
        x = matrix(np.asarray([[1.0, 2.0], [3.0, 4.0]]))
        result = ((x + 1) * 2 - x / 2).compute()
        data = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(result, (data + 1) * 2 - data / 2)

    def test_matmul_and_transpose(self):
        data = np.random.default_rng(0).random((5, 3))
        result = (matrix(data).t() @ matrix(data)).compute()
        np.testing.assert_allclose(result, data.T @ data)

    def test_scalar_aggregates(self):
        data = np.random.default_rng(1).random((4, 4))
        assert matrix(data).sum().compute() == pytest.approx(data.sum())
        assert matrix(data).mean().compute() == pytest.approx(data.mean())

    def test_axis_aggregates(self):
        data = np.random.default_rng(2).random((4, 6))
        np.testing.assert_allclose(
            matrix(data).sum(axis=0).compute(), data.sum(0, keepdims=True)
        )
        np.testing.assert_allclose(
            matrix(data).sum(axis=1).compute(), data.sum(1, keepdims=True)
        )

    def test_indexing(self):
        data = np.arange(24, dtype=float).reshape(4, 6)
        np.testing.assert_array_equal(
            matrix(data)[1:3, 2:5].compute(), data[1:3, 2:5]
        )

    def test_shared_subexpression_compiled_once(self):
        data = np.random.default_rng(3).random((10, 4))
        x = matrix(data)
        gram = x.t() @ x
        expr = (gram + gram).sum()
        script, __, ___ = expr.to_dml()
        # the gram variable appears once as a definition
        assert script.count("%*%") == 1

    def test_solve(self):
        a = np.asarray([[3.0, 1.0], [1.0, 2.0]])
        b = np.asarray([[9.0], [8.0]])
        result = solve(matrix(a), matrix(b)).compute()
        np.testing.assert_allclose(a @ result, b)

    def test_result_cached(self):
        x = matrix(np.ones((2, 2)))
        expr = x.sum()
        first = expr.compute()
        assert expr.compute() is first or expr.compute() == first

    def test_reverse_operators(self):
        data = np.ones((2, 2))
        np.testing.assert_allclose((10 - matrix(data)).compute(), 10 - data)
        np.testing.assert_allclose((2 / (matrix(data) + 1)).compute(), 1.0)

    def test_cbind_rbind(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 2))
        np.testing.assert_array_equal(
            matrix(a).cbind(matrix(b)).compute(), np.hstack([a, b])
        )
        np.testing.assert_array_equal(
            matrix(a).rbind(matrix(b)).compute(), np.vstack([a, b])
        )

    def test_comparison_produces_indicator(self):
        data = np.asarray([[0.2, 0.8]])
        np.testing.assert_array_equal(
            (matrix(data) > 0.5).compute(), [[0.0, 1.0]]
        )

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="1D or 2D"):
            matrix(np.ones((2, 2, 2)))


class TestCli:
    def test_script_execution(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.dml"
        script.write_text('print("value: " + (a * 2))\n')
        rc = main([str(script), "--args", "a=21"])
        assert rc == 0
        assert "value: 42" in capsys.readouterr().out

    def test_stats_flag(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.dml"
        script.write_text("x = 1 + 1\nprint(x)\n")
        rc = main([str(script), "--stats"])
        assert rc == 0
        assert "instructions" in capsys.readouterr().err

    def test_explain_flag(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.dml"
        script.write_text("x = 1\nprint(x)\n")
        rc = main([str(script), "--explain"])
        assert rc == 0
        assert "GENERIC" in capsys.readouterr().err

    def test_missing_script(self, capsys):
        from repro.cli import main

        assert main(["/no/such/file.dml"]) == 2

    def test_script_error_reported(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "bad.dml"
        script.write_text('stop("fail hard")\n')
        rc = main([str(script)])
        assert rc == 1
        assert "fail hard" in capsys.readouterr().err

    def test_value_parsing(self):
        from repro.cli import _parse_args, _parse_value

        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("TRUE") is True
        assert _parse_value("text") == "text"
        assert _parse_args(["a=1", "b=x"]) == {"a": 1, "b": "x"}

    def test_no_script_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--no-prefetch", "--connect-timeout=5", "--reconnect-retries=4",
    ])
    def test_unsupported_tuning_flag_is_a_usage_error(self, tmp_path, capsys,
                                                      flag):
        from repro.cli import main

        script = tmp_path / "s.dml"
        script.write_text("print(1)\n")
        with pytest.raises(SystemExit) as exc:
            main([str(script), flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_proc_transport_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.dml"
        script.write_text("print(1)\n")
        with pytest.raises(SystemExit) as exc:
            main([str(script), "--transport", "proc"])
        assert exc.value.code == 2
        assert "invalid choice: 'proc'" in capsys.readouterr().err
