"""The process-wide reuse cache: content-keyed leaves shared across sessions.

Every ``MLContext``, ``PreparedScript`` and execution context with reuse
enabled holds a session on one store that lives for the process.  Leaves
name data by content, so a re-run on unchanged data is served from the
cache, and a changed input — even one that keeps its path, size and mtime —
is a miss.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.api.jmlc import PreparedScript
from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.io import csv as csv_io
from repro.io.mtd import write_mtd
from repro.lineage import ReuseCache, clear_reuse_caches
from repro.lineage.item import LineageItem

READ_SCRIPT = """
X = read(x_path)
G = t(X) %*% X
s = sum(G)
"""

MODELSEL_SCRIPT = """
X = read(x_path)
y = read(y_path)
k = nrow(lambdas)
B = matrix(0, ncol(X), k)
for (i in 1:k) {
  B[, i] = lmDS(X, y, reg=as.scalar(lambdas[i, 1]))
}
write(B, out_path, format="csv")
Xs = X[, 1:4]
[Bs, Ss] = steplm(Xs, y)
"""


def _config(**overrides):
    return ReproConfig(enable_lineage=True, reuse_policy="full_partial",
                       parallelism=2, **overrides)


def _write_csv(path, data):
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    write_mtd(str(path), *data.shape)


@pytest.fixture
def parses(monkeypatch):
    """Counts the CSV matrix parses of the test."""
    calls = []
    real = csv_io.read_csv_matrix

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(csv_io, "read_csv_matrix", counting)
    return calls


def _sum_of_gram(path, config=None):
    ml = MLContext(config or _config())
    result = ml.execute(READ_SCRIPT, inputs={"x_path": str(path)}, outputs=["s"])
    return result.scalar("s"), ml.reuse_cache.snapshot()


class TestReadLeaves:
    def test_rewrite_with_same_size_and_mtime_is_a_miss(self, tmp_path, parses):
        path = tmp_path / "X.csv"
        _write_csv(path, np.full((20, 3), 2.0))
        first, __ = _sum_of_gram(path)
        stamp = os.stat(path).st_mtime_ns
        size = os.path.getsize(path)
        _write_csv(path, np.full((20, 3), 3.0))
        os.utime(path, ns=(stamp, stamp))
        assert os.path.getsize(path) == size
        assert os.stat(path).st_mtime_ns == stamp
        second, snap = _sum_of_gram(path)
        assert first == 20 * 9 * 4.0
        assert second == 20 * 9 * 9.0
        assert snap["hits_full"] == 0
        assert len(parses) == 2

    def test_same_bytes_at_another_path_is_a_hit(self, tmp_path, parses):
        data = np.random.default_rng(3).random((30, 4))
        _write_csv(tmp_path / "a.csv", data)
        _write_csv(tmp_path / "b.csv", data)
        first, __ = _sum_of_gram(tmp_path / "a.csv")
        second, snap = _sum_of_gram(tmp_path / "b.csv")
        assert second == first
        assert snap["probes"] == snap["hits_full"] == 2  # the read, then t(X)X
        assert len(parses) == 1

    def test_read_parameters_are_part_of_the_key(self, tmp_path, parses):
        path = tmp_path / "X.csv"
        path.write_text("1,2\n3,4\n")

        def run(read):
            MLContext(_config()).execute(
                f"X = {read}\ns = sum(t(X) %*% X)",
                inputs={"x_path": str(path)}, outputs=["s"])

        run('read(x_path, format="csv")')
        run('read(x_path, format="csv")')
        assert len(parses) == 1
        run('read(x_path, format="csv", header=FALSE)')
        assert len(parses) == 2


class TestAcrossSessions:
    @pytest.fixture
    def modelsel(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.random((200, 8))
        y = x @ rng.random((8, 1)) + 0.01 * rng.standard_normal((200, 1))
        _write_csv(tmp_path / "X.csv", x)
        _write_csv(tmp_path / "y.csv", y)
        inputs = {"x_path": str(tmp_path / "X.csv"),
                  "y_path": str(tmp_path / "y.csv"),
                  "out_path": str(tmp_path / "B.csv"),
                  "lambdas": np.logspace(-6, 1, 6).reshape(-1, 1)}

        def run():
            ml = MLContext(_config())
            result = ml.execute(MODELSEL_SCRIPT, inputs=inputs, outputs=["Bs", "Ss"])
            outputs = {name: result.matrix(name) for name in ("Bs", "Ss")}
            outputs["B"] = np.loadtxt(inputs["out_path"], delimiter=",", ndmin=2)
            return ml, result, outputs

        return run

    def test_second_session_parses_nothing_and_matches_bitwise(self, modelsel, parses):
        __, __, cold = modelsel()
        assert len(parses) == 2
        ml, __, warm = modelsel()
        assert len(parses) == 2  # neither X nor y is parsed again
        for name in cold:
            assert warm[name].tobytes() == cold[name].tobytes()
        snap = ml.reuse_cache.snapshot()
        assert snap["misses"] == 0 and snap["hits_full"] == snap["probes"] > 0

    def test_closing_one_session_keeps_the_next_sessions_hits(self, modelsel):
        __, first, cold = modelsel()
        first.close()
        ml, __, warm = modelsel()
        assert ml.reuse_cache.snapshot()["misses"] == 0
        assert warm["Bs"].tobytes() == cold["Bs"].tobytes()

    def test_repeated_runs_do_not_grow_the_cache(self, modelsel):
        sizes = []
        for __ in range(5):
            ml, result, __ = modelsel()
            result.close()
            snap = ml.reuse_cache.snapshot()
            sizes.append((snap["entries"], snap["used_bytes"]))
        assert len(set(sizes[1:])) == 1
        assert sizes[1] == sizes[0]

    def test_prepared_script_and_mlcontext_share_entries(self):
        config = ReproConfig(enable_lineage=True, reuse_policy="full")
        x = np.random.default_rng(5).random((40, 5))
        ml = MLContext(config)
        first = ml.execute("s = sum(t(X) %*% X)", inputs={"X": x}, outputs=["s"])
        ps = PreparedScript("s = sum(t(X) %*% X)", inputs=["X"], outputs=["s"],
                            config=config)
        second = ps.execute(X=x.copy())  # equal content, another object
        assert second.scalar("s") == first.scalar("s")
        mine, theirs = ml.reuse_cache.snapshot(), ps.reuse_cache.snapshot()
        assert (mine["probes"], mine["misses"], mine["hits_full"]) == (1, 1, 0)
        assert (theirs["probes"], theirs["misses"], theirs["hits_full"]) == (1, 0, 1)
        assert mine["entries"] == theirs["entries"] == 1

    def test_configs_with_other_kernels_do_not_share(self):
        x = np.random.default_rng(6).random((40, 5))
        script = "s = sum(t(X) %*% X)"
        blas = MLContext(ReproConfig(enable_lineage=True, reuse_policy="full"))
        blas.execute(script, inputs={"X": x}, outputs=["s"])
        tiled = MLContext(ReproConfig(enable_lineage=True, reuse_policy="full",
                                      native_blas=False))
        tiled.execute(script, inputs={"X": x}, outputs=["s"])
        assert tiled.reuse_cache.snapshot()["hits_full"] == 0
        again = MLContext(ReproConfig(enable_lineage=True, reuse_policy="full",
                                      enable_stats=True))  # scope-free field
        again.execute(script, inputs={"X": x}, outputs=["s"])
        assert again.reuse_cache.snapshot()["hits_full"] == 1

    def test_clear_reuse_caches_empties_the_store(self):
        x = np.random.default_rng(7).random((40, 5))
        ml = MLContext(ReproConfig(enable_lineage=True, reuse_policy="full"))
        ml.execute("s = sum(t(X) %*% X)", inputs={"X": x}, outputs=["s"])
        assert len(ml.reuse_cache) == 1
        clear_reuse_caches()
        assert len(ml.reuse_cache) == 0 and ml.reuse_cache.used == 0


class TestDeterministicFunctionLineage:
    def test_defaulted_parameter_traces_the_same_leaf_every_call(self):
        # the function is not inlined (it has a branch), so each call binds
        # its parameters; the defaulted r must not mint a fresh leaf per call
        source = """
        f = function(matrix[double] X, double r = 2) return (matrix[double] Y) {
          Y = t(X) %*% (X * r)
          if (sum(Y) < 0) {
            Y = -Y
          }
        }
        A = f(X)
        B = f(X)
        s = sum(A - B)
        """
        ml = MLContext(ReproConfig(enable_lineage=True, reuse_policy="full"))
        x = np.random.default_rng(0).random((50, 4))
        result = ml.execute(source, inputs={"X": x}, outputs=["s"])
        assert result.scalar("s") == 0.0
        snap = ml.reuse_cache.snapshot()
        assert snap["probes"] == 2
        assert snap["hits_full"] == 1  # the second call's matmult


class TestConcurrentSessions:
    def test_sessions_sharing_the_store_lose_no_update(self):
        items = [LineageItem("op", (), str(i)) for i in range(50)]
        sessions = [ReuseCache() for __ in range(16)]

        def hammer(session):
            for step in range(400):
                item = items[step % len(items)]
                if session.probe(item) is None:
                    session.put(item, step, 8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(s,)) for s in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        snaps = [session.snapshot() for session in sessions]
        for snap in snaps:
            assert snap["probes"] == 400 == snap["hits_full"] + snap["misses"]
        # every key was stored exactly once, whichever session won the race
        assert sum(snap["puts"] for snap in snaps) == len(items)
        assert snaps[0]["entries"] == len(items)
        assert snaps[0]["used_bytes"] == 8 * len(items)
