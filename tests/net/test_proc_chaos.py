"""Worker-process chaos end to end.

With ``--transport tcp``, a SIGKILLed federated site worker and a
SIGKILLed RDD task executor must each respawn — with publication replay
on the federated side — and the run must complete *bit-identical* to the
fault-free in-process twin.  A checkpointed run whose workers died must
restore under ``--resume``.

These are full MLContext runs against the process-global transport, so
the suite keeps them few and small.
"""

import os
import shutil
import signal
import tempfile

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.errors import InjectedCrashError
from repro.federated.site import FederatedWorkerRegistry
from repro.net import registry_for
from repro.net.proc import ProcTransport
from repro.tensor import BasicTensorBlock

#: The two sites sit on different site workers (crc32 % 2), so every
#: federated operation scatters under the faults.
L2SVM_SCRIPT = """
Xf = federated(addresses=list("net-a:9001/X", "net-c:9001/X"),
               ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:8) {
  margin = Xf %*% w
  diff = margin - y
  grad = t(Xf) %*% diff
  w = w - (0.1 / nrow(Xf)) * grad
}
obj = sum(diff * diff)
"""

BLOCKED_MATMUL_SCRIPT = """
Z = matrix(0, nrow(X), ncol(Y))
for (i in 1:4) {
  Z = Z + X %*% Y
}
s = sum(Z)
"""

#: Forces every matrix op through the distributed SimRDD backend.
_SPARK = {"operator_memory_fraction": 1e-7, "block_size": 4}

_FAST_RETRY = {"retry_budget": 5, "retry_backoff_ms": 0.0,
               "retry_backoff_max_ms": 0.0}


def _l2svm_inputs(rows=60, features=4, seed=5):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, features))
    labels = data @ rng.standard_normal((features, 1))
    split = rows // 2
    inputs = {
        "y": labels,
        "R1": np.asarray([[0.0, 0.0, float(split), float(features)]]),
        "R2": np.asarray([[float(split), 0.0, float(rows), float(features)]]),
    }
    return data, split, inputs


def _host(registry, data, split):
    registry.start_site("net-a:9001").put(
        "X", BasicTensorBlock.from_numpy(data[:split])
    )
    registry.start_site("net-c:9001").put(
        "X", BasicTensorBlock.from_numpy(data[split:])
    )


def _run_l2svm(config, data, split, inputs):
    registry = registry_for(config)
    registry.clear()
    _host(registry, data, split)
    try:
        ml = MLContext(config)
        result = ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"])
        return result.matrix("w"), result.scalar("obj"), ml
    finally:
        registry.clear()


class TestFederatedWorkerKills:
    def test_l2svm_bit_identical_after_sigkilled_site_worker(self):
        data, split, inputs = _l2svm_inputs()
        clean_w, clean_obj, __ = _run_l2svm(ReproConfig(), data, split, inputs)
        chaos_config = ReproConfig(
            transport="tcp",
            fault_spec="fed.worker:fail=2",  # SIGKILL on the first two requests
            fault_seed=11,
            enable_stats=True,
            **_FAST_RETRY,
        )
        chaos_w, chaos_obj, ml = _run_l2svm(chaos_config, data, split, inputs)
        np.testing.assert_array_equal(chaos_w, clean_w)
        assert chaos_obj == clean_obj
        section = ml.stats().snapshot()["transport"]
        assert section["mode"] == "tcp"
        assert section["worker_deaths"] >= 1
        assert section["worker_respawns"] >= 1
        assert section["replayed_publications"] >= 1

    def test_fault_free_proc_run_matches_inproc_bitwise(self):
        data, split, inputs = _l2svm_inputs(seed=9)
        clean_w, clean_obj, __ = _run_l2svm(ReproConfig(), data, split, inputs)
        proc_w, proc_obj, __ = _run_l2svm(
            ReproConfig(transport="tcp"), data, split, inputs
        )
        np.testing.assert_array_equal(proc_w, clean_w)
        assert proc_obj == clean_obj

    def test_federated_byte_accounting_survives_the_proc_boundary(self):
        # privacy tests key off per-site message/byte counters; they must
        # keep counting when the site lives in another process
        data, split, inputs = _l2svm_inputs(seed=13)
        config = ReproConfig(transport="tcp", enable_stats=True)
        registry = registry_for(config)
        registry.clear()
        _host(registry, data, split)
        try:
            ml = MLContext(config)
            ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w"])
            federated = ml.stats().snapshot()["federated"]
            assert federated["totals"]["sites"] == 2
            assert federated["totals"]["requests"] > 0
            assert federated["totals"]["bytes_sent"] > 0
        finally:
            registry.clear()


class TestRddWorkerKills:
    def _run(self, config, inputs):
        result = MLContext(config).execute(
            BLOCKED_MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"]
        )
        return np.asarray(result.matrix("Z")), result.scalar("s")

    def test_blocked_matmul_bit_identical_after_sigkilled_executor(self):
        rng = np.random.default_rng(17)
        inputs = {"X": rng.random((12, 10)), "Y": rng.random((10, 6))}
        clean_z, clean_s = self._run(ReproConfig(**_SPARK), inputs)
        chaos_config = ReproConfig(
            transport="tcp",
            fault_spec="rdd.worker:fail=2",
            fault_seed=23,
            enable_stats=True,
            **_SPARK, **_FAST_RETRY,
        )
        ml = MLContext(chaos_config)
        result = ml.execute(
            BLOCKED_MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"]
        )
        np.testing.assert_array_equal(np.asarray(result.matrix("Z")), clean_z)
        assert result.scalar("s") == clean_s
        section = ml.stats().snapshot()["transport"]
        assert section["worker_deaths"] >= 1
        assert section["worker_respawns"] >= 1


class TestCheckpointResumeWithDeadWorkers:
    def _kill_transport_workers(self):
        transport = ProcTransport.default()
        killed = 0
        for pool in transport._pools.values():
            for handle in pool:
                if handle is not None and handle.alive():
                    os.kill(handle.pid, signal.SIGKILL)
                    handle.process.join(timeout=10.0)
                    killed += 1
        return killed

    def test_resume_restores_a_run_whose_workers_died(self):
        rng = np.random.default_rng(29)
        inputs = {"X": rng.random((12, 10)), "Y": rng.random((10, 6))}
        base = dict(transport="tcp", **_SPARK)
        uninterrupted_z, uninterrupted_s = TestRddWorkerKills._run(
            TestRddWorkerKills(), ReproConfig(**base), inputs
        )
        ckpt_dir = tempfile.mkdtemp(prefix="repro-net-ckpt-")
        try:
            crash_config = ReproConfig(
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
                enable_lineage=True,
                fault_spec="checkpoint.boundary:crash=2",
                **base,
            )
            with pytest.raises(InjectedCrashError):
                MLContext(crash_config).execute(
                    BLOCKED_MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"]
                )
            # the machine "loses" every worker process between the crash
            # and the resume
            assert self._kill_transport_workers() > 0
            resume_config = ReproConfig(
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
                enable_lineage=True, **base,
            )
            ml = MLContext(resume_config)
            ml.checkpoints().prepare_resume()
            result = ml.execute(
                BLOCKED_MATMUL_SCRIPT, inputs=inputs, outputs=["Z", "s"]
            )
            np.testing.assert_array_equal(
                np.asarray(result.matrix("Z")), uninterrupted_z
            )
            assert result.scalar("s") == uninterrupted_s
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    def test_resume_restores_a_federated_run_whose_sites_died(self):
        data, split, inputs = _l2svm_inputs(seed=31)
        config = ReproConfig(transport="tcp")
        uninterrupted_w, uninterrupted_obj, __ = _run_l2svm(
            config, data, split, inputs
        )
        ckpt_dir = tempfile.mkdtemp(prefix="repro-net-fed-ckpt-")
        registry = registry_for(config)
        registry.clear()
        _host(registry, data, split)
        try:
            crash_config = ReproConfig(
                transport="tcp",
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
                enable_lineage=True,
                fault_spec="checkpoint.boundary:crash=3",
            )
            with pytest.raises(InjectedCrashError):
                MLContext(crash_config).execute(
                    L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"]
                )
            assert self._kill_transport_workers() > 0
            resume_config = ReproConfig(
                transport="tcp", checkpoint_dir=ckpt_dir,
                checkpoint_every=1, enable_lineage=True,
            )
            ml = MLContext(resume_config)
            ml.checkpoints().prepare_resume()
            result = ml.execute(L2SVM_SCRIPT, inputs=inputs, outputs=["w", "obj"])
            # the checkpoint materialised the federated tensor locally, so
            # the resumed tail runs local plans: equal within tolerance
            np.testing.assert_allclose(
                np.asarray(result.matrix("w")), np.asarray(uninterrupted_w),
                rtol=1e-9, atol=1e-12,
            )
        finally:
            registry.clear()
            shutil.rmtree(ckpt_dir, ignore_errors=True)


class TestQaLatticeProcConfigs:
    def test_proc_twins_are_bitwise_and_excluded_from_quick(self):
        from repro.qa.lattice import Lattice

        lattice = Lattice.default()
        assert "proc_federated" not in lattice  # folded into ``tcp``
        assert lattice["tcp_spark"].bitwise
        assert lattice["tcp_spark"].reference == "spark"
        assert lattice["tcp_spark"].overrides["transport"] == "tcp"
        assert "tcp" not in Lattice.QUICK
        assert "tcp_spark" not in Lattice.QUICK

    def test_differential_runner_finds_no_divergence_on_proc_twins(self):
        from repro.qa.lattice import Lattice
        from repro.qa.runner import DifferentialRunner

        FederatedWorkerRegistry.default().clear()
        lattice = Lattice.default().subset(["tcp", "tcp_spark"])
        runner = DifferentialRunner(lattice=lattice)
        rng = np.random.default_rng(37)
        source = "Z = X %*% Y\ns = sum(Z)\n"
        results, divergences = runner.run_source(
            source,
            {"X": rng.standard_normal((8, 5)), "Y": rng.standard_normal((5, 4))},
            [("Z", "matrix"), ("s", "scalar")],
            seed=37,
        )
        assert all(r.ok for r in results), [r.error for r in results]
        assert divergences == []
