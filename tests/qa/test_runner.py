"""The differential runner: agreement, divergence detection, federation."""

import numpy as np
import pytest

from repro.federated.site import FederatedWorkerRegistry
from repro.qa.generator import ProgramGenerator
from repro.qa.lattice import Lattice, LatticeConfig
from repro.qa.runner import DifferentialRunner, FuzzStats


def run(lattice, source, inputs, outputs, seed=0):
    runner = DifferentialRunner(lattice)
    results, divergences = runner.run_source(source, inputs, outputs, seed=seed)
    return runner, results, divergences


class TestAgreement:
    def test_trivial_program_agrees_on_quick_lattice(self):
        __, results, divergences = run(
            Lattice.parse("quick"),
            "S = sum(M0 * 2) + 1\n",
            {"M0": np.arange(12.0).reshape(3, 4)},
            [("S", "scalar")],
        )
        assert divergences == []
        assert all(r.ok for r in results)
        assert results[0].values["S"] == pytest.approx(133.0)

    def test_generated_program_agrees_on_full_lattice(self):
        program = ProgramGenerator(seed=5).generate()
        lattice = Lattice.default()
        runner = DifferentialRunner(lattice)
        results, divergences = runner.run_program(program)
        assert divergences == []
        assert results[0].ok
        # one execution per config, plus the warm rerun of lineage_reuse
        warm = sum(config.build_config().reuse_enabled for config in lattice)
        assert warm == 1
        assert runner.stats.counter("executions") == len(lattice) + warm

    def test_invalid_program_is_counted_not_diverged(self):
        runner = DifferentialRunner(Lattice.parse("baseline,no_codegen"))
        results, divergences = runner.run_source(
            "X = undefined_var + 1\n", {}, [("X", "scalar")]
        )
        assert divergences == []
        assert not results[0].ok
        assert runner.stats.counter("invalid_programs") == 1


class TestDivergenceDetection:
    def _seed_lattice(self):
        # rand() without an explicit seed draws from config.random_seed,
        # so overriding it makes a config genuinely diverge from baseline
        return Lattice([
            LatticeConfig(name="baseline", description=""),
            LatticeConfig(name="other_seed", description="",
                          overrides={"random_seed": 12345}),
        ])

    def test_value_divergence_detected(self):
        __, __, divergences = run(
            self._seed_lattice(),
            "X = rand(rows=3, cols=3)\n",
            {},
            [("X", "matrix")],
        )
        assert len(divergences) == 1
        assert divergences[0].kind == "value"
        assert divergences[0].config_name == "other_seed"
        assert "other_seed" in divergences[0].describe()

    def test_error_divergence_detected(self):
        lattice = Lattice([
            LatticeConfig(name="baseline", description=""),
            LatticeConfig(name="starved", description="",
                          overrides={"max_instructions": 1}),
        ])
        # matrix ops over a bound input cannot be constant-folded away,
        # so the starved config genuinely exceeds its one-instruction budget
        __, __, divergences = run(
            lattice,
            "X = M0 + 1\nY = X * 2\nZ = Y + X\n",
            {"M0": np.ones((3, 3))},
            [("Z", "matrix")],
        )
        assert len(divergences) == 1
        assert divergences[0].kind == "error"
        assert "instruction budget" in divergences[0].detail

    def test_scalar_tolerance_respected(self):
        lattice = Lattice([
            LatticeConfig(name="baseline", description=""),
            LatticeConfig(name="loose", description="",
                          overrides={"random_seed": 999},
                          rtol=10.0, atol=10.0),
        ])
        # different unseeded rand data, but tolerance 10 absorbs it
        __, __, divergences = run(
            lattice, "s = mean(rand(rows=3, cols=3))\n", {}, [("s", "scalar")]
        )
        assert divergences == []


class TestFederatedExecution:
    def test_federated_config_hosts_and_cleans_up_sites(self):
        registry = FederatedWorkerRegistry.default()
        before = set(registry._sites)
        lattice = Lattice.default().subset(["federated"])
        __, results, divergences = run(
            lattice,
            "S = sum(M0)\nC = colSums(M0)\n",
            {"M0": np.arange(20.0).reshape(5, 4)},
            [("S", "scalar"), ("C", "matrix")],
            seed=424242,
        )
        assert divergences == []
        assert all(r.ok for r in results)
        federated = next(r for r in results if r.config_name == "federated")
        assert federated.values["S"] == pytest.approx(190.0)
        assert set(registry._sites) == before  # qa sites removed again

    def test_single_row_inputs_are_not_federated(self):
        lattice = Lattice.default().subset(["federated"])
        __, results, divergences = run(
            lattice,
            "S = sum(R)\n",
            {"R": np.asarray([[1.0, 2.0, 3.0]])},
            [("S", "scalar")],
        )
        assert divergences == []
        assert all(r.ok for r in results)


class TestFuzzStats:
    def test_counters_accumulate_and_snapshot(self):
        stats = FuzzStats()
        stats.increment("programs")
        stats.increment("executions", 11)
        snapshot = stats.snapshot()
        assert snapshot["programs"] == 1
        assert snapshot["executions"] == 11
        assert snapshot["divergences"] == 0

    def test_feeds_the_obs_qa_section(self):
        from repro.obs import StatsRegistry, attach_qa

        registry = StatsRegistry()
        stats = FuzzStats()
        stats.increment("programs", 3)
        attach_qa(registry, stats)
        assert registry.snapshot()["qa"]["programs"] == 3
        assert "Differential fuzzing" in registry.report()
