"""Differential execution of one DML program across the lattice.

The runner executes a program once per :class:`~repro.qa.lattice.LatticeConfig`
and compares every declared output against the config's reference run
(``baseline`` unless the config names a fault-free twin).  Non-chaos
configs compare within a small tolerance — distinct physical plans
legitimately reorder float arithmetic — while chaos configs compare
bit-identically, which is exactly the guarantee the resilience layer
makes (PR 3): injected-and-recovered faults never change a result.
A config with lineage reuse on runs twice; its second run, served from the
process-wide reuse cache the first one filled, must match the reference
as well.  Each program starts with an empty reuse cache.

Federated configs re-bind eligible inputs through ``federated(...)``:
each input matrix is row-partitioned onto two uniquely-named in-process
sites and the program is prefixed with a prelude that reconstructs the
variable from the sites, so the *same* program text exercises the
federated runtime without the generator knowing about federation.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.mlcontext import MLContext
from repro.errors import InjectedCrashError
from repro.federated.site import FederatedWorkerRegistry
from repro.lineage import clear_reuse_caches
from repro.net import registry_for
from repro.qa.generator import MATRIX, SCALAR, GeneratedProgram
from repro.qa.lattice import Lattice, LatticeConfig
from repro.tensor import BasicTensorBlock


class FuzzStats:
    """Thread-safe counters for a fuzz campaign; feeds the obs ``qa``
    section (see :func:`repro.obs.report.attach_qa`)."""

    _FIELDS = (
        "programs",
        "executions",
        "comparisons",
        "divergences",
        "invalid_programs",
        "shrink_checks",
        "corpus_entries",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in self._FIELDS}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)


@dataclasses.dataclass
class RunResult:
    """One program executed under one lattice config."""

    config_name: str
    ok: bool
    error: Optional[str] = None
    #: output name -> np.ndarray (matrix) or python scalar
    values: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Divergence:
    """One disagreement between a config and its reference."""

    seed: int
    config_name: str
    #: "error" (one side raised), "shape", or "value"
    kind: str
    detail: str
    source: str
    output: Optional[str] = None

    def describe(self) -> str:
        where = f" output {self.output!r}" if self.output else ""
        return (f"seed={self.seed} config={self.config_name}{where} "
                f"[{self.kind}] {self.detail}")


class DifferentialRunner:
    """Runs programs across a lattice and reports divergences."""

    #: Default per-run instruction budget: ~10x above what any generated
    #: program needs, so only runaway loops (e.g. shrink candidates that
    #: lost a loop's exit condition) hit it.
    DEFAULT_MAX_INSTRUCTIONS = 50_000

    def __init__(self, lattice: Optional[Lattice] = None,
                 stats: Optional[FuzzStats] = None,
                 max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS):
        self.lattice = lattice if lattice is not None else Lattice.default()
        self.stats = stats if stats is not None else FuzzStats()
        self.max_instructions = max_instructions

    # --- top level ---------------------------------------------------------

    def run_program(
        self, program: GeneratedProgram
    ) -> Tuple[List[RunResult], List[Divergence]]:
        """Execute ``program`` under every lattice config.

        Returns all per-config results plus the divergences found.  A
        program whose *baseline* run fails is counted invalid (a
        generator bug, not a system bug) and produces no divergences.
        """
        self.stats.increment("programs")
        return self.run_source(
            program.source,
            program.materialized_inputs(),
            program.outputs,
            seed=program.seed,
        )

    def run_source(
        self,
        source: str,
        inputs: Dict[str, np.ndarray],
        outputs: Sequence[Tuple[str, str]],
        seed: int = 0,
    ) -> Tuple[List[RunResult], List[Divergence]]:
        results: Dict[str, RunResult] = {}
        divergences: List[Divergence] = []
        # every program starts cold, so a divergence replays the same way
        clear_reuse_caches()
        for config in self.lattice:
            result = self._execute(config, source, inputs, outputs, seed)
            results[config.name] = result
            if config.name == self.lattice.baseline.name:
                if not result.ok:
                    self.stats.increment("invalid_programs")
                    return [result], []
                continue
            reference = results[config.reference or self.lattice.baseline.name]
            divergences.extend(
                self._compare(config, result, reference, outputs, source, seed)
            )
            if config.build_config().reuse_enabled:
                warm = self._execute(config, source, inputs, outputs, seed)
                divergences.extend(
                    dataclasses.replace(d, detail=f"warm rerun: {d.detail}")
                    for d in self._compare(config, warm, reference, outputs,
                                           source, seed)
                )
        self.stats.increment("divergences", len(divergences))
        return list(results.values()), divergences

    # --- execution ---------------------------------------------------------

    def _execute(
        self,
        config: LatticeConfig,
        source: str,
        inputs: Dict[str, np.ndarray],
        outputs: Sequence[Tuple[str, str]],
        seed: int,
    ) -> RunResult:
        self.stats.increment("executions")
        run_source = source
        run_inputs = dict(inputs)
        hosted: List[str] = []
        repro_config = config.build_config()
        # tcp-transport configs host inputs on the transport's proxy
        # registry so the sites live in the worker processes the run
        # will actually talk to
        registry = registry_for(repro_config)
        if (self.max_instructions is not None
                and "max_instructions" not in config.overrides):
            repro_config.max_instructions = self.max_instructions
        try:
            if config.federated:
                run_source, run_inputs, hosted = self._federate_inputs(
                    config, source, inputs, seed, registry
                )
            output_names = [name for name, __ in outputs]
            if config.crash_resume:
                result = self._execute_crash_resume(
                    repro_config, run_source, run_inputs, output_names
                )
            else:
                result = MLContext(repro_config).execute(
                    run_source, inputs=run_inputs, outputs=output_names
                )
            values: Dict[str, object] = {}
            for name, kind in outputs:
                if kind == MATRIX:
                    values[name] = np.asarray(result.matrix(name))
                else:
                    values[name] = result.scalar(name)
            return RunResult(config_name=config.name, ok=True, values=values)
        except Exception as exc:  # noqa: BLE001 - any failure is a result
            return RunResult(
                config_name=config.name,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            for address in hosted:
                registry.stop_site(address)
            if repro_config.spill_dir is not None:
                shutil.rmtree(repro_config.spill_dir, ignore_errors=True)

    def _execute_crash_resume(
        self,
        repro_config,
        source: str,
        inputs: Dict[str, np.ndarray],
        output_names: Sequence[str],
    ):
        """Run with checkpointing, crash at the 2nd boundary, resume.

        Returns the resumed run's :class:`~repro.api.mlcontext.Results`
        (or the uninterrupted result when the program is too short to
        reach the injected crash).
        """
        ckpt_dir = tempfile.mkdtemp(prefix="repro-qa-ckpt-")
        crash_config = repro_config.copy(
            checkpoint_dir=ckpt_dir,
            checkpoint_every=1,
            fault_spec="checkpoint.boundary:crash=2",
        )
        resume_config = repro_config.copy(
            checkpoint_dir=ckpt_dir, checkpoint_every=1
        )
        try:
            try:
                return MLContext(crash_config).execute(
                    source, inputs=inputs, outputs=output_names
                )
            except InjectedCrashError:
                pass
            ml = MLContext(resume_config)
            ml.checkpoints().prepare_resume()
            return ml.execute(source, inputs=inputs, outputs=output_names)
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            for cfg in (crash_config, resume_config):
                if cfg.spill_dir is not None and cfg.spill_dir != repro_config.spill_dir:
                    shutil.rmtree(cfg.spill_dir, ignore_errors=True)

    def _federate_inputs(
        self,
        config: LatticeConfig,
        source: str,
        inputs: Dict[str, np.ndarray],
        seed: int,
        registry: FederatedWorkerRegistry,
    ) -> Tuple[str, Dict[str, np.ndarray], List[str]]:
        """Host every splittable input on two sites and prepend a
        ``federated(...)`` prelude re-binding it."""
        prelude: List[str] = []
        run_inputs: Dict[str, np.ndarray] = {}
        hosted: List[str] = []
        for name, data in inputs.items():
            data = np.asarray(data, dtype=float)
            if data.ndim != 2 or data.shape[0] < 2:
                run_inputs[name] = data
                continue
            rows, cols = data.shape
            split = rows // 2
            addr_a = f"qa-{seed}-{config.name}-{name}-a:9001"
            addr_b = f"qa-{seed}-{config.name}-{name}-b:9001"
            registry.start_site(addr_a).put(
                name, BasicTensorBlock.from_numpy(data[:split])
            )
            registry.start_site(addr_b).put(
                name, BasicTensorBlock.from_numpy(data[split:])
            )
            hosted.extend([addr_a, addr_b])
            range_a = f"__qa_{name}_r1"
            range_b = f"__qa_{name}_r2"
            run_inputs[range_a] = np.asarray(
                [[0.0, 0.0, float(split), float(cols)]]
            )
            run_inputs[range_b] = np.asarray(
                [[float(split), 0.0, float(rows), float(cols)]]
            )
            prelude.append(
                f'{name} = federated('
                f'addresses=list("{addr_a}/{name}", "{addr_b}/{name}"), '
                f'ranges=list({range_a}, {range_b}))'
            )
        return "\n".join(prelude) + "\n" + source, run_inputs, hosted

    # --- comparison --------------------------------------------------------

    def _compare(
        self,
        config: LatticeConfig,
        result: RunResult,
        reference: RunResult,
        outputs: Sequence[Tuple[str, str]],
        source: str,
        seed: int,
    ) -> List[Divergence]:
        if not reference.ok:
            # the reference itself failed (e.g. a federated quirk): nothing
            # sound to compare against, and the reference's own comparison
            # against baseline already reported the error
            return []
        if not result.ok:
            return [Divergence(
                seed=seed, config_name=config.name, kind="error",
                detail=f"failed while {reference.config_name} succeeded: "
                       f"{result.error}",
                source=source,
            )]
        divergences: List[Divergence] = []
        for name, kind in outputs:
            self.stats.increment("comparisons")
            mine = result.values.get(name)
            theirs = reference.values.get(name)
            divergence = self._compare_value(config, name, kind, mine, theirs)
            if divergence is not None:
                divergence = dataclasses.replace(
                    divergence, seed=seed, source=source
                )
                divergences.append(divergence)
        return divergences

    def _compare_value(
        self,
        config: LatticeConfig,
        name: str,
        kind: str,
        mine,
        theirs,
    ) -> Optional[Divergence]:
        if kind == MATRIX:
            mine = np.asarray(mine, dtype=float)
            theirs = np.asarray(theirs, dtype=float)
            if mine.shape != theirs.shape:
                return Divergence(
                    seed=0, config_name=config.name, kind="shape",
                    detail=f"{mine.shape} vs {theirs.shape}",
                    source="", output=name,
                )
            if config.bitwise:
                same = np.array_equal(mine, theirs)
            else:
                same = np.allclose(
                    mine, theirs,
                    rtol=config.rtol, atol=config.atol, equal_nan=True,
                )
            if not same:
                delta = float(np.max(np.abs(mine - theirs))) if mine.size else 0.0
                return Divergence(
                    seed=0, config_name=config.name, kind="value",
                    detail=f"max abs delta {delta:.3e} "
                           f"(bitwise={config.bitwise}, rtol={config.rtol})",
                    source="", output=name,
                )
            return None
        # scalars (floats, ints, bools)
        a, b = float(mine), float(theirs)
        if config.bitwise:
            same = (a == b) or (np.isnan(a) and np.isnan(b))
        else:
            same = bool(np.isclose(a, b, rtol=config.rtol, atol=config.atol,
                                   equal_nan=True))
        if not same:
            return Divergence(
                seed=0, config_name=config.name, kind="value",
                detail=f"{a!r} vs {b!r} (bitwise={config.bitwise})",
                source="", output=name,
            )
        return None
