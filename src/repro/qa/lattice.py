"""The configuration lattice the differential runner sweeps.

Every :class:`LatticeConfig` names one point in the physical-plan space:
a set of :class:`repro.config.ReproConfig` overrides plus how its results
are compared (against which reference, bitwise or within tolerance) and
whether inputs are re-bound through federated sites.

The default lattice covers the axes the paper claims are semantically
transparent:

=================  =========================================================
name               what it exercises
=================  =========================================================
baseline           default config, tracing off — the pure-interpreter
                   reference for everything else
no_rewrites        rewrites/CSE/fusion/IPA off (raw HOP DAG semantics)
no_codegen         cell-template code generation off
no_recompile       dynamic recompilation off (static plans only)
python_kernels     non-BLAS tiled matmult kernel (SysDS vs. SysDS-B)
spark              distributed operators forced via a tiny operator budget
lineage_reuse      lineage tracing + full reuse of repeated subcomputations;
                   run twice, the warm second run served from the
                   process-wide reuse cache the first one filled
traced             hot blocks fused into compiled traces; bit-identical
federated          inputs hosted on two federated sites, row-partitioned
chaos_spill        buffer-pool spill faults + retries; must be bit-identical
chaos_federated    federated request faults + failover; bit-identical
chaos_crash        crash mid-program + checkpoint resume; bit-identical
chaos_spark        distributed task faults + task retry; bit-identical
tcp                federated sites behind workers on real TCP addresses
                   (tcp transport); bit-identical to the in-process twin
tcp_spark          RDD tasks in worker processes on real TCP addresses;
                   bit-identical to the in-process spark twin
chaos_tcp          tcp transport under seeded wire faults — partitions,
                   duplicated and bit-flipped frames — recovered by
                   reconnect + same-id resend + dedup; bit-identical
ooc                out-of-core: tiny pool + compressed spills, paged
                   synchronously; bit-identical to the baseline
chaos_ooc          ooc under spill read/write faults + retries;
                   bit-identical (recovery must stay invisible)
ooc_cla_exec       ooc with compressed-space kernels on; tolerance-only
                   (compressed reductions reorder float arithmetic)
=================  =========================================================

Chaos configs compare *bitwise* against their fault-free twin: PR 3's
guarantee is that injected faults plus recovery never change a result.
Non-chaos configs compare within a small tolerance against ``baseline``
because different plans legitimately reorder float arithmetic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.config import ReproConfig

#: Overrides that force distributed operators on tiny test matrices: the
#: per-operator budget shrinks to ~214 bytes while the buffer pool keeps
#: its full 2 GiB, so every matrix op goes through the SimRDD backend.
_SPARK_OVERRIDES = {"operator_memory_fraction": 1e-7, "block_size": 4}

#: Fast-retry settings shared by all chaos configs (no real sleeping).
_CHAOS_RETRY = {
    "retry_budget": 5,
    "retry_backoff_ms": 0.0,
    "retry_backoff_max_ms": 0.0,
}

#: Out-of-core overrides: the CP plan stays the baseline plan (full
#: operator budget) while the buffer pool shrinks to ~500 bytes, so every
#: intermediate pages through compressed spills.
_OOC_OVERRIDES = {
    "memory_budget": 16 * 1024,
    "operator_memory_fraction": 1.0,
    "bufferpool_fraction": 0.03,
    "spill_compress": True,
}


@dataclasses.dataclass(frozen=True)
class LatticeConfig:
    """One named point of the configuration lattice."""

    name: str
    description: str
    overrides: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Host inputs on federated sites and rebind them via ``federated()``.
    federated: bool = False
    #: Compare bit-identically instead of within tolerance.
    bitwise: bool = False
    #: Run with checkpointing, crash the interpreter mid-program via an
    #: injected ``crash=`` fault, then resume from the manifest; the
    #: resumed outputs are what gets compared.
    crash_resume: bool = False
    #: Name of the config whose results this one must match
    #: (None = the lattice baseline).
    reference: Optional[str] = None
    rtol: float = 1e-9
    atol: float = 1e-9

    def build_config(self) -> ReproConfig:
        """A fresh ReproConfig carrying this point's overrides."""
        return ReproConfig(**self.overrides)


class Lattice:
    """An ordered set of lattice configs, baseline first."""

    def __init__(self, configs: Sequence[LatticeConfig]):
        if not configs:
            raise ValueError("lattice needs at least one config")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lattice config names: {names}")
        self._configs = list(configs)
        self._by_name = {c.name: c for c in self._configs}
        for config in self._configs:
            if config.reference is not None and config.reference not in self._by_name:
                raise ValueError(
                    f"config {config.name!r} references unknown "
                    f"config {config.reference!r}"
                )

    @property
    def baseline(self) -> LatticeConfig:
        return self._configs[0]

    @property
    def configs(self) -> List[LatticeConfig]:
        return list(self._configs)

    @property
    def names(self) -> List[str]:
        return [c.name for c in self._configs]

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    def __getitem__(self, name: str) -> LatticeConfig:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def subset(self, names: Sequence[str]) -> "Lattice":
        """A sub-lattice keeping lattice order; the baseline (and any
        referenced fault-free twin) is always included."""
        requested = set(names)
        unknown = requested - set(self._by_name)
        if unknown:
            raise ValueError(
                f"unknown lattice configs: {sorted(unknown)}; "
                f"available: {self.names}"
            )
        keep = {self.baseline.name} | requested
        # pull in references transitively so comparisons stay well-defined
        changed = True
        while changed:
            changed = False
            for config in self._configs:
                if config.name in keep and config.reference is not None:
                    if config.reference not in keep:
                        keep.add(config.reference)
                        changed = True
        return Lattice([c for c in self._configs if c.name in keep])

    @classmethod
    def default(cls) -> "Lattice":
        """The full optimizer/backend/chaos lattice described above."""
        return cls([
            LatticeConfig(
                name="baseline",
                description="default configuration, tracing off "
                            "(pure-interpreter reference)",
                overrides={"enable_trace": False},
            ),
            LatticeConfig(
                name="no_rewrites",
                description="static/dynamic rewrites, CSE, fusion, IPA off",
                overrides={
                    "enable_rewrites": False,
                    "enable_cse": False,
                    "enable_fusion": False,
                    "enable_ipa": False,
                },
            ),
            LatticeConfig(
                name="no_codegen",
                description="cell-template operator fusion (codegen) off",
                overrides={"enable_codegen": False},
            ),
            LatticeConfig(
                name="no_recompile",
                description="dynamic recompilation off (static plans)",
                overrides={"enable_recompile": False},
            ),
            LatticeConfig(
                name="python_kernels",
                description="tiled non-BLAS matmult kernel (SysDS not SysDS-B)",
                overrides={"native_blas": False, "matmult_tile": 3},
            ),
            LatticeConfig(
                name="spark",
                description="distributed SimRDD operators forced via a tiny "
                            "operator memory budget",
                overrides=dict(_SPARK_OVERRIDES),
                rtol=1e-8,
                atol=1e-8,
            ),
            LatticeConfig(
                name="lineage_reuse",
                description="lineage tracing with full reuse",
                overrides={"enable_lineage": True, "reuse_policy": "full"},
            ),
            LatticeConfig(
                name="traced",
                description="hot basic blocks fused into compiled traces "
                            "(threshold 2); bit-identical to the untraced "
                            "pure-interpreter baseline",
                overrides={"trace_threshold": 2},
                bitwise=True,
                reference="baseline",
            ),
            LatticeConfig(
                name="federated",
                description="inputs row-partitioned across two federated sites",
                federated=True,
                rtol=1e-8,
                atol=1e-8,
            ),
            LatticeConfig(
                name="chaos_spill",
                description="buffer-pool eviction under a tiny pool plus "
                            "spill faults; bit-identical to the baseline "
                            "(CP plans are unchanged, only paging differs)",
                overrides={
                    # op budget stays far above fuzz-sized matrices (so the
                    # plan is the baseline CP plan) while the buffer pool
                    # shrinks to ~500 bytes and has to evict + restore blocks
                    "memory_budget": 16 * 1024,
                    "operator_memory_fraction": 1.0,
                    "bufferpool_fraction": 0.03,
                    "fault_spec": "spill.write:p=0.15;spill.read:fail=1",
                    "fault_seed": 99,
                    **_CHAOS_RETRY,
                },
                bitwise=True,
                reference="baseline",
            ),
            LatticeConfig(
                name="chaos_federated",
                description="federated request faults + retry/failover; "
                            "bit-identical to the fault-free federated run",
                federated=True,
                overrides={
                    "fault_spec": "site.request:p=0.1",
                    "fault_seed": 101,
                    **_CHAOS_RETRY,
                },
                bitwise=True,
                reference="federated",
            ),
            LatticeConfig(
                name="chaos_crash",
                description="interpreter killed mid-program by an injected "
                            "crash, then resumed from the last checkpoint; "
                            "bit-identical to the uninterrupted baseline",
                overrides={"enable_lineage": True},
                bitwise=True,
                reference="baseline",
                crash_resume=True,
            ),
            LatticeConfig(
                name="chaos_spark",
                description="distributed task faults + task retry; "
                            "bit-identical to the fault-free spark run",
                overrides={
                    **_SPARK_OVERRIDES,
                    "fault_spec": "rdd.task:p=0.1",
                    "fault_seed": 103,
                    **_CHAOS_RETRY,
                },
                bitwise=True,
                reference="spark",
            ),
            LatticeConfig(
                name="tcp",
                description="federated sites hosted by workers listening on "
                            "real TCP loopback addresses (dialable host:port "
                            "registry, reconnecting links); bit-identical to "
                            "the in-process federated twin",
                federated=True,
                overrides={"transport": "tcp"},
                bitwise=True,
                reference="federated",
            ),
            LatticeConfig(
                name="chaos_tcp",
                description="tcp transport under seeded wire-level chaos: "
                            "mid-stream partitions plus duplicated and "
                            "bit-flipped frames, recovered by reconnect + "
                            "same-id resend + dedup replay; bit-identical to "
                            "the in-process federated twin (recovery must be "
                            "semantically invisible)",
                federated=True,
                overrides={
                    "transport": "tcp",
                    # no net.drop here: dropped frames recover via the
                    # request timeout, which would stall fuzz sweeps
                    "fault_spec": "net.partition:fail=2;net.dup:p=0.05;"
                                  "net.corrupt:p=0.03",
                    "fault_seed": 109,
                    "heartbeat_interval_s": 0.05,
                    **_CHAOS_RETRY,
                },
                bitwise=True,
                reference="federated",
            ),
            LatticeConfig(
                name="ooc",
                description="out-of-core: ~500-byte pool with compressed "
                            "spills; bit-identical to the baseline (the CLA "
                            "spill codec is bit-exact and layout-preserving)",
                overrides=dict(_OOC_OVERRIDES),
                bitwise=True,
                reference="baseline",
            ),
            LatticeConfig(
                name="chaos_ooc",
                description="out-of-core paging under spill read/write "
                            "faults; bit-identical to the baseline",
                overrides={
                    **_OOC_OVERRIDES,
                    "fault_spec": "spill.write:p=0.15;spill.read:p=0.1",
                    "fault_seed": 107,
                    **_CHAOS_RETRY,
                },
                bitwise=True,
                reference="baseline",
            ),
            LatticeConfig(
                name="ooc_cla_exec",
                description="out-of-core with compressed-space kernels "
                            "(scalar ops, aggregates, matmul on compressed "
                            "operands); tolerance-only because compressed "
                            "reductions legally reorder float arithmetic",
                overrides={**_OOC_OVERRIDES, "compressed_exec": True},
                rtol=1e-8,
                atol=1e-8,
            ),
            LatticeConfig(
                name="tcp_spark",
                description="distributed RDD tasks executed in worker "
                            "processes on real TCP addresses over the frame "
                            "protocol; bit-identical to the in-process spark "
                            "twin",
                overrides={**_SPARK_OVERRIDES, "transport": "tcp"},
                bitwise=True,
                reference="spark",
            ),
        ])

    #: Cheap sub-lattice for smoke runs (CI fuzz step, quick local checks).
    QUICK = (
        "baseline", "no_rewrites", "no_codegen", "spark", "lineage_reuse",
        "traced",
    )

    @classmethod
    def parse(cls, spec: str) -> "Lattice":
        """Parse a CLI ``--lattice`` value: ``all``, ``quick``, or a
        comma-separated list of config names."""
        full = cls.default()
        spec = spec.strip()
        if spec in ("", "all", "full"):
            return full
        if spec == "quick":
            return full.subset(cls.QUICK)
        return full.subset([part.strip() for part in spec.split(",") if part.strip()])
