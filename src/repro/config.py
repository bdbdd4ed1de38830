"""Global configuration for compiler and runtime behaviour.

A :class:`ReproConfig` plays the role of SystemDS' ``SystemDS-config.xml``
plus the JVM heap settings: it fixes the memory budget that drives operator
selection (CP vs. distributed), the degree of parallelism, block sizes for
the distributed backend, and the feature flags used by the ablation
benchmarks (rewrites, lineage, reuse) and by out-of-core runs (spill
compression, compressed execution; paging itself is always synchronous).
Tuning values nothing varies — the tcp dial timeout and redial budget,
the spill compression ratio, the reuse-cache size — are constants next
to their one reader, not fields.

Configs are plain dataclasses; the active config travels with each
execution context rather than being process-global, so tests can run
different configurations concurrently.  ``default_config()`` returns the
shared default instance used when none is supplied.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Optional


@dataclasses.dataclass
class ReproConfig:
    """Tunable knobs of the compiler and runtime."""

    # --- memory management -------------------------------------------------
    #: Budget (bytes) for live in-memory data; drives CP vs. distributed
    #: operator selection and buffer-pool eviction.  Defaults to 2 GiB.
    memory_budget: int = 2 * 1024**3
    #: Fraction of the budget a single operation may claim before the
    #: compiler selects a distributed operator for it.
    operator_memory_fraction: float = 0.7
    #: Fraction of the budget managed by the buffer pool before eviction.
    bufferpool_fraction: float = 0.5
    #: Exact buffer-pool budget in bytes (``repro-dml --pool-budget``);
    #: overrides the fraction-derived budget when set.  Out-of-core smoke
    #: runs use it to pin the pool far below the working set.
    bufferpool_budget_override: Optional[int] = None
    #: Directory for buffer-pool spill files (created lazily).
    spill_dir: Optional[str] = None

    # --- out-of-core ---------------------------------------------------------
    #: Compress eligible spilled blocks (dense 2D FP64) with the CLA
    #: encoders before writing; falls back to raw pickles when the
    #: compression ratio does not pay.  The codec is bit-exact, so this is
    #: on by default and safe under bitwise lattice configs.
    spill_compress: bool = True
    #: Let eligible kernels (scalar arithmetic, full aggregates, matmul
    #: with a dense RHS) execute directly on still-compressed restored
    #: blocks.  Off by default: compressed reductions legally reorder
    #: float arithmetic, so results match within tolerance, not bitwise.
    compressed_exec: bool = False

    # --- parallelism --------------------------------------------------------
    #: Degree of parallelism for multithreaded kernels, parfor, and the
    #: distributed scheduler.  Defaults to the machine's CPU count.
    parallelism: int = dataclasses.field(default_factory=lambda: os.cpu_count() or 4)

    # --- distributed blocking ----------------------------------------------
    #: Side length of square matrix blocks (paper: 1024).  Tests shrink this.
    block_size: int = 1024

    # --- transport ------------------------------------------------------------
    #: Where federated sites and RDD tasks execute: ``"inproc"`` (thread
    #: simulations, zero overhead — the default) or ``"tcp"`` (spawn-context
    #: worker processes listening on real host:port addresses, dialled by
    #: the coordinator over the :mod:`repro.net` frame protocol; SIGKILL-able
    #: by the ``*.worker`` fault points, links cut by the ``net.*`` ones).
    transport: str = "inproc"
    #: Host every pool worker (federated site, RDD executor, scoring
    #: worker) binds and is dialled at.  Loopback by default; a LAN
    #: address makes workers remotely addressable.
    transport_host: str = "127.0.0.1"
    #: Deadline (s) for one transport round trip before the lost-ACK
    #: same-id resend and the kill escalation kick in.
    transport_request_timeout_s: float = 60.0
    #: Worker heartbeat cadence (s) on the transport socket; also the
    #: coordinator's receive-poll slice while awaiting a response.
    heartbeat_interval_s: float = 0.25
    #: Silent grace, in heartbeat intervals, before a missed heartbeat is
    #: counted and the worker process is probed for liveness.
    heartbeat_miss_grace: float = 3.0

    # --- optimizer feature flags (ablations) ---------------------------------
    enable_rewrites: bool = True
    enable_cse: bool = True
    enable_fusion: bool = True  # e.g. t(X)%*%X -> TSMM
    enable_ipa: bool = True  # inter-procedural analysis + inlining
    enable_recompile: bool = True
    #: Cell-template operator fusion via code generation (paper section 3.4).
    enable_codegen: bool = True

    # --- lineage / reuse -----------------------------------------------------
    enable_lineage: bool = False
    enable_lineage_dedup: bool = True
    #: Reuse policy: "none", "full", or "full_partial".
    reuse_policy: str = "none"

    # --- trace compilation ----------------------------------------------------
    #: Fuse hot basic blocks into compiled traces (``repro-dml --no-trace``
    #: disables).  Tracing stands down automatically when lineage reuse is
    #: on (per-instruction reuse probes cannot be hoisted to trace edges).
    enable_trace: bool = True
    #: Executions of a basic block (same plan, stable operand kinds) before
    #: its instruction sequence is compiled into a trace.
    trace_threshold: int = 8

    # --- observability --------------------------------------------------------
    #: Per-instruction profiling + unified stats (``repro-dml --stats``).
    #: Off by default: the interpreter keeps a zero-overhead fast path.
    enable_stats: bool = False

    # --- resilience / fault injection -----------------------------------------
    #: Master switch for the tolerance machinery (retries, backoff, breaker,
    #: site failover).  Off by default: the interpreter keeps a single
    #: ``ctx.faults is None`` fast path.  A non-empty ``fault_spec`` implies it.
    enable_resilience: bool = False
    #: Deterministic fault-injection spec (``repro-dml --inject-faults``),
    #: e.g. ``"site.request:p=0.1;spill.write:fail=2"``.  None injects nothing.
    fault_spec: Optional[str] = None
    #: Seed of the per-point injection and backoff-jitter streams.
    fault_seed: int = 1234
    #: Retries after the first attempt, per request/task/spill.
    retry_budget: int = 2
    #: First backoff delay (ms); doubles per retry up to the cap.
    retry_backoff_ms: float = 10.0
    retry_backoff_max_ms: float = 200.0
    #: Consecutive exhausted requests before a site is blacklisted.
    blacklist_after: int = 3
    #: How long a blacklisted site is skipped before being retried.
    blacklist_cooldown_s: float = 30.0
    #: Consecutive scoring-batch failures that open a model's breaker.
    breaker_threshold: int = 5
    #: Open -> half-open cooldown of the serving circuit breaker.
    breaker_cooldown_s: float = 10.0

    # --- checkpoint / restore --------------------------------------------------
    #: Directory for crash-consistent checkpoints (``repro-dml
    #: --checkpoint-dir``).  None disables checkpointing: contexts then
    #: carry no :class:`repro.checkpoint.CheckpointManager` and the
    #: interpreter keeps a single ``ctx.checkpoints is None`` fast path.
    checkpoint_dir: Optional[str] = None
    #: Snapshot cadence: a checkpoint is taken every N interpreter loop /
    #: top-level block boundaries.
    checkpoint_every: int = 1

    # --- kernels --------------------------------------------------------------
    #: When False, dense matrix multiplies use the blocked pure-Python-driven
    #: kernel that models SystemDS' Java matmult; when True they call the
    #: native BLAS (NumPy dot), modelling SysDS-B in the paper.
    native_blas: bool = True
    #: Tile size of the cache-conscious non-BLAS matmult kernel.
    matmult_tile: int = 64

    # --- misc -------------------------------------------------------------------
    #: Seed used for generated randomness when a script does not specify one.
    random_seed: int = 7
    #: Abort execution after this many interpreted instructions (None =
    #: unlimited).  The qa fuzzer sets it so delta-debugging candidates
    #: that lose a loop's exit condition terminate instead of spinning.
    max_instructions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if not 0.0 < self.operator_memory_fraction <= 1.0:
            raise ValueError("operator_memory_fraction must be in (0, 1]")
        if not 0.0 < self.bufferpool_fraction <= 1.0:
            raise ValueError("bufferpool_fraction must be in (0, 1]")
        if (self.bufferpool_budget_override is not None
                and self.bufferpool_budget_override <= 0):
            raise ValueError("bufferpool_budget_override must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.reuse_policy not in ("none", "full", "full_partial"):
            raise ValueError(f"unknown reuse policy: {self.reuse_policy!r}")
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(
                f"unknown transport {self.transport!r} (use inproc|tcp)"
            )
        if not self.transport_host:
            raise ValueError("transport_host must be a non-empty host")
        if self.transport_request_timeout_s <= 0:
            raise ValueError("transport_request_timeout_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_miss_grace < 1.0:
            raise ValueError(
                "heartbeat_miss_grace must be >= 1 heartbeat interval"
            )
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.max_instructions is not None and self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1 (or None)")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.trace_threshold < 1:
            raise ValueError("trace_threshold must be >= 1")
        if self.fault_spec is not None:
            from repro.resilience.faults import FaultPlan

            FaultPlan.parse(self.fault_spec, seed=self.fault_seed)  # fail fast

    @property
    def operator_memory_budget(self) -> int:
        """Bytes a single operator may use before going distributed."""
        return int(self.memory_budget * self.operator_memory_fraction)

    @property
    def bufferpool_budget(self) -> int:
        """Bytes the buffer pool manages before evicting."""
        if self.bufferpool_budget_override is not None:
            return int(self.bufferpool_budget_override)
        return int(self.memory_budget * self.bufferpool_fraction)

    @property
    def reuse_enabled(self) -> bool:
        return self.enable_lineage and self.reuse_policy != "none"

    @property
    def partial_reuse_enabled(self) -> bool:
        return self.enable_lineage and self.reuse_policy == "full_partial"

    @property
    def resilience_enabled(self) -> bool:
        """True when contexts should carry a :class:`ResilienceManager`."""
        return self.enable_resilience or self.fault_spec is not None

    def resolve_spill_dir(self) -> str:
        """The spill directory, creating a temporary one on first use."""
        if self.spill_dir is None:
            self.spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
        os.makedirs(self.spill_dir, exist_ok=True)
        return self.spill_dir

    def copy(self, **overrides) -> "ReproConfig":
        """A new config with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


_DEFAULT: Optional[ReproConfig] = None


def default_config() -> ReproConfig:
    """The process-wide default configuration (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ReproConfig()
    return _DEFAULT
