"""Execution context: symbol table plus the services of the control program.

One context corresponds to one frame of interpretation (the main script, a
function call, or a parfor worker).  Child contexts get a fresh symbol
table but share the buffer pool, the lineage interning table, the reuse
cache (a session on the process-wide store), and the runtime metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import ReproConfig
from repro.errors import RuntimeDMLError
from repro.lineage import LineageTracer, ReuseCache
from repro.runtime.bufferpool import BufferPool
from repro.runtime.data import MatrixObject
from repro.tensor import BasicTensorBlock


class ExecutionContext:
    """Symbol table + services for one interpretation frame."""

    def __init__(
        self,
        program,
        config: ReproConfig,
        pool: Optional[BufferPool] = None,
        tracer: Optional[LineageTracer] = None,
        reuse: Optional[ReuseCache] = None,
        print_handler: Optional[Callable[[str], None]] = None,
        metrics: Optional[Dict[str, float]] = None,
        stats=None,
        faults=None,
        checkpoints=None,
        traces=None,
    ):
        self.program = program
        self.config = config
        # per-instruction hook slots behind properties: assigning any of
        # them recomputes the precomputed ``fast_hooks`` flag below
        self._tracer = None
        self._reuse = None
        self._stats = None
        self.fast_hooks = True
        if faults is None and config.resilience_enabled:
            from repro.resilience import ResilienceManager

            faults = ResilienceManager.from_config(config)
        #: Optional :class:`repro.resilience.ResilienceManager`; None keeps
        #: every tolerance hook on its zero-overhead fast path.
        self.faults = faults
        #: Optional :class:`repro.net.Transport`; None is the in-process
        #: fast path (sites in the default registry, tasks as direct calls).
        self.transport = None
        if getattr(config, "transport", "inproc") != "inproc":
            from repro.net import for_config

            self.transport = for_config(config)
            if self.transport is not None and faults is not None:
                faults.bind_transport(self.transport)
        #: Optional :class:`repro.checkpoint.CheckpointManager`; None keeps
        #: every interpreter boundary on its zero-overhead fast path.  Only
        #: the main frame carries one — :meth:`child` drops it, so function
        #: and parfor frames never snapshot.
        self.checkpoints = checkpoints
        self.pool = pool or BufferPool(
            config.bufferpool_budget, config.spill_dir,
            resilience=faults,
            compress_spills=config.spill_compress,
            compressed_exec=config.compressed_exec,
        )
        if tracer is None and config.enable_lineage:
            tracer = LineageTracer(dedup=config.enable_lineage_dedup)
        self.tracer = tracer
        if reuse is None and config.reuse_enabled:
            reuse = ReuseCache.for_config(config)
        self.reuse = reuse
        if stats is None and config.enable_stats:
            from repro.obs import StatsRegistry

            stats = StatsRegistry()
        #: Optional :class:`repro.obs.StatsRegistry`; None keeps the
        #: interpreter on its unprofiled fast path.
        self.stats = stats
        if traces is None and config.enable_trace and self.reuse is None:
            from repro.trace import TraceCache

            traces = TraceCache(config.trace_threshold)
        elif traces is not None and self.reuse is not None:
            # lineage reuse probes per instruction and cannot be hoisted
            # to trace boundaries: reuse wins, tracing stands down
            traces = None
        #: Optional :class:`repro.trace.TraceCache`; None keeps every basic
        #: block on the per-instruction interpreter loop.
        self.traces = traces
        if stats is not None:
            from repro.obs import observe_context

            observe_context(stats, self)
        self.variables: Dict[str, object] = {}
        self.prints: List[str] = []
        self.print_handler = print_handler
        self.metrics = metrics if metrics is not None else {
            "instructions": 0,
            "collects": 0,
            "bytes_collected": 0,
            "recompiles": 0,
            "plan_cache_hits": 0,
            "fcalls": 0,
        }
        self._seed_state = (config.random_seed * 2654435761 + 1) % (2**63)
        self._spark = None
        #: Partitions of every ``_fedtmp*`` intermediate this script stored
        #: at federated sites (shared with child frames); dropped on close.
        self._site_temps: List = []

    # --- per-instruction hook flag ------------------------------------------------

    def _refresh_hooks(self) -> None:
        """Recompute the hoisted is-None checks of ``execute_instruction``.

        ``fast_hooks`` folds the per-instruction subsystem probes (stats
        timing, lineage tracing, reuse probing) into one precomputed flag,
        refreshed whenever a subsystem attaches or detaches — so the
        interpreter's hot loop pays a single attribute read instead of
        three, and trace compilation knows the hooks it must hoist.
        """
        self.fast_hooks = (
            self._stats is None and self._tracer is None and self._reuse is None
        )

    @property
    def stats(self):
        return self._stats

    @stats.setter
    def stats(self, value) -> None:
        self._stats = value
        self._refresh_hooks()

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value
        self._refresh_hooks()

    @property
    def reuse(self):
        return self._reuse

    @reuse.setter
    def reuse(self, value) -> None:
        self._reuse = value
        self._refresh_hooks()

    def spark(self):
        """The lazily created simulated Spark context (shared with children)."""
        if self._spark is None:
            from repro.distributed.rdd import SimSparkContext

            self._spark = SimSparkContext(
                self.config.parallelism, resilience=self.faults,
                transport=self.transport,
            )
        return self._spark

    # --- symbol table -------------------------------------------------------------

    def get(self, name: str):
        """The bound value of a variable (raises on unbound names)."""
        value = self.variables.get(name)
        if value is None:
            raise RuntimeDMLError(f"undefined variable: {name}")
        return value

    def get_or_none(self, name: str):
        """The bound value, or None when the variable is unbound."""
        return self.variables.get(name)

    def set(self, name: str, value) -> None:
        """Bind (or rebind) a variable in this frame."""
        self.variables[name] = value

    def remove(self, name: str) -> None:
        """Unbind a variable and drop its lineage binding."""
        self.variables.pop(name, None)
        if self.tracer is not None:
            self.tracer.remove(name)

    def has(self, name: str) -> bool:
        """True when the variable is bound in this frame."""
        return name in self.variables

    def cleanup_temps(self) -> None:
        """Drop instruction temps (``_t...``) after a basic block completes."""
        for name in [n for n in self.variables if n.startswith("_t")]:
            self.remove(name)

    def cleanup_nonlive(self, live: set) -> None:
        """Drop variables that are no longer live after a block."""
        for name in list(self.variables):
            if name.startswith("_t") or name not in live:
                self.remove(name)

    def set_federated_temp(self, name: str, federated) -> None:
        """Bind the site-resident result of a federated operation and
        remember its ``_fedtmp*`` partitions for :meth:`close`."""
        self._site_temps.extend(federated.partitions)
        self.set(name, MatrixObject.from_federated(federated))

    def _drop_site_temps(self, protected) -> None:
        """Tell the sites to stop hosting this script's intermediates.

        A site where a ``keep`` binding still references one of them keeps
        them all: later intermediates are computed from earlier ones, so
        the site's replay log has to stay whole.
        """
        from repro.errors import FederatedError, TransportError
        from repro.federated.instructions import drop_site_temps

        mine = {id(part) for part in self._site_temps}
        held = set()
        for name in protected:
            federated = getattr(self.variables.get(name), "federated", None)
            if federated is not None:
                held.update(
                    id(part.site) for part in federated.partitions
                    if id(part) in mine
                )
        temps = [p for p in self._site_temps if id(p.site) not in held]
        self._site_temps.clear()
        try:
            drop_site_temps(temps)
        except (FederatedError, TransportError, OSError):
            pass  # best effort: e.g. the transport was closed first

    def close(self, keep=()) -> None:
        """Eagerly release every bound payload except the ``keep`` names.

        Serving hot paths run many short-lived contexts against one shared
        buffer pool; closing a context returns its intermediates to the pool
        immediately instead of waiting for garbage collection.  Caller-owned
        bindings (pinned model weights) are listed in ``keep``: they are
        unbound but their payloads stay alive.
        """
        protected = set(keep)
        if self._site_temps:
            self._drop_site_temps(protected)
        for name in list(self.variables):
            value = self.variables.pop(name)
            if name in protected:
                continue
            release = getattr(value, "free", None)
            if release is not None:
                release()
        if self.tracer is not None:
            self.tracer.items.clear()

    # --- child frames ----------------------------------------------------------------

    def child(self) -> "ExecutionContext":
        """A function-call/parfor frame sharing all services."""
        tracer = None
        if self.tracer is not None:
            tracer = LineageTracer(dedup=self.tracer.dedup)
            tracer._interned = self.tracer._interned  # shared hash-consing
            tracer.stats = self.tracer.stats
        frame = ExecutionContext(
            self.program,
            self.config,
            pool=self.pool,
            tracer=tracer,
            reuse=self.reuse,
            print_handler=self.print_handler,
            metrics=self.metrics,
            stats=self.stats,
            faults=self.faults,
            traces=self.traces,
        )
        frame.prints = self.prints  # shared output stream
        frame._seed_state = self._next_seed_state()
        frame._spark = self._spark
        frame._site_temps = self._site_temps
        return frame

    # --- services -----------------------------------------------------------------------

    def emit_print(self, text: str) -> None:
        self.prints.append(text)
        if self.print_handler is not None:
            self.print_handler(text)
        else:
            print(text)

    def _next_seed_state(self) -> int:
        self._seed_state = (self._seed_state * 6364136223846793005 + 1442695040888963407) % (2**63)
        return self._seed_state

    def next_seed(self) -> int:
        """A deterministic per-context seed for unseeded data generators."""
        return self._next_seed_state() % (2**31)

    def collect(self, matrix: MatrixObject) -> BasicTensorBlock:
        """Collect a distributed/federated matrix into one local block."""
        self.metrics["collects"] += 1
        if matrix.rdd is not None:
            block = matrix.rdd.collect_local()
        elif matrix.federated is not None:
            from repro.federated.instructions import collect_federated

            channel = self.faults.channel if self.faults is not None else None
            block = collect_federated(matrix.federated, channel=channel)
        else:
            raise RuntimeDMLError("collect on a local matrix")
        self.metrics["bytes_collected"] += block.memory_size()
        return block

    # --- lineage hooks (no-ops when lineage is disabled) -----------------------------------

    def trace_datagen(self, name: str, instruction, seed: int) -> None:
        if self.tracer is not None:
            self.tracer.trace_datagen(name, instruction, seed)
