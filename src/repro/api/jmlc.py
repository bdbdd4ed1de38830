"""JMLC-style prepared scripts: precompile once, execute repeatedly.

The JMLC API of SystemDS targets embedded, low-latency scoring: a script is
compiled once into a runtime program and then executed many times with
different in-memory inputs, skipping parsing and compilation on the hot
path (paper Figure 3, step 1).

    ps = PreparedScript("yhat = X %*% B", inputs=["X", "B"], outputs=["yhat"])
    for batch in batches:
        out = ps.execute(X=batch, B=model)

Inputs are named in lineage by their content, so whenever the same data is
passed again — the same object or an equal copy — the reuse cache serves
the sub-computations that depend on it alone (the model side of a scoring
script).  ``execute`` is safe for concurrent callers: each call gets a
fresh execution context, and the reuse cache is internally synchronised —
the serving subsystem (``repro.serving``) scores one prepared script from
many worker threads at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.compiler.compile import compile_script
from repro.compiler.sizes import VarStats
from repro.config import ReproConfig, default_config
from repro.errors import RuntimeDMLError
from repro.lineage import ReuseCache
from repro.api.mlcontext import Results, _stats_of, _to_data_object
from repro.runtime.bufferpool import BufferPool
from repro.runtime.context import ExecutionContext
from repro.runtime.interpreter import execute_program


class PreparedScript:
    """A precompiled DML script for repeated low-latency execution."""

    def __init__(
        self,
        source: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        config: Optional[ReproConfig] = None,
        reuse_cache: Optional[ReuseCache] = None,
        pool: Optional[BufferPool] = None,
        stats=None,
    ):
        self.source = source
        self.input_names = list(inputs)
        self.output_names = list(outputs)
        self.config = config or default_config()
        # unknown input sizes at prepare time: blocks flagged for dynamic
        # recompilation adapt to each call's actual shapes
        var_stats: Dict[str, VarStats] = {}
        self.program = compile_script(source, self.config, var_stats, self.output_names)
        self._reuse = reuse_cache
        if self._reuse is None and self.config.reuse_enabled:
            self._reuse = ReuseCache.for_config(self.config)
        # shared buffer pool for all executions (serving); None means each
        # execution context creates its own private pool
        self._pool = pool
        # one stats registry for all executions of this prepared script:
        # concurrent serving workers fold into the same heavy-hitter table
        self._stats = stats
        if self._stats is None and self.config.enable_stats:
            from repro.obs import StatsRegistry

            self._stats = StatsRegistry()
        # one trace cache for all executions of this prepared script: the
        # compiled program (and its basic blocks) is shared across calls,
        # so hot-loop traces compiled in one call serve every later call
        self._traces = None
        if self.config.enable_trace and self._reuse is None:
            from repro.trace import TraceCache

            self._traces = TraceCache(self.config.trace_threshold)

    @property
    def reuse_cache(self) -> Optional[ReuseCache]:
        return self._reuse

    def stats(self):
        """The script's :class:`repro.obs.StatsRegistry` (None when off).

        Enable by preparing with ``config.enable_stats`` or an explicit
        ``stats=StatsRegistry()``; all ``execute`` calls — including
        concurrent serving workers — aggregate into it.
        """
        return self._stats

    def set_stats(self, registry) -> "PreparedScript":
        """Attach a stats registry (or ``None`` to detach) after preparing.

        Subsequent ``execute`` calls record into it; in-flight executions
        keep whatever registry they started with.
        """
        self._stats = registry
        return self

    def execute(self, **bindings) -> Results:
        missing = [name for name in self.input_names if name not in bindings]
        if missing:
            raise RuntimeDMLError(f"missing prepared-script inputs: {missing}")
        unexpected = [name for name in bindings if name not in self.input_names]
        if unexpected:
            raise RuntimeDMLError(f"unexpected prepared-script inputs: {unexpected}")
        ctx = ExecutionContext(
            self.program, self.config, pool=self._pool, reuse=self._reuse,
            print_handler=lambda text: None, stats=self._stats,
            traces=self._traces,
        )
        for name in self.input_names:
            value = _to_data_object(bindings[name])
            ctx.set(name, value)
            if ctx.tracer is not None:
                ctx.tracer.bind_input(name, value)
        execute_program(self.program, ctx)
        return Results(ctx, self.output_names, protected=self.input_names)
