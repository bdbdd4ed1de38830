"""JMLC-style prepared scripts: compile once, execute repeatedly (paper
Figure 3, step 1), and the one path every script run takes.

    ps = PreparedScript("yhat = X %*% B", inputs=["X", "B"], outputs=["yhat"])
    for batch in batches:
        out = ps.execute(X=batch, B=model)

``MLContext.execute`` prepares and runs a ``PreparedScript`` too.  Programs
live in one process-wide LRU cache keyed by the script digest, the outputs
and ``config_scope(config)``.  A program compiles with no input statistics
(dynamic recompilation fills in dims and nnz, with its plans on the
program's blocks) and carries one ``TraceCache`` for all its runs.  It is
valid while every ``.mtd`` its compile folded reads the same: a rewritten
file recompiles.  ``repro.lineage.clear_reuse_caches`` empties the cache.
``execute`` is safe for concurrent callers (the serving subsystem scores
one prepared script from many threads): each call gets a fresh context.
"""

from __future__ import annotations

import collections
import threading
from typing import Optional, Sequence

from repro.api.mlcontext import Results, _to_data_object
from repro.checkpoint.manager import script_fingerprint
from repro.compiler.compile import compile_script
from repro.compiler.sizes import read_mtd
from repro.config import ReproConfig, default_config
from repro.errors import RuntimeDMLError
from repro.lineage import ReuseCache
from repro.lineage.cache import config_scope
from repro.runtime.context import ExecutionContext
from repro.runtime.interpreter import execute_program
from repro.trace import TraceCache

#: Programs the process-wide cache holds; the least recently used leaves.
PROGRAM_CACHE_ENTRIES = 64

_PROGRAMS: "collections.OrderedDict[tuple, tuple]" = collections.OrderedDict()
_PROGRAMS_LOCK = threading.Lock()


def clear_program_cache() -> None:
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()


def _current(program) -> bool:
    """Whether every ``.mtd`` the program's compile folded reads the same."""
    return all(read_mtd(path) == meta for path, meta in program.mtd_reads.items())


def _cached_program(source: str, outputs: Sequence[str], config: ReproConfig):
    """The cached ``(program, traces, configs)`` of a script (compiled when
    missing or stale); ``configs``: ``repr(config)`` -> the object it runs as."""
    key = (script_fingerprint(source), tuple(outputs), config_scope(config))
    with _PROGRAMS_LOCK:
        entry = _PROGRAMS.get(key)
        if entry is not None:
            _PROGRAMS.move_to_end(key)
    if entry is None or not _current(entry[0]):
        config = config.copy()  # the cache's own object: no caller mutates it
        entry = (compile_script(source, config, {}, outputs),
                 TraceCache(config.trace_threshold), {repr(config): config})
        with _PROGRAMS_LOCK:
            _PROGRAMS[key] = entry
            while len(_PROGRAMS) > PROGRAM_CACHE_ENTRIES:
                _PROGRAMS.popitem(last=False)
    return entry


class PreparedScript:
    """A precompiled DML script for repeated low-latency execution.

    ``reuse_cache``, ``stats`` and ``checkpoints`` are the caller's session
    (``MLContext`` passes its own); ``pool`` is shared by all executions."""

    def __init__(self, source: str, inputs: Sequence[str], outputs: Sequence[str],
                 config: Optional[ReproConfig] = None,
                 reuse_cache: Optional[ReuseCache] = None, pool=None, stats=None,
                 checkpoints=None, capture_prints: bool = True):
        self.source = source
        self.input_names = list(inputs)
        self.output_names = list(outputs)
        config = config or default_config()
        self._prepare(config)
        if reuse_cache is None and config.reuse_enabled:
            reuse_cache = ReuseCache.for_config(config)
        self._reuse = reuse_cache
        if stats is None and config.enable_stats:
            from repro.obs import StatsRegistry

            stats = StatsRegistry()  # one registry for every execution
        self._stats = stats
        self._pool = pool
        self._checkpoints = checkpoints
        self._print_handler = (lambda text: None) if capture_prints else None

    def _prepare(self, config: ReproConfig) -> None:
        program, traces, configs = _cached_program(self.source, self.output_names, config)
        # equal configs run as one object: traces guard on config identity,
        # so those compiled for an earlier caller serve this one too
        key = repr(config)
        if key not in configs and len(configs) < PROGRAM_CACHE_ENTRIES:
            configs[key] = config.copy()
        config = configs.get(key, config)
        if not (config.enable_trace and config.trace_threshold == traces.threshold):
            traces = None  # the context makes its own per-run cache, if any
        self._bound = (program, config, traces)

    program = property(lambda self: self._bound[0])
    config = property(lambda self: self._bound[1])
    _traces = property(lambda self: self._bound[2])

    @property
    def reuse_cache(self) -> Optional[ReuseCache]:
        return self._reuse

    def stats(self):
        """The :class:`repro.obs.StatsRegistry` every execute records into."""
        return self._stats

    def set_stats(self, registry) -> "PreparedScript":
        """Record later executions into ``registry`` (None detaches)."""
        self._stats = registry
        return self

    def execute(self, **bindings) -> Results:
        missing = [name for name in self.input_names if name not in bindings]
        if missing:
            raise RuntimeDMLError(f"missing prepared-script inputs: {missing}")
        unexpected = [name for name in bindings if name not in self.input_names]
        if unexpected:
            raise RuntimeDMLError(f"unexpected prepared-script inputs: {unexpected}")
        if not _current(self.program):
            self._prepare(self.config)  # a file the compile read was rewritten
        program, config, traces = self._bound
        if self._checkpoints is not None:
            self._checkpoints.bind_fingerprint(script_fingerprint(self.source))
        ctx = ExecutionContext(
            program, config, pool=self._pool, reuse=self._reuse,
            print_handler=self._print_handler, stats=self._stats,
            checkpoints=self._checkpoints, traces=traces,
        )
        for name in self.input_names:
            value = _to_data_object(bindings[name])
            ctx.set(name, value)
            if ctx.tracer is not None:
                ctx.tracer.bind_input(name, value)
        execute_program(program, ctx)
        return Results(ctx, self.output_names, protected=self.input_names)
