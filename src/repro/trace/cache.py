"""The trace cache: hotness counting, compiled-trace storage, invalidation.

One :class:`TraceCache` lives per cached program (``repro.api.jmlc``), or
per execution-context family given none.  It keys on the *identity* of a
basic block's instruction list: the block's plan cache hands back the same
list object for the same operand-size signature, so a stable plan yields a
stable key and a recompile to a new plan naturally misses.

Lifecycle of one block:

1. first ``threshold`` executions interpret normally (hotness counting);
2. on the threshold-th execution the block is compiled — or *vetoed*
   forever if it contains untraceable instructions;
3. subsequent executions guard-check and run the compiled trace;
4. a guard failure (shape/kind/config drift) drops the trace and resets
   the hotness counter — the block re-interprets and may re-heat;
5. a recompile of the block (plan-cache miss) or a checkpoint restore
   invalidates eagerly.

The cache also carries the subsystem's observability counters, exported
as the ``trace`` stats section.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.errors import RuntimeDMLError
from repro.trace.compiler import CompiledTrace, TraceVeto, compile_trace


class _Entry:
    """Per-instruction-list cache state."""

    __slots__ = ("instructions", "block_id", "runs", "trace", "veto")

    def __init__(self, instructions, block_id: int):
        #: Strong reference keeping the keyed list's id() stable.
        self.instructions = instructions
        self.block_id = block_id
        self.runs = 0
        self.trace: Optional[CompiledTrace] = None
        self.veto: Optional[str] = None


class TraceCache:
    """Compiled traces for hot basic blocks, with guarded fallback."""

    def __init__(self, threshold: int = 8):
        if threshold < 1:
            raise ValueError("trace threshold must be >= 1")
        self.threshold = threshold
        self._entries: Dict[int, _Entry] = {}
        #: block id -> entry keys holding a live compiled trace; the
        #: trace-first dispatch index (see :meth:`execute_block`)
        self._by_block: Dict[int, list] = {}
        self._lock = threading.Lock()
        self.metrics = {
            "traces_compiled": 0,
            "trace_hits": 0,
            "guard_failures": 0,
            "fallbacks": 0,
            "vetoes": 0,
            "invalidations": 0,
            "invalidations_recompile": 0,
            "invalidations_shape": 0,
            "invalidations_resume": 0,
            "veto_reprobes": 0,
        }

    # --- hot path -----------------------------------------------------------

    def execute_block(self, block, ctx) -> bool:
        """Trace-first dispatch: run a live trace of the block if one guards.

        Called by the interpreter for dynamically recompiled blocks
        *before* the per-iteration plan-cache lookup.  The trace guards
        subsume the recompiler's statistics signature (config identity
        plus per-operand type/value-type/dims/nnz class — see
        :meth:`CompiledTrace.execute`), so a guard match proves the
        recompiler would return the exact plan the trace fused, and the
        lookup can be skipped.  Returns False when no live trace guards
        against the current symbol table — the caller recompiles and
        interprets (and a failed candidate resets to re-heat, exactly as
        a post-recompile guard failure would).
        """
        with self._lock:
            keys = self._by_block.get(id(block))
            if not keys:
                return False
            traces = [self._entries[key].trace for key in keys]
        for trace in traces:
            if trace is not None and self._run(trace, id(trace.instructions), ctx):
                return True
        return False

    def execute(self, block, instructions, ctx) -> bool:
        """Try to run the block as a compiled trace.

        Returns True when the trace ran (symbol table already updated, all
        hoisted hooks applied); False when the caller must interpret the
        block — because it is not hot yet, is vetoed, or its guards failed.
        """
        key = id(instructions)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(instructions, id(block))
                self._entries[key] = entry
            entry.runs += 1
            if entry.veto is not None:
                return False
            trace = entry.trace
            if trace is None:
                if entry.runs < self.threshold:
                    return False
                # compile at block entry: the symbol table holds exactly the
                # live-in kinds/shapes the emitted guards will check
                try:
                    trace = compile_trace(instructions, ctx)
                except TraceVeto as veto:
                    entry.veto = veto.reason
                    self.metrics["vetoes"] += 1
                    return False
                entry.trace = trace
                self._by_block.setdefault(entry.block_id, []).append(key)
                self.metrics["traces_compiled"] += 1
        return self._run(trace, key, ctx)

    def _run(self, trace: CompiledTrace, key: int, ctx) -> bool:
        """Budget-check, execute, and account one compiled trace."""
        n = trace.n_instructions
        limit = ctx.config.max_instructions
        if limit is not None and ctx.metrics["instructions"] + n > limit:
            # the interpreter would trip the budget partway through this
            # block; raise its exact error rather than silently completing
            raise RuntimeDMLError(
                f"instruction budget exceeded (max_instructions={limit}); "
                f"likely a non-terminating loop"
            )
        stats = ctx.stats
        if stats is None:
            slots = trace.execute(ctx)
        else:
            start = time.perf_counter()
            slots = trace.execute(ctx)
            elapsed = time.perf_counter() - start
        if slots is None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry.trace is trace:
                    entry.trace = None
                    entry.runs = 0
                    self._unindex(entry.block_id, key)
                self.metrics["guard_failures"] += 1
                self.metrics["fallbacks"] += 1
                self.metrics["invalidations"] += 1
                self.metrics["invalidations_shape"] += 1
            return False
        ctx.metrics["instructions"] += n
        with self._lock:
            self.metrics["trace_hits"] += 1
        if stats is not None:
            self._record_stats(stats, trace, slots, elapsed)
        return True

    def _unindex(self, block_id: int, key: int) -> None:
        """Drop one entry key from the trace-first index (lock held)."""
        keys = self._by_block.get(block_id)
        if keys is not None:
            if key in keys:
                keys.remove(key)
            if not keys:
                del self._by_block[block_id]

    @staticmethod
    def _record_stats(stats, trace: CompiledTrace, slots, elapsed: float) -> None:
        """Fold the trace run into the per-opcode heavy-hitter profile.

        Wall time is apportioned evenly across the fused instructions (the
        per-step timer is exactly the overhead tracing removes); output
        sizes are read from the final slot values.
        """
        share = elapsed / len(trace.stat_slots) if trace.stat_slots else 0.0
        for stat_key, out_slot in trace.stat_slots:
            bytes_out = 0
            if out_slot is not None:
                value = slots[out_slot]
                size_of = getattr(value, "memory_size", None)
                if size_of is not None:
                    bytes_out = int(size_of())
            stats.record_instruction(stat_key, share, bytes_out)

    # --- invalidation --------------------------------------------------------

    def on_recompile(self, block) -> None:
        """Drop every trace of a block whose plan cache just missed.

        Called by the recompiler *before* generating the new plan: the old
        instruction lists may still be reachable, but their shapes no
        longer reflect reality, so re-heating from scratch is the only
        safe option.
        """
        block_id = id(block)
        with self._lock:
            stale = [
                key for key, entry in self._entries.items()
                if entry.block_id == block_id
            ]
            for key in stale:
                del self._entries[key]
            self._by_block.pop(block_id, None)
            if stale:
                self.metrics["invalidations"] += len(stale)
                self.metrics["invalidations_recompile"] += len(stale)
            # Vetoed entries of *other* blocks get a second chance: veto
            # reasons are often transient (an operand that was distributed
            # or frame-typed at first contact, a callee whose own blocks
            # had not compiled yet), and a recompile anywhere signals the
            # program's plans are still shifting.  Clearing the veto makes
            # the block re-heat and re-attempt compilation; a genuinely
            # untraceable block simply vetoes again — at most one compile
            # attempt per ``threshold`` runs per recompile event.
            for entry in self._entries.values():
                if entry.veto is not None:
                    entry.veto = None
                    entry.runs = 0
                    self.metrics["veto_reprobes"] += 1

    def invalidate_all(self, reason: str = "resume") -> None:
        """Flush the whole cache (checkpoint restore, config change)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_block.clear()
            if dropped:
                self.metrics["invalidations"] += dropped
                key = f"invalidations_{reason}"
                if key in self.metrics:
                    self.metrics[key] += dropped

    # --- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            snap = dict(self.metrics)
            snap["entries"] = len(self._entries)
            snap["compiled"] = sum(
                1 for entry in self._entries.values() if entry.trace is not None
            )
            snap["vetoed"] = sum(
                1 for entry in self._entries.values() if entry.veto is not None
            )
        return snap
