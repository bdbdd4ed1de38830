"""Dynamic recompilation of basic blocks (paper section 2.3(3)).

Blocks whose HOP DAGs had unknown sizes at compile time are recompiled
right before execution against the statistics of the live symbol table —
SystemDS' counterpart to adaptive query processing.  Recompilation rebuilds
the block's DAG from its statements (so it is thread-safe for parfor
workers), applies dynamic rewrites with the now-known sizes, and regenerates
the instruction sequence with fresh operator selections.

Because the generated plan depends only on the *statistics* of the read
variables (data type, dims, nnz), recompiled instruction sequences are
cached per (block, statistics signature): a loop whose inputs keep their
shapes pays for recompilation once, not per iteration.  Dims are exact
(they fold into literals); nnz enters key *and* recompile as its
:func:`nnz_class`, so a cached plan is exactly what a cold recompile
would produce, and a loop whose active set drifts in sparsity keeps it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Tuple

from repro.compiler.blocks import BasicBlock
from repro.compiler.builder import DagBuilder
from repro.compiler.codegen import _SPARSE_GUARD
from repro.compiler.instgen import generate_instructions
from repro.compiler.rewrites import apply_dynamic_rewrites, apply_rewrites
from repro.compiler.sizes import VarStats, propagate_dag
from repro.runtime.data import (
    FrameObject,
    ListObject,
    MatrixObject,
    ScalarObject,
)
from repro.tensor.block import SPARSITY_TURN_POINT
from repro.types import DataType

_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: "weakref.WeakKeyDictionary[BasicBlock, Dict[Tuple, List]]" = (
    weakref.WeakKeyDictionary()
)

#: Per-block cap on cached plans (loops over wildly varying shapes).
_MAX_PLANS_PER_BLOCK = 32


def nnz_class(rows: int, cols: int, nnz: int) -> int:
    """The upper bound of the nnz class the compiler cannot tell apart.

    The compiler reads nnz only through the sparsity thresholds of
    ``output_memory`` (``SPARSITY_TURN_POINT``) and codegen's
    ``_SPARSE_GUARD``, plus the sparse memory estimate against the
    operator budget.  Unknown (-1) and empty (0) stay exact; at or above
    the turn point the class is the dense cell count; below it nnz rounds
    up to a power of two, capped just under the next threshold — so no
    threshold decision flips and the sparse estimate at most doubles.
    """
    cells = rows * cols
    if nnz <= 0 or cells <= 0:
        return nnz
    sparsity = nnz / cells
    if sparsity >= SPARSITY_TURN_POINT:
        return cells
    bound = _SPARSE_GUARD if sparsity < _SPARSE_GUARD else SPARSITY_TURN_POINT
    cap = max(nnz, int(bound * cells))
    while cap / cells >= bound:
        cap -= 1
    return min(1 << (nnz - 1).bit_length(), cap)


def stats_from_symbol_table(ctx) -> Dict[str, VarStats]:
    """Live-variable statistics: dims exact, nnz as its :func:`nnz_class`."""
    stats: Dict[str, VarStats] = {}
    for name, value in ctx.variables.items():
        if isinstance(value, ScalarObject):
            stats[name] = VarStats.scalar(value.value_type)
        elif isinstance(value, MatrixObject):
            stats[name] = VarStats(
                value.data_type, value.value_type,
                value.num_rows, value.num_cols,
                nnz_class(value.num_rows, value.num_cols, value.nnz),
            )
        elif isinstance(value, FrameObject):
            stats[name] = VarStats(
                DataType.FRAME, value.frame.schema[0] if value.frame.schema else None,
                value.num_rows, value.num_cols, -1,
            )
        elif isinstance(value, ListObject):
            stats[name] = VarStats(DataType.LIST, None, len(value), 1, -1)
    return stats


def _live_signature(names: Tuple[str, ...], variables: Dict) -> Tuple:
    """A hashable key over the statistics the recompiled plan depends on.

    Built straight from the symbol table for just the block's read names —
    this sits on the per-iteration hot path of every loop (plan-cache
    lookups happen before each basic-block execution), so it avoids the
    full ``stats_from_symbol_table`` materialization on cache hits.  The
    tuples mirror ``VarStats`` field-for-field (nnz as its
    :func:`nnz_class`) so equal statistics always map to equal keys.
    """
    parts = []
    for name in names:
        value = variables.get(name)
        if isinstance(value, ScalarObject):
            parts.append(
                (name, DataType.SCALAR.value, value.value_type.value, 0, 0, 0)
            )
        elif isinstance(value, MatrixObject):
            parts.append(
                (name, DataType.MATRIX.value, value.value_type.value,
                 value.num_rows, value.num_cols,
                 nnz_class(value.num_rows, value.num_cols, value.nnz))
            )
        elif isinstance(value, FrameObject):
            schema = value.frame.schema
            parts.append(
                (name, DataType.FRAME.value,
                 schema[0].value if schema else None,
                 value.num_rows, value.num_cols, -1)
            )
        elif isinstance(value, ListObject):
            parts.append((name, DataType.LIST.value, None, len(value), 1, -1))
        else:
            parts.append((name, None))
    return tuple(parts)


_SORTED_READS: "weakref.WeakKeyDictionary[BasicBlock, Tuple[str, ...]]" = (
    weakref.WeakKeyDictionary()
)


def recompile_basic_block(block: BasicBlock, ctx) -> List:
    """Instructions for one basic block given live statistics (plan-cached)."""
    config = ctx.config
    names = _SORTED_READS.get(block)
    if names is None:
        names = _SORTED_READS[block] = tuple(sorted(block.reads()))
    signature = (_live_signature(names, ctx.variables), id(config))
    with _CACHE_LOCK:
        plans = _PLAN_CACHE.get(block)
        if plans is not None:
            cached = plans.get(signature)
            if cached is not None:
                ctx.metrics["plan_cache_hits"] += 1
                return cached
    ctx.metrics["recompiles"] += 1
    stats = stats_from_symbol_table(ctx)
    traces = getattr(ctx, "traces", None)
    if traces is not None:
        # plan-cache miss: the block's statistics drifted, so any compiled
        # trace over a previous plan of this block is stale
        traces.on_recompile(block)
    builder = DagBuilder(ctx.program.ast_functions)
    roots = builder.build_roots(block.statements, block.live_out)
    roots = apply_rewrites(roots, config)
    propagate_dag(roots, stats)
    roots = apply_dynamic_rewrites(roots, config)
    propagate_dag(roots, stats)
    instructions = generate_instructions(roots, config)
    with _CACHE_LOCK:
        plans = _PLAN_CACHE.setdefault(block, {})
        if len(plans) < _MAX_PLANS_PER_BLOCK:
            plans[signature] = instructions
    return instructions
