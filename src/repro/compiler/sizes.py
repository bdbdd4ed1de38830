"""Size propagation and memory estimates (paper sections 2.3(2) and 3.4).

Dimensions and sparsity are propagated bottom-up through each HOP DAG,
starting from variable statistics (compile-time input metadata or, during
dynamic recompilation, the live symbol table).  Memory estimates derived
from these statistics drive local-vs-distributed operator selection.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Optional, Sequence

from repro.compiler import hops as H
from repro.tensor.block import SPARSITY_TURN_POINT
from repro.types import DataType, Direction, ValueType


@dataclasses.dataclass
class VarStats:
    """Compile-time statistics of one variable."""

    data_type: DataType = DataType.UNKNOWN
    value_type: ValueType = ValueType.FP64
    rows: int = -1
    cols: int = -1
    nnz: int = -1

    @classmethod
    def scalar(cls, value_type: ValueType = ValueType.FP64) -> "VarStats":
        return cls(DataType.SCALAR, value_type, 0, 0, 0)

    @classmethod
    def matrix(cls, rows: int, cols: int, nnz: int = -1) -> "VarStats":
        return cls(DataType.MATRIX, ValueType.FP64, rows, cols, nnz)


def _literal_int(hop: H.Hop) -> Optional[int]:
    if isinstance(hop, H.LiteralHop) and isinstance(hop.value, (int, float)):
        return int(hop.value)
    return None


def _literal_float(hop: H.Hop) -> Optional[float]:
    if isinstance(hop, H.LiteralHop) and isinstance(hop.value, (int, float)):
        return float(hop.value)
    return None


def _mm_nnz_estimate(left: H.Hop, right: H.Hop, rows: int, cols: int) -> int:
    """Matrix-multiply output nnz via the standard independence assumption."""
    if rows < 0 or cols < 0:
        return -1
    if not (left.nnz_known and right.nnz_known and left.dims_known and right.dims_known):
        return -1
    k = max(left.cols, 1)
    sparsity_left = left.sparsity
    sparsity_right = right.sparsity
    out_sparsity = 1.0 - (1.0 - sparsity_left * sparsity_right) ** k
    return int(round(out_sparsity * rows * cols))


def propagate_dag(roots: Sequence[H.Hop], stats: Dict[str, VarStats]) -> None:
    """Propagate dims/nnz bottom-up through one DAG."""
    for hop in H.topological_order(roots):
        _propagate_hop(hop, stats)


def _propagate_hop(hop: H.Hop, stats: Dict[str, VarStats]) -> None:
    if isinstance(hop, H.LiteralHop):
        return
    if isinstance(hop, H.DataHop):
        _propagate_data(hop, stats)
    elif isinstance(hop, H.DataGenHop):
        _propagate_datagen(hop)
    elif isinstance(hop, H.AggBinaryHop):
        left, right = hop.inputs
        rows = left.rows
        cols = right.cols
        hop.set_dims(rows, cols, _mm_nnz_estimate(left, right, rows, cols))
    elif isinstance(hop, H.BinaryHop):
        _propagate_binary(hop)
    elif isinstance(hop, H.AggUnaryHop):
        _propagate_agg(hop)
    elif isinstance(hop, H.UnaryHop):
        _propagate_unary(hop)
    elif isinstance(hop, H.ReorgHop):
        _propagate_reorg(hop)
    elif isinstance(hop, H.IndexingHop):
        _propagate_indexing(hop)
    elif isinstance(hop, H.LeftIndexingHop):
        target = hop.target
        hop.set_dims(target.rows, target.cols, -1)
    elif isinstance(hop, H.TernaryHop):
        _propagate_ternary(hop)
    elif isinstance(hop, H.NaryHop):
        _propagate_nary(hop)
    elif isinstance(hop, H.ParamBuiltinHop):
        _propagate_param_builtin(hop)
    elif isinstance(hop, H.FuncOutHop):
        pass  # stats come from the function signature; unknown here
    elif isinstance(hop, (H.FunctionCallHop, H.MultiReturnBuiltinHop)):
        pass
    _estimate_memory(hop)


def _propagate_data(hop: H.DataHop, stats: Dict[str, VarStats]) -> None:
    if hop.op == "tread":
        entry = stats.get(hop.name)
        if entry is not None:
            hop.data_type = entry.data_type
            hop.value_type = entry.value_type
            hop.set_dims(entry.rows, entry.cols, entry.nnz)
    elif hop.op == "pread":
        _propagate_pread(hop)
    elif hop.op in ("twrite", "pwrite"):
        source = hop.inputs[0]
        hop.data_type = source.data_type
        hop.value_type = source.value_type
        hop.copy_stats_from(source)


def _propagate_pread(hop: H.DataHop) -> None:
    rows = _literal_int(hop.params["rows"]) if "rows" in hop.params else None
    cols = _literal_int(hop.params["cols"]) if "cols" in hop.params else None
    if rows is None or cols is None:
        file_hop = hop.inputs[0] if hop.inputs else None
        if isinstance(file_hop, H.LiteralHop) and isinstance(file_hop.value, str):
            meta = _read_mtd(file_hop.value)
            if meta is not None:
                rows = rows if rows is not None else meta.get("rows")
                cols = cols if cols is not None else meta.get("cols")
                if meta.get("data_type") == "frame":
                    hop.data_type = DataType.FRAME
                nnz = meta.get("nnz", -1)
                hop.set_dims(rows or -1, cols or -1, nnz)
                if hop.data_type == DataType.UNKNOWN:
                    hop.data_type = DataType.MATRIX
                return
    if rows is not None and cols is not None:
        hop.set_dims(rows, cols, -1)
        hop.data_type = DataType.MATRIX


def _read_mtd(path: str) -> Optional[dict]:
    mtd_path = path + ".mtd"
    if not os.path.exists(mtd_path):
        return None
    try:
        with open(mtd_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _propagate_datagen(hop: H.DataGenHop) -> None:
    params = hop.params
    if hop.method in ("rand", "fill"):
        rows = _literal_int(params.get("rows")) if params.get("rows") is not None else None
        cols = _literal_int(params.get("cols")) if params.get("cols") is not None else None
        if rows is not None and cols is not None:
            nnz = rows * cols
            if hop.method == "rand":
                sparsity = _literal_float(params.get("sparsity")) if "sparsity" in params else 1.0
                if sparsity is not None:
                    nnz = int(rows * cols * min(max(sparsity, 0.0), 1.0))
                else:
                    nnz = -1
            else:
                value = _literal_float(params.get("value"))
                if value == 0.0:
                    nnz = 0
            hop.set_dims(rows, cols, nnz)
    elif hop.method == "seq":
        start = _literal_float(params.get("from"))
        stop = _literal_float(params.get("to"))
        step = _literal_float(params.get("incr")) if "incr" in params else 1.0
        if start is not None and stop is not None and step not in (None, 0.0):
            count = int((stop - start) / step + 1e-10) + 1
            hop.set_dims(max(count, 0), 1, -1)
        else:
            hop.cols = 1
    elif hop.method == "sample":
        size = _literal_int(params.get("size"))
        if size is not None:
            hop.set_dims(size, 1, size)
        else:
            hop.cols = 1


def _propagate_binary(hop: H.BinaryHop) -> None:
    left, right = hop.inputs
    if left.is_scalar() and right.is_scalar():
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
        return
    matrix_side = left if left.is_matrix() else right
    other = right if matrix_side is left else left
    hop.data_type = DataType.MATRIX
    rows, cols = matrix_side.rows, matrix_side.cols
    if other.is_matrix():
        # broadcasting: output takes the larger extent per dimension
        rows = max(rows, other.rows) if rows >= 0 and other.rows >= 0 else max(rows, other.rows)
        cols = max(cols, other.cols) if cols >= 0 and other.cols >= 0 else max(cols, other.cols)
    nnz = -1
    if rows >= 0 and cols >= 0 and left.nnz_known and (other.is_scalar() or right.nnz_known):
        cells = rows * cols
        if hop.op == "*":
            if other.is_scalar():
                nnz = left.nnz if left.is_matrix() else right.nnz
            else:
                nnz = min(left.nnz, right.nnz)
        elif hop.op in ("+", "-") and left.is_matrix() and right.is_matrix():
            nnz = min(cells, left.nnz + right.nnz)
        else:
            nnz = cells
    hop.set_dims(rows, cols, nnz)


def _propagate_unary(hop: H.UnaryHop) -> None:
    source = hop.inputs[0]
    if hop.op in ("nrow", "ncol", "length", "nnz"):
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
        return
    if hop.op in ("cast_as_scalar", "cast_as_double", "cast_as_integer", "cast_as_boolean"):
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
        return
    if hop.op == "cast_as_matrix":
        hop.data_type = DataType.MATRIX
        if source.is_scalar():
            hop.set_dims(1, 1, -1)
        else:
            hop.copy_stats_from(source)
        return
    if hop.op in ("print", "stop", "assert", "discard"):
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
        return
    if source.is_scalar():
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
        return
    hop.data_type = DataType.MATRIX
    rows, cols = source.rows, source.cols
    sparse_safe = hop.op in ("abs", "round", "floor", "ceil", "sign", "sqrt", "sin",
                             "tan", "uminus", "sinh", "tanh")
    nnz = source.nnz if sparse_safe else (rows * cols if rows >= 0 and cols >= 0 else -1)
    hop.set_dims(rows, cols, nnz)


def _propagate_agg(hop: H.AggUnaryHop) -> None:
    source = hop.inputs[0]
    if hop.op.startswith("cum"):
        hop.data_type = DataType.MATRIX
        hop.set_dims(source.rows, source.cols, -1)
        return
    if hop.direction == Direction.FULL:
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
    elif hop.direction == Direction.ROW:
        hop.data_type = DataType.MATRIX
        hop.set_dims(source.rows, 1, source.rows)
    else:
        hop.data_type = DataType.MATRIX
        hop.set_dims(1, source.cols, source.cols)


def _propagate_reorg(hop: H.ReorgHop) -> None:
    source = hop.inputs[0]
    if hop.op == "t":
        hop.set_dims(source.cols, source.rows, source.nnz)
    elif hop.op == "rev":
        hop.copy_stats_from(source)
    elif hop.op == "rdiag":
        if source.cols == 1:
            hop.set_dims(source.rows, source.rows, source.nnz)
        elif source.rows >= 0:
            hop.set_dims(source.rows, 1, -1)
    elif hop.op == "reshape":
        rows = _literal_int(hop.inputs[1]) if len(hop.inputs) > 1 else None
        cols = _literal_int(hop.inputs[2]) if len(hop.inputs) > 2 else None
        if rows is not None and cols is not None:
            hop.set_dims(rows, cols, source.nnz)


def _bound_value(bound: H.Hop, source: H.Hop) -> Optional[int]:
    literal = _literal_int(bound)
    if literal is not None:
        return literal
    if isinstance(bound, H.UnaryHop) and bound.op == "nrow" and bound.inputs[0] is source:
        return source.rows if source.rows >= 0 else None
    if isinstance(bound, H.UnaryHop) and bound.op == "ncol" and bound.inputs[0] is source:
        return source.cols if source.cols >= 0 else None
    return None


def _propagate_indexing(hop: H.IndexingHop) -> None:
    source = hop.source
    if source.data_type not in (DataType.MATRIX, DataType.TENSOR, DataType.FRAME):
        # list element access or unknown source: the bounds do not describe
        # matrix ranges, so no dimension information may be derived
        hop.data_type = DataType.UNKNOWN
        hop.set_dims(-1, -1, -1)
        return
    bounds = hop.bounds
    if len(bounds) != 4:
        return
    rl, ru, cl, cu = (_bound_value(b, source) for b in bounds)
    rows = ru - rl + 1 if rl is not None and ru is not None else -1
    cols = cu - cl + 1 if cl is not None and cu is not None else -1
    hop.set_dims(rows, cols, -1)


def _propagate_ternary(hop: H.TernaryHop) -> None:
    if hop.op == "ifelse":
        cond = hop.inputs[0]
        if cond.is_matrix():
            hop.copy_stats_from(cond)
        else:
            for candidate in hop.inputs[1:]:
                if candidate.is_matrix():
                    hop.copy_stats_from(candidate)
                    return
            hop.data_type = DataType.SCALAR
            hop.set_dims(0, 0, 0)
    elif hop.op == "quantile":
        probs = hop.inputs[1]
        if probs.is_scalar():
            hop.data_type = DataType.SCALAR
            hop.set_dims(0, 0, 0)
        else:
            hop.set_dims(probs.rows, 1, -1)
    # table: output dims are data dependent -> unknown


def _propagate_nary(hop: H.NaryHop) -> None:
    if hop.op == "list":
        hop.data_type = DataType.LIST
        return
    rows = cols = 0
    nnz = 0
    for child in hop.inputs:
        if not child.dims_known:
            hop.set_dims(-1, -1, -1)
            return
        if hop.op == "cbind":
            rows = max(rows, child.rows)
            cols += child.cols
        else:
            rows += child.rows
            cols = max(cols, child.cols)
        nnz = nnz + child.nnz if nnz >= 0 and child.nnz_known else -1
    hop.set_dims(rows, cols, nnz)


def _propagate_param_builtin(hop: H.ParamBuiltinHop) -> None:
    params = hop.params
    target = params.get("target")
    if hop.op in ("replace", "lowertri", "uppertri") and target is not None:
        hop.copy_stats_from(target)
    elif hop.op == "order" and target is not None:
        hop.copy_stats_from(target)
    elif hop.op == "removeEmpty" and target is not None:
        # output extent along the removal margin is data dependent; it must
        # stay unknown so metadata folding never bakes in the worst case
        margin = hop.params.get("margin")
        margin_name = margin.value if isinstance(margin, H.LiteralHop) else "rows"
        if margin_name == "rows":
            hop.set_dims(-1, target.cols, -1)
        else:
            hop.set_dims(target.rows, -1, -1)
    elif hop.op == "outer":
        u, v = params.get("u"), params.get("v")
        if u is not None and v is not None:
            hop.set_dims(u.rows, v.rows, -1)
    elif hop.op in ("time", "toString"):
        hop.data_type = DataType.SCALAR
        hop.set_dims(0, 0, 0)
    elif hop.op == "transformapply":
        if target is not None:
            hop.set_dims(target.rows, -1, -1)


# ---------------------------------------------------------------------------
# memory estimates
# ---------------------------------------------------------------------------


def _dense_size(rows: int, cols: int) -> float:
    return max(rows, 1) * max(cols, 1) * 8.0


def output_memory(hop: H.Hop) -> float:
    """Worst-case output memory of one hop in bytes."""
    if hop.is_scalar():
        return 64.0
    if not hop.dims_known:
        return float("inf")
    if hop.nnz_known and hop.rows * hop.cols > 0:
        if hop.sparsity < SPARSITY_TURN_POINT:
            return hop.nnz * 12.0 + hop.rows * 8.0
    return _dense_size(hop.rows, hop.cols)


def _estimate_memory(hop: H.Hop) -> None:
    total = output_memory(hop)
    for child in hop.inputs:
        total += output_memory(child)
    hop.mem_estimate = total


def dag_has_unknowns(roots: Sequence[H.Hop]) -> bool:
    """True when any matrix hop in the DAG lacks dimension information."""
    for hop in H.topological_order(roots):
        if isinstance(hop, (H.FunctionCallHop, H.MultiReturnBuiltinHop, H.FuncOutHop)):
            continue  # function outputs are refreshed by the callee
        if hop.is_matrix() and not hop.dims_known:
            return True
        if hop.data_type == DataType.UNKNOWN and not isinstance(hop, H.DataHop):
            return True
        if isinstance(hop, H.DataHop) and hop.data_type == DataType.UNKNOWN and hop.op in ("tread", "pread"):
            return True
    return False
