"""Local (control-program) instruction set.

These instructions execute on local tensor blocks via the kernel library in
:mod:`repro.tensor.ops`.  Inputs that arrived in a distributed or federated
representation are collected through the execution context (which accounts
the transfer) — the compiler avoids this where it matters by selecting
Spark/federated instructions instead.
"""

from __future__ import annotations

import math
import time as _time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DMLStopError, RuntimeDMLError
from repro.runtime.data import (
    FrameObject,
    ListObject,
    MatrixObject,
    ScalarObject,
)
from repro.runtime.instructions.base import Instruction, Operand
from repro.tensor import BasicTensorBlock, Frame
from repro.tensor import ops
from repro.types import DataType, Direction, ValueType


class AssignVarInstruction(Instruction):
    """Bind the value of one variable/temp to another name (by reference)."""

    def __init__(self, source: Operand, output: str):
        super().__init__("assignvar", [source], output)

    def execute(self, ctx) -> None:
        self.bind(ctx, self._resolve(self.inputs[0], ctx))


class RmVarInstruction(Instruction):
    """Remove variables from the symbol table and free their payloads."""

    def __init__(self, names: Sequence[str]):
        super().__init__("rmvar", [], None, {"names": list(names)})

    def execute(self, ctx) -> None:
        for name in self.params["names"]:
            ctx.remove(name)


# ---------------------------------------------------------------------------
# scalar arithmetic helpers
# ---------------------------------------------------------------------------

_SCALAR_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b,
    "%%": lambda a, b: a % b,
    "%/%": lambda a, b: a // b,
    "min": min,
    "max": max,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&": lambda a, b: bool(a) and bool(b),
    "|": lambda a, b: bool(a) or bool(b),
    "xor": lambda a, b: bool(a) != bool(b),
    "log": lambda a, b: math.log(a) / math.log(b),
    "solve": None,  # matrix-only
}

_SCALAR_UNARY = {
    "uminus": lambda a: -a,
    "!": lambda a: not bool(a),
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "round": lambda a: float(round(a)),
    "floor": lambda a: float(math.floor(a)),
    "ceil": lambda a: float(math.ceil(a)),
    "sign": lambda a: float(np.sign(a)),
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sigmoid": lambda a: 1.0 / (1.0 + math.exp(-a)),
}


def _scalar_binary(op: str, left: ScalarObject, right: ScalarObject) -> ScalarObject:
    if op == "+" and (left.value_type == ValueType.STRING or right.value_type == ValueType.STRING):
        return ScalarObject(left.as_string() + right.as_string())
    if op in ("==", "!=") and (
        left.value_type == ValueType.STRING or right.value_type == ValueType.STRING
    ):
        equal = left.as_string() == right.as_string()
        return ScalarObject(equal if op == "==" else not equal)
    func = _SCALAR_BINARY.get(op)
    if func is None:
        raise RuntimeDMLError(f"scalar operator {op!r} not supported")
    try:
        result = func(left.as_float(), right.as_float())
    except ZeroDivisionError:
        result = float("nan") if op == "/" else float("nan")
    if op in ("==", "!=", "<", "<=", ">", ">=", "&", "|", "xor"):
        return ScalarObject(bool(result))
    if (
        left.value_type in (ValueType.INT32, ValueType.INT64)
        and right.value_type in (ValueType.INT32, ValueType.INT64)
        and op in ("+", "-", "*", "%%", "%/%", "min", "max", "^")
    ):
        return ScalarObject(int(result))
    return ScalarObject(float(result))


class BinaryInstruction(Instruction):
    """Elementwise binary op dispatching on the runtime operand types."""

    def __init__(self, op: str, left: Operand, right: Operand, output: str):
        super().__init__(op, [left, right], output)

    def execute(self, ctx) -> None:
        left = self._resolve(self.inputs[0], ctx)
        right = self._resolve(self.inputs[1], ctx)
        if isinstance(left, ScalarObject) and isinstance(right, ScalarObject):
            self.bind_scalar(ctx, _scalar_binary(self.opcode, left, right))
            return
        if isinstance(left, MatrixObject) and left.federated is not None:
            self._execute_federated(ctx, left, right)
            return
        if self.opcode == "solve":
            a = self.block_in(0, ctx)
            b = self.block_in(1, ctx)
            self.bind_block(ctx, ops.solve(a, b))
            return
        if isinstance(left, MatrixObject) and isinstance(right, ScalarObject):
            block = left.acquire_local(ctx.collect)
            result = ops.binary_scalar(self.opcode, block, right.as_float())
        elif isinstance(left, ScalarObject) and isinstance(right, MatrixObject):
            block = right.acquire_local(ctx.collect)
            result = ops.binary_scalar(self.opcode, block, left.as_float(), scalar_left=True)
        else:
            a = self.block_in(0, ctx)
            b = self.block_in(1, ctx)
            result = ops.binary_op(self.opcode, a, b)
        self.bind_block(ctx, result)

    def _execute_federated(self, ctx, left: MatrixObject, right) -> None:
        """Push the elementwise op to the federated sites."""
        from repro.federated import instructions as fed_ops

        channel = fed_ops.channel_of(ctx)
        if isinstance(right, ScalarObject):
            result = fed_ops.fed_elementwise_scalar(
                self.opcode, left.federated, right.as_float(), channel=channel
            )
        elif isinstance(right, MatrixObject) and right.federated is None:
            result = fed_ops.fed_binary_rowsliced(
                self.opcode, left.federated, right.acquire_local(ctx.collect),
                channel=channel,
            )
        else:
            # federated op federated: collect the right side (checked)
            result = fed_ops.fed_binary_rowsliced(
                self.opcode, left.federated, self.block_in(1, ctx),
                channel=channel,
            )
        ctx.set_federated_temp(self.output, result)


class UnaryInstruction(Instruction):
    """Elementwise unary, cast, or metadata operation."""

    def __init__(self, op: str, operand: Operand, output: str):
        super().__init__(op, [operand], output)

    def execute(self, ctx) -> None:
        op = self.opcode
        value = self._resolve(self.inputs[0], ctx)
        if op in ("nrow", "ncol", "length", "nnz"):
            self._metadata(ctx, value)
            return
        if op.startswith("cast_as_"):
            self._cast(ctx, value)
            return
        if isinstance(value, ScalarObject):
            func = _SCALAR_UNARY.get(op)
            if func is None:
                raise RuntimeDMLError(f"scalar unary {op!r} not supported")
            result = func(value.as_float())
            if op == "!":
                self.bind_scalar(ctx, bool(result))
            else:
                self.bind_scalar(ctx, float(result))
            return
        block = self.block_in(0, ctx)
        if op == "inv":
            self.bind_block(ctx, ops.inverse(block))
        elif op == "cholesky":
            self.bind_block(ctx, ops.cholesky(block))
        else:
            self.bind_block(ctx, ops.unary_op(op, block))

    def _metadata(self, ctx, value) -> None:
        if isinstance(value, MatrixObject):
            rows, cols = value.num_rows, value.num_cols
        elif isinstance(value, FrameObject):
            rows, cols = value.num_rows, value.num_cols
        elif isinstance(value, ListObject):
            rows, cols = len(value), 1
        elif isinstance(value, ScalarObject):
            rows = cols = 1
        else:
            raise RuntimeDMLError(f"{self.opcode} on {type(value).__name__}")
        if self.opcode == "nrow":
            self.bind_scalar(ctx, int(rows))
        elif self.opcode == "ncol":
            self.bind_scalar(ctx, int(cols))
        elif self.opcode == "length":
            self.bind_scalar(ctx, int(rows * cols))
        else:  # nnz
            if isinstance(value, MatrixObject):
                block = value.acquire_local(ctx.collect)
                self.bind_scalar(ctx, int(block.nnz))
            else:
                self.bind_scalar(ctx, int(rows * cols))

    def _cast(self, ctx, value) -> None:
        op = self.opcode
        if op == "cast_as_scalar":
            if isinstance(value, ScalarObject):
                self.bind_scalar(ctx, value)
            elif isinstance(value, MatrixObject):
                block = value.acquire_local(ctx.collect)
                self.bind_scalar(ctx, block.as_scalar())
            else:
                raise RuntimeDMLError("as.scalar on non-scalar, non-matrix value")
        elif op == "cast_as_matrix":
            if isinstance(value, ScalarObject):
                self.bind_block(ctx, BasicTensorBlock.scalar(value.as_float()))
            elif isinstance(value, FrameObject):
                self.bind_block(ctx, value.frame.to_matrix())
            else:
                self.bind(ctx, value)
        elif op == "cast_as_frame":
            if isinstance(value, MatrixObject):
                self.bind_frame(ctx, Frame.from_matrix(value.acquire_local(ctx.collect)))
            else:
                self.bind(ctx, value)
        elif op == "cast_as_double":
            self.bind_scalar(ctx, self.scalar_in(0, ctx).as_float())
        elif op == "cast_as_integer":
            self.bind_scalar(ctx, self.scalar_in(0, ctx).as_int())
        elif op == "cast_as_boolean":
            self.bind_scalar(ctx, self.scalar_in(0, ctx).as_bool())
        else:
            raise RuntimeDMLError(f"unknown cast {op!r}")


class FusedCellInstruction(Instruction):
    """One code-generated elementwise region executed without intermediates.

    Produced by the cell-template fusion planner
    (:mod:`repro.compiler.codegen`); the generated source is kept in
    ``params`` for explain/debugging.
    """

    def __init__(self, region, inputs: Sequence[Operand], output: str):
        super().__init__("fused", inputs, output,
                         {"signature": region.signature, "source": region.source})
        self._func = region.func

    def execute(self, ctx) -> None:
        args = []
        for index, operand in enumerate(self.inputs):
            value = self._resolve(operand, ctx)
            if isinstance(value, ScalarObject):
                args.append(value.as_float())
            else:
                args.append(self.block_in(index, ctx).to_numpy())
        result = self._func(*args)
        self.bind_block(ctx, BasicTensorBlock.from_numpy(np.atleast_2d(result)))


class AggregateUnaryInstruction(Instruction):
    """Full/row/column aggregates and cumulative aggregates."""

    def __init__(self, op: str, direction: Direction, operand: Operand, output: str):
        super().__init__(op, [operand], output, {"direction": direction})

    def execute(self, ctx) -> None:
        op = self.opcode
        direction: Direction = self.params["direction"]
        value = self._resolve(self.inputs[0], ctx)
        if isinstance(value, ScalarObject) and direction == Direction.FULL:
            if op in ("sum", "mean", "min", "max", "prod"):
                self.bind_scalar(ctx, value.as_float())
                return
            if op in ("var", "sd"):
                raise RuntimeDMLError(f"{op} of a scalar is undefined")
        if isinstance(value, MatrixObject) and not value.is_local and op == "sum" \
                and direction == Direction.FULL and value.rdd is not None:
            from repro.distributed import dist_ops

            self.bind_scalar(ctx, dist_ops.aggregate_sum(value.rdd))
            return
        if isinstance(value, MatrixObject) and value.federated is not None \
                and op in ("sum", "mean", "min", "max"):
            from repro.federated import instructions as fed_ops

            result = fed_ops.fed_aggregate(
                op, value.federated, direction, channel=fed_ops.channel_of(ctx)
            )
            if direction == Direction.FULL:
                self.bind_scalar(ctx, float(result))
            else:
                self.bind_block(ctx, result)
            return
        block = self.block_in(0, ctx)
        if op == "trace":
            self.bind_scalar(ctx, ops.trace(block))
        elif op.startswith("cum"):
            self.bind_block(ctx, ops.cumulative_op(op, block))
        elif op in ("rowIndexMax", "rowIndexMin"):
            self.bind_block(ctx, ops.row_index_extreme(block, use_max=op == "rowIndexMax"))
        else:
            result = ops.aggregate(op, block, direction)
            if direction == Direction.FULL:
                self.bind_scalar(ctx, float(result))
            else:
                self.bind_block(ctx, result)


class MatMultInstruction(Instruction):
    """Matrix multiply with physical variants: mm, tsmm (t(X)X), tmm (t(X)Y)."""

    reusable = True

    def __init__(self, physical: str, inputs: Sequence[Operand], output: str):
        super().__init__(physical, inputs, output)

    def execute(self, ctx) -> None:
        cfg = ctx.config
        left_obj = self._resolve(self.inputs[0], ctx)
        if isinstance(left_obj, MatrixObject) and left_obj.federated is not None:
            self._execute_federated(ctx, left_obj)
            return
        if self.opcode == "tsmm":
            block = self.block_in(0, ctx)
            result = ops.tsmm(block, cfg.native_blas, cfg.matmult_tile)
        elif self.opcode == "tmm":
            left = self.block_in(0, ctx)
            right = self.block_in(1, ctx)
            result = ops.mapmm_transpose_left(left, right, cfg.native_blas, cfg.matmult_tile)
        else:
            left = self.block_in(0, ctx)
            right = self.block_in(1, ctx)
            result = ops.matmult(left, right, cfg.native_blas, cfg.matmult_tile)
        self.bind_block(ctx, result)

    def _execute_federated(self, ctx, left_obj: MatrixObject) -> None:
        """Federated matmult variants: push-down with aggregate collection."""
        from repro.federated import instructions as fed_ops

        fed = left_obj.federated
        channel = fed_ops.channel_of(ctx)
        if self.opcode == "tsmm":
            self.bind_block(ctx, fed_ops.fed_tsmm(fed, channel=channel))
            return
        if self.opcode == "tmm":
            right = self.block_in(1, ctx)
            self.bind_block(ctx, fed_ops.fed_tmm(fed, right, channel=channel))
            return
        right = self.block_in(1, ctx)
        result = fed_ops.fed_matmult(fed, right, channel=channel)
        ctx.set_federated_temp(self.output, result)


class ReorgInstruction(Instruction):
    """Transpose, reverse, diag, reshape."""

    def __init__(self, op: str, inputs: Sequence[Operand], output: str):
        super().__init__(op, inputs, output)

    def execute(self, ctx) -> None:
        block = self.block_in(0, ctx)
        if self.opcode == "t":
            self.bind_block(ctx, ops.transpose(block))
        elif self.opcode == "rev":
            self.bind_block(ctx, ops.rev(block))
        elif self.opcode == "rdiag":
            self.bind_block(ctx, ops.diag(block))
        elif self.opcode == "reshape":
            rows = self.scalar_in(1, ctx).as_int()
            cols = self.scalar_in(2, ctx).as_int()
            byrow = self.scalar_in(3, ctx).as_bool() if len(self.inputs) > 3 else True
            source = self._resolve(self.inputs[0], ctx)
            if isinstance(source, ScalarObject):
                # matrix(s, rows, cols) over a scalar variable: a fill, not
                # a reshape (the builder cannot see the type statically)
                self.bind_block(
                    ctx, BasicTensorBlock.full((rows, cols), source.as_float())
                )
            else:
                self.bind_block(ctx, ops.reshape(block, rows, cols, byrow))
        else:
            raise RuntimeDMLError(f"unknown reorg {self.opcode!r}")


class IndexingInstruction(Instruction):
    """Right indexing with 1-based inclusive bounds; also list element access."""

    def __init__(self, inputs: Sequence[Operand], output: str):
        super().__init__("rix", inputs, output)

    def execute(self, ctx) -> None:
        value = self._resolve(self.inputs[0], ctx)
        if isinstance(value, ListObject):
            index = self.scalar_in(1, ctx)
            key = index.value if index.value_type == ValueType.STRING else index.as_int()
            self.bind(ctx, value.get(key))
            return
        rl = self.scalar_in(1, ctx).as_int()
        ru = self.scalar_in(2, ctx).as_int()
        cl = self.scalar_in(3, ctx).as_int()
        cu = self.scalar_in(4, ctx).as_int()
        if isinstance(value, FrameObject):
            frame = value.frame.slice_rows(rl - 1, ru).select_columns(list(range(cl - 1, cu)))
            self.bind_frame(ctx, frame)
            return
        block = self.block_in(0, ctx)
        result = ops.right_index(block, [(rl - 1, ru), (cl - 1, cu)])
        self.bind_block(ctx, result)


class LeftIndexingInstruction(Instruction):
    """Left indexing producing a new matrix version (copy on write)."""

    def __init__(self, inputs: Sequence[Operand], output: str):
        super().__init__("lix", inputs, output)

    def execute(self, ctx) -> None:
        target = self.block_in(0, ctx)
        source = self._resolve(self.inputs[1], ctx)
        rl = self.scalar_in(2, ctx).as_int()
        ru = self.scalar_in(3, ctx).as_int()
        cl = self.scalar_in(4, ctx).as_int()
        cu = self.scalar_in(5, ctx).as_int()
        ranges = [(rl - 1, ru), (cl - 1, cu)]
        if isinstance(source, ScalarObject):
            result = ops.left_index_scalar(target, source.as_float(), ranges)
        else:
            block = self.block_in(1, ctx)
            result = ops.left_index(target, block, ranges)
        self.bind_block(ctx, result)


class TernaryInstruction(Instruction):
    def __init__(self, op: str, inputs: Sequence[Operand], output: str):
        super().__init__(op, inputs, output)

    def execute(self, ctx) -> None:
        if self.opcode == "ifelse":
            cond = self._resolve(self.inputs[0], ctx)
            then_val = self._resolve(self.inputs[1], ctx)
            else_val = self._resolve(self.inputs[2], ctx)
            if isinstance(cond, ScalarObject):
                chosen = then_val if cond.as_bool() else else_val
                if isinstance(chosen, ScalarObject):
                    self.bind_scalar(ctx, chosen)
                else:
                    self.bind(ctx, chosen)
                return
            cond_block = self.block_in(0, ctx)
            then_arg = then_val.as_float() if isinstance(then_val, ScalarObject) else self.block_in(1, ctx)
            else_arg = else_val.as_float() if isinstance(else_val, ScalarObject) else self.block_in(2, ctx)
            self.bind_block(ctx, ops.ternary_ifelse(cond_block, then_arg, else_arg))
        elif self.opcode == "table":
            rows = self.block_in(0, ctx)
            cols = self.block_in(1, ctx)
            weights = None
            dims = []
            for index in range(2, len(self.inputs)):
                value = self._resolve(self.inputs[index], ctx)
                if isinstance(value, ScalarObject):
                    dims.append(value.as_int())
                else:
                    weights = self.block_in(index, ctx)
            out_rows = dims[0] if dims else None
            out_cols = dims[1] if len(dims) > 1 else None
            self.bind_block(ctx, ops.table(rows, cols, weights, out_rows, out_cols))
        elif self.opcode == "quantile":
            data = self.block_in(0, ctx)
            probs = self._resolve(self.inputs[1], ctx)
            if isinstance(probs, ScalarObject):
                prob_block = BasicTensorBlock.scalar(probs.as_float())
                result = ops.quantile(data, prob_block)
                self.bind_scalar(ctx, result.to_numpy()[0, 0])
            else:
                self.bind_block(ctx, ops.quantile(data, self.block_in(1, ctx)))
        else:
            raise RuntimeDMLError(f"unknown ternary {self.opcode!r}")


class NaryInstruction(Instruction):
    def __init__(self, op: str, inputs: Sequence[Operand], output: str):
        super().__init__(op, inputs, output)

    def execute(self, ctx) -> None:
        if self.opcode == "list":
            items = [self._resolve(op, ctx) for op in self.inputs]
            self.bind_list(ctx, items)
            return
        if self.opcode == "eval":
            self._execute_eval(ctx)
            return
        values = [self._resolve(op, ctx) for op in self.inputs]
        if all(isinstance(v, FrameObject) for v in values):
            frames = [v.frame for v in values]
            combined = frames[0]
            for frame in frames[1:]:
                combined = combined.cbind(frame) if self.opcode == "cbind" else combined.rbind(frame)
            self.bind_frame(ctx, combined)
            return
        blocks = [self.block_in(i, ctx) for i in range(len(self.inputs))]
        if self.opcode == "cbind":
            self.bind_block(ctx, ops.cbind(blocks))
        elif self.opcode == "rbind":
            self.bind_block(ctx, ops.rbind(blocks))
        else:
            raise RuntimeDMLError(f"unknown nary {self.opcode!r}")

    def _execute_eval(self, ctx) -> None:
        """Second-order call: eval("fname", args...) -> first output."""
        from repro.runtime.interpreter import call_function

        func_name = self.scalar_in(0, ctx).as_string()
        args = [self._resolve(operand, ctx) for operand in self.inputs[1:]]
        arg_items = None
        if ctx.tracer is not None:
            arg_items = [ctx.tracer.operand_item(op) for op in self.inputs[1:]]
        results, items = call_function(
            ctx, func_name, args, [None] * len(args), arg_items
        )
        self.bind(ctx, results[0])
        if ctx.tracer is not None and items and items[0] is not None:
            ctx.tracer.items[self.output] = items[0]


class DataGenInstruction(Instruction):
    """rand/fill/seq/sample data generators."""

    def __init__(self, method: str, param_operands: Dict[str, Operand], output: str):
        super().__init__(f"datagen_{method}", list(param_operands.values()), output,
                         {"method": method, "names": list(param_operands.keys())})

    def _named(self, ctx) -> Dict[str, ScalarObject]:
        values = {}
        for name, operand in zip(self.params["names"], self.inputs):
            resolved = self._resolve(operand, ctx)
            if not isinstance(resolved, ScalarObject):
                raise RuntimeDMLError(f"datagen parameter {name!r} must be scalar")
            values[name] = resolved
        return values

    def execute(self, ctx) -> None:
        method = self.params["method"]
        named = self._named(ctx)
        if method == "rand":
            seed = named["seed"].as_int() if "seed" in named else -1
            if seed < 0:
                seed = ctx.next_seed()
            block = BasicTensorBlock.rand(
                (named["rows"].as_int(), named["cols"].as_int()),
                min_value=named["min"].as_float() if "min" in named else 0.0,
                max_value=named["max"].as_float() if "max" in named else 1.0,
                sparsity=named["sparsity"].as_float() if "sparsity" in named else 1.0,
                seed=seed,
                pdf=named["pdf"].as_string() if "pdf" in named else "uniform",
            )
            ctx.trace_datagen(self.output, self, seed)
            self.bind_block(ctx, block)
        elif method == "fill":
            block = BasicTensorBlock.full(
                (named["rows"].as_int(), named["cols"].as_int()), named["value"].as_float()
            )
            self.bind_block(ctx, block)
        elif method == "seq":
            step = named["incr"].as_float() if "incr" in named else None
            start = named["from"].as_float()
            stop = named["to"].as_float()
            if step is None:
                step = 1.0 if stop >= start else -1.0
            self.bind_block(ctx, ops.seq(start, stop, step))
        elif method == "sample":
            seed = named["seed"].as_int() if "seed" in named else ctx.next_seed()
            block = ops.sample(
                named["range"].as_int(),
                named["size"].as_int(),
                replace_draws=named["replace"].as_bool() if "replace" in named else False,
                seed=seed,
            )
            ctx.trace_datagen(self.output, self, seed)
            self.bind_block(ctx, block)
        else:
            raise RuntimeDMLError(f"unknown datagen {method!r}")


class ReadInstruction(Instruction):
    """Persistent read of a matrix or frame from the filesystem.

    With lineage on, the read's leaf is a digest of the file's content;
    with reuse on, a matrix read probes the reuse cache under that leaf
    before parsing, so an unchanged file is parsed once per process.
    """

    def __init__(self, inputs: Sequence[Operand], output: str, params: dict):
        super().__init__("pread", inputs, output, params)

    def execute(self, ctx) -> None:
        from repro.io import readers

        path = self.scalar_in(0, ctx).as_string()
        named = {
            name: self._resolve(operand, ctx)
            for name, operand in zip(self.params.get("names", []), self.inputs[1:])
        }
        item = None
        reusable = False
        if ctx.tracer is not None:
            item = ctx.tracer.read_item(path, named)
            reusable = (ctx.reuse is not None
                        and readers.read_format(path, named)[1] == "matrix")
            if reusable:
                cached = ctx.reuse.probe(item)
                if cached is not None:
                    if ctx.stats is not None:
                        ctx.stats.count("lineage_reuse_hits")
                    self.bind_block(ctx, cached)
                    ctx.tracer.items[self.output] = item
                    return
        result = readers.read_any(path, named, ctx.config)
        if ctx.stats is not None:
            ctx.stats.count("persistent_reads")
            ctx.stats.count("bytes_read", int(result.memory_size()))
        if isinstance(result, Frame):
            self.bind_frame(ctx, result)
        else:
            self.bind_block(ctx, result)
        if item is not None:
            ctx.tracer.items[self.output] = item
            if reusable and isinstance(result, BasicTensorBlock):
                ctx.reuse.put(item, result, result.memory_size())


class WriteInstruction(Instruction):
    """Persistent write of a matrix/frame/scalar to the filesystem."""

    def __init__(self, inputs: Sequence[Operand], params: dict):
        super().__init__("pwrite", inputs, None, params)

    def execute(self, ctx) -> None:
        from repro.io import writers

        value = self._resolve(self.inputs[0], ctx)
        path = self.scalar_in(1, ctx).as_string()
        named = {
            name: self._resolve(operand, ctx)
            for name, operand in zip(self.params.get("names", []), self.inputs[2:])
        }
        if isinstance(value, MatrixObject):
            writers.write_matrix(value.acquire_local(ctx.collect), path, named)
        elif isinstance(value, FrameObject):
            writers.write_frame(value.frame, path, named)
        elif isinstance(value, ScalarObject):
            writers.write_scalar(value.value, path, named)
        else:
            raise RuntimeDMLError(f"cannot write {type(value).__name__}")


class PrintInstruction(Instruction):
    def __init__(self, operand: Operand):
        super().__init__("print", [operand], None)

    def execute(self, ctx) -> None:
        value = self._resolve(self.inputs[0], ctx)
        if isinstance(value, ScalarObject):
            text = value.as_string()
        elif isinstance(value, MatrixObject):
            text = _format_block(value.acquire_local(ctx.collect))
        elif isinstance(value, FrameObject):
            text = repr(value.frame)
        else:
            text = repr(value)
        ctx.emit_print(text)


class StopInstruction(Instruction):
    def __init__(self, operand: Operand):
        super().__init__("stop", [operand], None)

    def execute(self, ctx) -> None:
        message = self.scalar_in(0, ctx).as_string()
        raise DMLStopError(message)


class AssertInstruction(Instruction):
    def __init__(self, operand: Operand):
        super().__init__("assert", [operand], None)

    def execute(self, ctx) -> None:
        condition = self.scalar_in(0, ctx)
        if not condition.as_bool():
            raise DMLStopError("assertion failed")


class DiscardInstruction(Instruction):
    """Evaluate an expression for effect and drop the result."""

    def __init__(self, operand: Operand):
        super().__init__("discard", [operand], None)

    def execute(self, ctx) -> None:
        self._resolve(self.inputs[0], ctx)


def _format_block(block: BasicTensorBlock, max_rows: int = 20, max_cols: int = 12) -> str:
    data = block.to_numpy()
    if data.ndim == 2 and (data.shape[0] > max_rows or data.shape[1] > max_cols):
        data = data[:max_rows, :max_cols]
    lines = [" ".join(f"{v:.6g}" if isinstance(v, (int, float, np.floating)) else str(v)
                      for v in row) for row in np.atleast_2d(data)]
    return "\n".join(lines)


class FunctionCallInstruction(Instruction):
    """Call a compiled DML function: bind args, run its blocks, bind outputs."""

    def __init__(self, func_name: str, inputs: Sequence[Operand],
                 arg_names: Sequence[Optional[str]], outputs: Sequence[str]):
        super().__init__("fcall", inputs, None,
                         {"func": func_name, "arg_names": list(arg_names),
                          "outputs": list(outputs)})

    def output_names(self) -> List[str]:
        return list(self.params["outputs"])

    def execute(self, ctx) -> None:
        from repro.runtime.interpreter import call_function

        args = [self._resolve(operand, ctx) for operand in self.inputs]
        arg_items = None
        if ctx.tracer is not None:
            arg_items = [ctx.tracer.operand_item(operand) for operand in self.inputs]
        if ctx.stats is not None:
            # nested scope: recursive calls stack as fcall:f/fcall:g
            with ctx.stats.time(f"fcall:{self.params['func']}"):
                results, items = call_function(
                    ctx, self.params["func"], args, self.params["arg_names"], arg_items
                )
        else:
            results, items = call_function(
                ctx, self.params["func"], args, self.params["arg_names"], arg_items
            )
        for name, value, item in zip(self.params["outputs"], results, items):
            ctx.set(name, value)
            if ctx.tracer is not None and item is not None:
                ctx.tracer.items[name] = item


class MultiReturnBuiltinInstruction(Instruction):
    """eigen / svd / transformencode with multiple outputs."""

    def __init__(self, op: str, inputs: Sequence[Operand], outputs: Sequence[str]):
        super().__init__(op, inputs, None, {"outputs": list(outputs)})

    def output_names(self) -> List[str]:
        return list(self.params["outputs"])

    def execute(self, ctx) -> None:
        outputs = self.params["outputs"]
        if self.opcode == "eigen":
            values, vectors = ops.eigen(self.block_in(0, ctx))
            ctx.set(outputs[0], MatrixObject.from_block(values, ctx.pool))
            ctx.set(outputs[1], MatrixObject.from_block(vectors, ctx.pool))
        elif self.opcode == "svd":
            u, s, v = ops.svd(self.block_in(0, ctx))
            for name, block in zip(outputs, (u, s, v)):
                ctx.set(name, MatrixObject.from_block(block, ctx.pool))
        elif self.opcode == "transformencode":
            from repro.prep.transform import transform_encode

            frame = self.frame_in(0, ctx)
            spec = self.scalar_in(1, ctx).as_string()
            matrix, meta = transform_encode(frame, spec)
            ctx.set(outputs[0], MatrixObject.from_block(matrix, ctx.pool))
            ctx.set(outputs[1], FrameObject(meta))
        else:
            raise RuntimeDMLError(f"unknown multi-return builtin {self.opcode!r}")


class ParamBuiltinInstruction(Instruction):
    """Parameterised builtins: removeEmpty, replace, order, outer, ..."""

    def __init__(self, op: str, param_operands: Dict[str, Operand], output: str):
        super().__init__(op, list(param_operands.values()), output,
                         {"names": list(param_operands.keys())})

    def _operand(self, name: str) -> Optional[int]:
        try:
            return self.params["names"].index(name)
        except ValueError:
            return None

    def _param(self, name: str, ctx, default=None):
        index = self._operand(name)
        if index is None:
            return default
        return self._resolve(self.inputs[index], ctx)

    def execute(self, ctx) -> None:
        op = self.opcode
        if op == "removeEmpty":
            target = self._block_param("target", ctx)
            margin = self._scalar_param("margin", ctx, "rows").as_string()
            select_obj = self._param("select", ctx)
            select = None
            if isinstance(select_obj, MatrixObject):
                select = select_obj.acquire_local(ctx.collect)
            self.bind_block(ctx, ops.remove_empty(target, margin, select))
        elif op == "replace":
            target = self._block_param("target", ctx)
            pattern = self._scalar_param("pattern", ctx).as_float()
            replacement = self._scalar_param("replacement", ctx).as_float()
            self.bind_block(ctx, ops.replace(target, pattern, replacement))
        elif op == "order":
            target = self._block_param("target", ctx)
            by = self._scalar_param("by", ctx, 1).as_int()
            decreasing = self._scalar_param("decreasing", ctx, False).as_bool()
            index_return = self._scalar_param("index.return", ctx, False).as_bool()
            self.bind_block(ctx, ops.order(target, by, decreasing, index_return))
        elif op == "outer":
            u = self._block_param("u", ctx)
            v = self._block_param("v", ctx)
            operator = self._scalar_param("op", ctx, "*").as_string()
            self.bind_block(ctx, ops.outer(u, v, operator))
        elif op in ("lowertri", "uppertri"):
            target = self._block_param("target", ctx)
            include_diag = self._scalar_param("diag", ctx, False).as_bool()
            data = target.to_numpy()
            k = 0 if include_diag else (-1 if op == "lowertri" else 1)
            masked = np.tril(data, k) if op == "lowertri" else np.triu(data, k)
            self.bind_block(ctx, BasicTensorBlock.from_numpy(masked))
        elif op == "toString":
            target = self._param("target", ctx)
            if isinstance(target, MatrixObject):
                self.bind_scalar(ctx, _format_block(target.acquire_local(ctx.collect)))
            elif isinstance(target, ScalarObject):
                self.bind_scalar(ctx, target.as_string())
            else:
                self.bind_scalar(ctx, repr(target))
        elif op == "time":
            self.bind_scalar(ctx, float(_time.time_ns()))
        elif op == "lineage":
            if ctx.tracer is None:
                self.bind_scalar(ctx, "lineage tracing is disabled")
            else:
                index = self._operand("target")
                item = ctx.tracer.operand_item(self.inputs[index])
                self.bind_scalar(ctx, item.explain())
        elif op == "transformapply":
            from repro.prep.transform import transform_apply

            frame = self._frame_param("target", ctx)
            meta = self._frame_param("meta", ctx)
            spec = self._scalar_param("spec", ctx, "").as_string()
            self.bind_block(ctx, transform_apply(frame, meta, spec))
        elif op == "detectSchema":
            from repro.prep.schema import detect_schema

            frame = self._frame_param("target", ctx)
            self.bind_frame(ctx, detect_schema(frame))
        elif op == "federated":
            self._federated(ctx)
        elif op == "paramserv":
            from repro.runtime.paramserv import run_paramserv

            named = {
                name: self._resolve(operand, ctx)
                for name, operand in zip(self.params["names"], self.inputs)
            }
            result = run_paramserv(ctx, named)
            self.bind(ctx, result)
        else:
            raise RuntimeDMLError(f"unknown parameterised builtin {op!r}")

    def _federated(self, ctx) -> None:
        from repro.federated.tensor import build_federated_matrix

        addresses = self._param("addresses", ctx)
        ranges = self._param("ranges", ctx)
        federated = build_federated_matrix(ctx, addresses, ranges)
        self.bind(ctx, MatrixObject.from_federated(federated))

    def _block_param(self, name: str, ctx) -> BasicTensorBlock:
        value = self._param(name, ctx)
        if isinstance(value, MatrixObject):
            return value.acquire_local(ctx.collect)
        if isinstance(value, ScalarObject):
            return BasicTensorBlock.scalar(value.as_float())
        raise RuntimeDMLError(f"{self.opcode}: parameter {name!r} must be a matrix")

    def _scalar_param(self, name: str, ctx, default=None) -> ScalarObject:
        value = self._param(name, ctx)
        if value is None:
            if default is None:
                raise RuntimeDMLError(f"{self.opcode}: missing parameter {name!r}")
            return ScalarObject(default)
        if isinstance(value, ScalarObject):
            return value
        if isinstance(value, MatrixObject):
            return ScalarObject(value.acquire_local(ctx.collect).as_scalar())
        raise RuntimeDMLError(f"{self.opcode}: parameter {name!r} must be scalar")

    def _frame_param(self, name: str, ctx) -> Frame:
        value = self._param(name, ctx)
        if isinstance(value, FrameObject):
            return value.frame
        if isinstance(value, MatrixObject):
            return Frame.from_matrix(value.acquire_local(ctx.collect))
        raise RuntimeDMLError(f"{self.opcode}: parameter {name!r} must be a frame")
