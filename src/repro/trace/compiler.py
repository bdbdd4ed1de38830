"""Compilation of one hot basic block into a fused trace callable.

A compiled trace replaces the per-instruction interpreter loop with a flat
sequence of pre-bound step closures operating on a positional *slot* array:

* operand resolution (symbol-table dict lookups, literal unwrapping, the
  ``isinstance`` dispatch ladders of :mod:`repro.runtime.instructions.cp`)
  happens once, at compile time, against the kinds observed in the live
  symbol table;
* intermediate results stay raw :class:`BasicTensorBlock`/`ScalarObject`
  values in slots — block-local temporaries never touch the buffer pool or
  the symbol table;
* the stats/lineage/reuse hooks of ``execute_instruction`` are hoisted to
  trace entry/exit by the cache (lineage is replayed exactly, in
  instruction order, after the steps run — see
  :meth:`CompiledTrace.replay_lineage`).

Every step calls the *same* kernel functions the interpreter calls
(:mod:`repro.tensor.ops`, ``_scalar_binary``, the codegen region
functions), so a traced run is bit-identical to the interpreted run — the
guarantee the ``traced`` qa lattice config checks differentially.

Compilation is conservative: any instruction whose semantics cannot be
frozen against the observed operand kinds (side effects, seed-stream
consumers, nested interpretation, frames/lists, non-CP backends) raises
:class:`TraceVeto` and the block stays interpreted forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.recompile import nnz_class
from repro.runtime.data import MatrixObject, ScalarObject
from repro.runtime.instructions import cp
from repro.runtime.instructions.base import Operand
from repro.tensor import BasicTensorBlock
from repro.tensor import ops
from repro.types import Direction, ExecType

#: Compile-time operand kinds.  Only scalars and local matrices trace;
#: frames, lists, tensors, and non-local representations veto.
KIND_SCALAR = "scalar"
KIND_MATRIX = "matrix"


class TraceVeto(Exception):
    """Raised during compilation when a block cannot be traced."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CompiledTrace:
    """One basic block fused into guards + steps + exports."""

    __slots__ = (
        "config", "instructions", "n_slots", "template", "loads", "steps",
        "exports", "removes", "stat_slots", "temp_names", "n_instructions",
    )

    def __init__(self, config, instructions, n_slots, template, loads, steps,
                 exports, removes, stat_slots, temp_names):
        #: The config the trace was compiled against (identity guard).
        self.config = config
        #: Strong reference anchoring the instruction-list identity the
        #: cache keys on (and the source of the lineage replay).
        self.instructions = instructions
        self.n_slots = n_slots
        #: Slot array template with literal constants pre-placed.
        self.template = template
        #: Entry guards + loads: (name, slot, kind, shape, vtype, nnz class).
        self.loads = loads
        self.steps = steps
        #: Net symbol-table effects: (name, slot, kind) to bind at exit.
        self.exports = exports
        #: Names the block net-removed (``rmvar`` without a rebind).
        self.removes = removes
        #: Per-instruction (stat_key, output_slot-or-None) for profiling.
        self.stat_slots = stat_slots
        #: Temps that would carry lineage items (cleaned after replay).
        self.temp_names = temp_names
        self.n_instructions = len(instructions)

    def execute(self, ctx) -> Optional[list]:
        """Guard, run the steps, and apply exports.

        Returns the final slot array on success (the cache reads output
        sizes from it for stats apportioning) or ``None`` on a guard
        failure — in which case the symbol table is untouched and the
        interpreter must run the block instead.

        The guards deliberately subsume the recompiler's plan-cache
        signature (config identity; per-load data type, value type, dims,
        :func:`~repro.compiler.recompile.nnz_class`): a passing guard set
        proves ``recompile_basic_block`` would hand back the very plan
        this trace was compiled from, which is what lets the interpreter
        dispatch trace-first and skip the per-iteration plan-cache lookup
        entirely.  nnz is guarded by class, not exactly: the steps call
        kernels that dispatch on the live block's layout, so a drifting
        active set within one class reuses the trace with identical
        results.
        """
        if ctx.config is not self.config:
            return None
        variables = ctx.variables
        slots = self.template[:]
        for name, slot, kind, shape, vtype, nnz in self.loads:
            value = variables.get(name)
            if kind is KIND_MATRIX:
                if (
                    type(value) is not MatrixObject
                    or not value.is_local
                    or value.shape != shape
                    or nnz_class(shape[0], shape[1], value.nnz) != nnz
                    or value.value_type is not vtype
                ):
                    return None
                # pool restore on the single entry acquire: spill.read
                # faults still fire inside traced regions
                slots[slot] = value.acquire_local()
            else:
                if not isinstance(value, ScalarObject) or value.value_type is not vtype:
                    return None
                slots[slot] = value
        for step in self.steps:
            step(slots)
        pool = ctx.pool
        for name, slot, kind in self.exports:
            if kind is KIND_MATRIX:
                variables[name] = MatrixObject.from_block(slots[slot], pool)
            else:
                variables[name] = slots[slot]
        for name in self.removes:
            variables.pop(name, None)
        tracer = ctx.tracer
        if tracer is not None:
            self.replay_lineage(tracer)
        return slots

    def replay_lineage(self, tracer) -> None:
        """Re-derive lineage exactly as the interpreter would have.

        ``LineageTracer.trace`` is pure over (opcode, operands, params) and
        the tracer's name→item map, so replaying the instruction sequence
        in order after the fact produces the identical DAG.  ``rmvar``
        unbinds items inline (mirroring ``ctx.remove``), and temp items are
        dropped at the end (mirroring ``cleanup_temps``).
        """
        for instruction in self.instructions:
            if instruction.opcode == "rmvar":
                for name in instruction.params["names"]:
                    tracer.remove(name)
            else:
                tracer.trace(instruction)
        for name in self.temp_names:
            tracer.remove(name)


# ---------------------------------------------------------------------------
# step factories (module-level so closures bind per-instruction state once)
# ---------------------------------------------------------------------------


def _block_fetch(slot: int, kind: str):
    """A slots->block getter replicating ``Instruction.block_in`` dispatch."""
    if kind is KIND_SCALAR:
        return lambda slots: BasicTensorBlock.scalar(slots[slot].as_float())
    return lambda slots: slots[slot]


def _scalar_fetch(slot: int, kind: str):
    """A slots->ScalarObject getter replicating ``Instruction.scalar_in``."""
    if kind is KIND_MATRIX:
        return lambda slots: ScalarObject(slots[slot].as_scalar())
    return lambda slots: slots[slot]


class _TraceCompiler:
    """Symbolic single pass over the instruction sequence."""

    def __init__(self, instructions, ctx):
        self.instructions = instructions
        self.ctx = ctx
        self.n_slots = 0
        self.consts: List[Tuple[int, ScalarObject]] = []
        #: (name, slot, kind, shape, value_type, nnz class) guard+load records
        self.loads: List[Tuple] = []
        self.steps: List = []
        #: name -> (slot, kind) of the currently bound value
        self.env: Dict[str, Tuple[int, str]] = {}
        self.removed: set = set()
        self.written: set = set()
        self.stat_slots: List[Tuple[str, Optional[int]]] = []

    # --- slot/operand management -------------------------------------------

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def _veto(self, reason: str):
        raise TraceVeto(reason)

    def _operand(self, operand: Operand) -> Tuple[int, str]:
        if operand.is_literal:
            slot = self._new_slot()
            self.consts.append((slot, operand.literal))
            return slot, KIND_SCALAR
        name = operand.name
        bound = self.env.get(name)
        if bound is not None:
            return bound
        value = self.ctx.variables.get(name)
        if isinstance(value, ScalarObject):
            kind = KIND_SCALAR
            shape = None
            nnz = -1
        elif type(value) is MatrixObject and value.is_local:
            kind = KIND_MATRIX
            shape = tuple(value.shape)
            nnz = nnz_class(shape[0], shape[1], value.nnz)
        else:
            self._veto(f"input {name!r} is {type(value).__name__}")
        slot = self._new_slot()
        self.loads.append((name, slot, kind, shape, value.value_type, nnz))
        self.env[name] = (slot, kind)
        return slot, kind

    def _bind(self, name: str, kind: str) -> int:
        slot = self._new_slot()
        self.env[name] = (slot, kind)
        self.written.add(name)
        self.removed.discard(name)
        return slot

    def _alias(self, name: str, slot: int, kind: str) -> None:
        self.env[name] = (slot, kind)
        self.written.add(name)
        self.removed.discard(name)

    def _bfetch(self, operand: Operand):
        slot, kind = self._operand(operand)
        return _block_fetch(slot, kind)

    def _sfetch(self, operand: Operand):
        slot, kind = self._operand(operand)
        return _scalar_fetch(slot, kind)

    # --- top level ----------------------------------------------------------

    def compile(self) -> CompiledTrace:
        for instruction in self.instructions:
            if instruction.exec_type is not ExecType.CP:
                self._veto(f"non-CP instruction {instruction.stat_key}")
            out_slot = self._compile_instruction(instruction)
            self.stat_slots.append((instruction.stat_key, out_slot))
        template = [None] * self.n_slots
        for slot, value in self.consts:
            template[slot] = value
        exports = [
            (name, slot, kind)
            for name, (slot, kind) in self.env.items()
            if name in self.written and not name.startswith("_t")
        ]
        removes = sorted(
            name for name in self.removed if not name.startswith("_t")
        )
        temp_names = sorted(
            name for name in self.written if name.startswith("_t")
        )
        return CompiledTrace(
            self.ctx.config, self.instructions, self.n_slots, template,
            self.loads, self.steps, exports, removes, self.stat_slots,
            temp_names,
        )

    # --- per-instruction compilation ---------------------------------------

    def _compile_instruction(self, instr) -> Optional[int]:
        if isinstance(instr, cp.AssignVarInstruction):
            slot, kind = self._operand(instr.inputs[0])
            self._alias(instr.output, slot, kind)
            return slot
        if isinstance(instr, cp.RmVarInstruction):
            for name in instr.params["names"]:
                self.env.pop(name, None)
                self.written.discard(name)
                self.removed.add(name)
            return None
        if isinstance(instr, cp.BinaryInstruction):
            return self._compile_binary(instr)
        if isinstance(instr, cp.UnaryInstruction):
            return self._compile_unary(instr)
        if isinstance(instr, cp.FusedCellInstruction):
            return self._compile_fused(instr)
        if isinstance(instr, cp.AggregateUnaryInstruction):
            return self._compile_aggregate(instr)
        if isinstance(instr, cp.MatMultInstruction):
            return self._compile_matmult(instr)
        if isinstance(instr, cp.ReorgInstruction):
            return self._compile_reorg(instr)
        if isinstance(instr, cp.IndexingInstruction):
            return self._compile_rix(instr)
        if isinstance(instr, cp.LeftIndexingInstruction):
            return self._compile_lix(instr)
        if isinstance(instr, cp.TernaryInstruction):
            return self._compile_ternary(instr)
        if isinstance(instr, cp.NaryInstruction):
            return self._compile_nary(instr)
        if isinstance(instr, cp.DataGenInstruction):
            return self._compile_datagen(instr)
        # prints, persistent reads/writes, stop/assert, function calls,
        # eval, multi-return builtins, parameterised builtins, paramserv:
        # all have effects that cannot be hoisted past the block
        self._veto(f"untraceable opcode {instr.opcode!r}")

    def _compile_binary(self, instr) -> int:
        op = instr.opcode
        a, a_kind = self._operand(instr.inputs[0])
        b, b_kind = self._operand(instr.inputs[1])
        steps = self.steps
        if a_kind is KIND_SCALAR and b_kind is KIND_SCALAR:
            out = self._bind(instr.output, KIND_SCALAR)
            scalar_binary = cp._scalar_binary

            def step(slots):
                slots[out] = scalar_binary(op, slots[a], slots[b])

            steps.append(step)
            return out
        out = self._bind(instr.output, KIND_MATRIX)
        if op == "solve":
            fa = _block_fetch(a, a_kind)
            fb = _block_fetch(b, b_kind)

            def step(slots):
                slots[out] = ops.solve(fa(slots), fb(slots))

        elif b_kind is KIND_SCALAR:

            def step(slots):
                slots[out] = ops.binary_scalar(op, slots[a], slots[b].as_float())

        elif a_kind is KIND_SCALAR:

            def step(slots):
                slots[out] = ops.binary_scalar(
                    op, slots[b], slots[a].as_float(), scalar_left=True
                )

        else:

            def step(slots):
                slots[out] = ops.binary_op(op, slots[a], slots[b])

        steps.append(step)
        return out

    def _compile_unary(self, instr) -> int:
        op = instr.opcode
        a, kind = self._operand(instr.inputs[0])
        if op in ("nrow", "ncol", "length", "nnz"):
            out = self._bind(instr.output, KIND_SCALAR)
            if kind is KIND_SCALAR:
                self.steps.append(lambda slots: slots.__setitem__(out, ScalarObject(1)))
            elif op == "nrow":
                self.steps.append(
                    lambda slots: slots.__setitem__(out, ScalarObject(int(slots[a].num_rows)))
                )
            elif op == "ncol":
                self.steps.append(
                    lambda slots: slots.__setitem__(out, ScalarObject(int(slots[a].num_cols)))
                )
            elif op == "length":
                self.steps.append(
                    lambda slots: slots.__setitem__(
                        out, ScalarObject(int(slots[a].num_rows * slots[a].num_cols))
                    )
                )
            else:  # nnz
                self.steps.append(
                    lambda slots: slots.__setitem__(out, ScalarObject(int(slots[a].nnz)))
                )
            return out
        if op.startswith("cast_as_"):
            return self._compile_cast(instr, a, kind)
        if kind is KIND_SCALAR:
            func = cp._SCALAR_UNARY.get(op)
            if func is None:
                self._veto(f"scalar unary {op!r}")
            out = self._bind(instr.output, KIND_SCALAR)
            negate = op == "!"

            def step(slots):
                result = func(slots[a].as_float())
                slots[out] = ScalarObject(bool(result) if negate else float(result))

            self.steps.append(step)
            return out
        out = self._bind(instr.output, KIND_MATRIX)
        if op == "inv":
            self.steps.append(lambda slots: slots.__setitem__(out, ops.inverse(slots[a])))
        elif op == "cholesky":
            self.steps.append(lambda slots: slots.__setitem__(out, ops.cholesky(slots[a])))
        else:
            self.steps.append(lambda slots: slots.__setitem__(out, ops.unary_op(op, slots[a])))
        return out

    def _compile_cast(self, instr, a: int, kind: str) -> int:
        op = instr.opcode
        if op == "cast_as_scalar":
            if kind is KIND_SCALAR:
                self._alias(instr.output, a, KIND_SCALAR)
                return a
            out = self._bind(instr.output, KIND_SCALAR)
            self.steps.append(
                lambda slots: slots.__setitem__(out, ScalarObject(slots[a].as_scalar()))
            )
            return out
        if op == "cast_as_matrix":
            if kind is KIND_MATRIX:
                self._alias(instr.output, a, KIND_MATRIX)
                return a
            out = self._bind(instr.output, KIND_MATRIX)
            self.steps.append(
                lambda slots: slots.__setitem__(
                    out, BasicTensorBlock.scalar(slots[a].as_float())
                )
            )
            return out
        if op in ("cast_as_double", "cast_as_integer", "cast_as_boolean"):
            fetch = _scalar_fetch(a, kind)
            out = self._bind(instr.output, KIND_SCALAR)
            if op == "cast_as_double":
                convert = lambda s: ScalarObject(s.as_float())  # noqa: E731
            elif op == "cast_as_integer":
                convert = lambda s: ScalarObject(s.as_int())  # noqa: E731
            else:
                convert = lambda s: ScalarObject(s.as_bool())  # noqa: E731
            self.steps.append(lambda slots: slots.__setitem__(out, convert(fetch(slots))))
            return out
        self._veto(f"cast {op!r}")

    def _compile_fused(self, instr) -> int:
        func = instr._func
        getters = []
        for operand in instr.inputs:
            slot, kind = self._operand(operand)
            if kind is KIND_SCALAR:
                getters.append(lambda slots, i=slot: slots[i].as_float())
            else:
                getters.append(lambda slots, i=slot: slots[i].to_numpy())
        out = self._bind(instr.output, KIND_MATRIX)

        def step(slots):
            result = func(*[get(slots) for get in getters])
            slots[out] = BasicTensorBlock.from_numpy(np.atleast_2d(result))

        self.steps.append(step)
        return out

    def _compile_aggregate(self, instr) -> int:
        op = instr.opcode
        direction: Direction = instr.params["direction"]
        a, kind = self._operand(instr.inputs[0])
        if kind is KIND_SCALAR:
            if direction == Direction.FULL and op in ("sum", "mean", "min", "max", "prod"):
                out = self._bind(instr.output, KIND_SCALAR)
                self.steps.append(
                    lambda slots: slots.__setitem__(out, ScalarObject(slots[a].as_float()))
                )
                return out
            self._veto(f"aggregate {op!r} of a scalar")
        if op == "trace":
            out = self._bind(instr.output, KIND_SCALAR)
            self.steps.append(
                lambda slots: slots.__setitem__(out, ScalarObject(ops.trace(slots[a])))
            )
            return out
        if op.startswith("cum"):
            out = self._bind(instr.output, KIND_MATRIX)
            self.steps.append(
                lambda slots: slots.__setitem__(out, ops.cumulative_op(op, slots[a]))
            )
            return out
        if op in ("rowIndexMax", "rowIndexMin"):
            use_max = op == "rowIndexMax"
            out = self._bind(instr.output, KIND_MATRIX)
            self.steps.append(
                lambda slots: slots.__setitem__(
                    out, ops.row_index_extreme(slots[a], use_max=use_max)
                )
            )
            return out
        if direction == Direction.FULL:
            out = self._bind(instr.output, KIND_SCALAR)
            self.steps.append(
                lambda slots: slots.__setitem__(
                    out, ScalarObject(float(ops.aggregate(op, slots[a], direction)))
                )
            )
            return out
        out = self._bind(instr.output, KIND_MATRIX)
        self.steps.append(
            lambda slots: slots.__setitem__(out, ops.aggregate(op, slots[a], direction))
        )
        return out

    def _compile_matmult(self, instr) -> int:
        config = self.ctx.config
        native_blas = config.native_blas
        tile = config.matmult_tile
        out = self._bind(instr.output, KIND_MATRIX)
        if instr.opcode == "tsmm":
            fa = self._bfetch(instr.inputs[0])
            self.steps.append(
                lambda slots: slots.__setitem__(out, ops.tsmm(fa(slots), native_blas, tile))
            )
            return out
        fa = self._bfetch(instr.inputs[0])
        fb = self._bfetch(instr.inputs[1])
        kernel = ops.mapmm_transpose_left if instr.opcode == "tmm" else ops.matmult
        self.steps.append(
            lambda slots: slots.__setitem__(
                out, kernel(fa(slots), fb(slots), native_blas, tile)
            )
        )
        return out

    def _compile_reorg(self, instr) -> int:
        op = instr.opcode
        if op in ("t", "rev", "rdiag"):
            fa = self._bfetch(instr.inputs[0])
            kernel = {"t": ops.transpose, "rev": ops.rev, "rdiag": ops.diag}[op]
            out = self._bind(instr.output, KIND_MATRIX)
            self.steps.append(lambda slots: slots.__setitem__(out, kernel(fa(slots))))
            return out
        if op != "reshape":
            self._veto(f"reorg {op!r}")
        src_slot, src_kind = self._operand(instr.inputs[0])
        frows = self._sfetch(instr.inputs[1])
        fcols = self._sfetch(instr.inputs[2])
        fbyrow = self._sfetch(instr.inputs[3]) if len(instr.inputs) > 3 else None
        out = self._bind(instr.output, KIND_MATRIX)
        if src_kind is KIND_SCALAR:
            # matrix(s, rows, cols) over a scalar: a fill, not a reshape

            def step(slots):
                slots[out] = BasicTensorBlock.full(
                    (frows(slots).as_int(), fcols(slots).as_int()),
                    slots[src_slot].as_float(),
                )

        else:

            def step(slots):
                byrow = fbyrow(slots).as_bool() if fbyrow is not None else True
                slots[out] = ops.reshape(
                    slots[src_slot], frows(slots).as_int(), fcols(slots).as_int(), byrow
                )

        self.steps.append(step)
        return out

    def _compile_rix(self, instr) -> int:
        fa = self._bfetch(instr.inputs[0])
        bounds = [self._sfetch(instr.inputs[i]) for i in range(1, 5)]
        out = self._bind(instr.output, KIND_MATRIX)

        def step(slots):
            rl, ru, cl, cu = (fetch(slots).as_int() for fetch in bounds)
            slots[out] = ops.right_index(fa(slots), [(rl - 1, ru), (cl - 1, cu)])

        self.steps.append(step)
        return out

    def _compile_lix(self, instr) -> int:
        ftarget = self._bfetch(instr.inputs[0])
        src_slot, src_kind = self._operand(instr.inputs[1])
        bounds = [self._sfetch(instr.inputs[i]) for i in range(2, 6)]
        out = self._bind(instr.output, KIND_MATRIX)
        scalar_source = src_kind is KIND_SCALAR

        def step(slots):
            rl, ru, cl, cu = (fetch(slots).as_int() for fetch in bounds)
            ranges = [(rl - 1, ru), (cl - 1, cu)]
            if scalar_source:
                slots[out] = ops.left_index_scalar(
                    ftarget(slots), slots[src_slot].as_float(), ranges
                )
            else:
                slots[out] = ops.left_index(ftarget(slots), slots[src_slot], ranges)

        self.steps.append(step)
        return out

    def _compile_ternary(self, instr) -> int:
        op = instr.opcode
        if op == "ifelse":
            return self._compile_ifelse(instr)
        if op == "table":
            frows = self._bfetch(instr.inputs[0])
            fcols = self._bfetch(instr.inputs[1])
            dim_fetches = []
            weight_fetch = None
            for index in range(2, len(instr.inputs)):
                slot, kind = self._operand(instr.inputs[index])
                if kind is KIND_SCALAR:
                    dim_fetches.append(_scalar_fetch(slot, kind))
                else:
                    weight_fetch = _block_fetch(slot, kind)
            out = self._bind(instr.output, KIND_MATRIX)

            def step(slots):
                dims = [fetch(slots).as_int() for fetch in dim_fetches]
                weights = weight_fetch(slots) if weight_fetch is not None else None
                out_rows = dims[0] if dims else None
                out_cols = dims[1] if len(dims) > 1 else None
                slots[out] = ops.table(
                    frows(slots), fcols(slots), weights, out_rows, out_cols
                )

            self.steps.append(step)
            return out
        if op == "quantile":
            fdata = self._bfetch(instr.inputs[0])
            p_slot, p_kind = self._operand(instr.inputs[1])
            if p_kind is KIND_SCALAR:
                out = self._bind(instr.output, KIND_SCALAR)

                def step(slots):
                    probs = BasicTensorBlock.scalar(slots[p_slot].as_float())
                    result = ops.quantile(fdata(slots), probs)
                    slots[out] = ScalarObject(result.to_numpy()[0, 0])

            else:
                out = self._bind(instr.output, KIND_MATRIX)

                def step(slots):
                    slots[out] = ops.quantile(fdata(slots), slots[p_slot])

            self.steps.append(step)
            return out
        self._veto(f"ternary {op!r}")

    def _compile_ifelse(self, instr) -> int:
        c, c_kind = self._operand(instr.inputs[0])
        t, t_kind = self._operand(instr.inputs[1])
        e, e_kind = self._operand(instr.inputs[2])
        if c_kind is KIND_SCALAR:
            if t_kind is not e_kind:
                # the output kind depends on the runtime condition value;
                # later steps could not be compiled against a fixed kind
                self._veto("ifelse branches of mixed kinds")
            out = self._bind(instr.output, t_kind)

            def step(slots):
                slots[out] = slots[t] if slots[c].as_bool() else slots[e]

            self.steps.append(step)
            return out
        fthen = (
            (lambda slots: slots[t].as_float()) if t_kind is KIND_SCALAR
            else (lambda slots: slots[t])
        )
        felse = (
            (lambda slots: slots[e].as_float()) if e_kind is KIND_SCALAR
            else (lambda slots: slots[e])
        )
        out = self._bind(instr.output, KIND_MATRIX)
        self.steps.append(
            lambda slots: slots.__setitem__(
                out, ops.ternary_ifelse(slots[c], fthen(slots), felse(slots))
            )
        )
        return out

    def _compile_nary(self, instr) -> int:
        op = instr.opcode
        if op not in ("cbind", "rbind"):
            self._veto(f"nary {op!r}")
        fetches = [self._bfetch(operand) for operand in instr.inputs]
        kernel = ops.cbind if op == "cbind" else ops.rbind
        out = self._bind(instr.output, KIND_MATRIX)
        self.steps.append(
            lambda slots: slots.__setitem__(
                out, kernel([fetch(slots) for fetch in fetches])
            )
        )
        return out

    def _compile_datagen(self, instr) -> int:
        method = instr.params["method"]
        named = dict(zip(instr.params["names"], instr.inputs))
        if method == "fill":
            frows = self._sfetch(named["rows"])
            fcols = self._sfetch(named["cols"])
            fvalue = self._sfetch(named["value"])
            out = self._bind(instr.output, KIND_MATRIX)

            def step(slots):
                slots[out] = BasicTensorBlock.full(
                    (frows(slots).as_int(), fcols(slots).as_int()),
                    fvalue(slots).as_float(),
                )

            self.steps.append(step)
            return out
        if method == "seq":
            ffrom = self._sfetch(named["from"])
            fto = self._sfetch(named["to"])
            fincr = self._sfetch(named["incr"]) if "incr" in named else None
            out = self._bind(instr.output, KIND_MATRIX)

            def step(slots):
                start = ffrom(slots).as_float()
                stop = fto(slots).as_float()
                if fincr is not None:
                    increment = fincr(slots).as_float()
                else:
                    increment = 1.0 if stop >= start else -1.0
                slots[out] = ops.seq(start, stop, increment)

            self.steps.append(step)
            return out
        # rand/sample consume the deterministic per-context seed stream:
        # fusing them would reorder seed draws relative to interpretation
        self._veto(f"datagen {method!r}")


def compile_trace(instructions, ctx) -> CompiledTrace:
    """Compile one basic block's instruction sequence into a trace.

    Raises :class:`TraceVeto` when the block cannot be traced.  Must be
    called at block entry (before the block executes), so the symbol table
    reflects exactly the state the compiled loads will guard against.
    """
    if not instructions:
        raise TraceVeto("empty block")
    return _TraceCompiler(instructions, ctx).compile()
