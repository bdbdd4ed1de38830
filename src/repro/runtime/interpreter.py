"""The interpreter of compiled runtime programs (the control program).

Executes the statement-block hierarchy: basic blocks run their instruction
sequences (recompiling first when sizes were unknown at compile time),
control blocks evaluate their predicate DAGs and drive iteration, and
function calls push fresh symbol-table frames.  Lineage tracing and
reuse-cache probing wrap every instruction execution.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.compiler.blocks import (
    BasicBlock,
    ForBlock,
    IfBlock,
    PredicateBlock,
    WhileBlock,
)
from repro.errors import RuntimeDMLError
from repro.runtime.context import ExecutionContext
from repro.runtime.data import MatrixObject, ScalarObject
from repro.runtime.instructions.base import Instruction
from repro.tensor import BasicTensorBlock


def execute_program(program, ctx: ExecutionContext) -> None:
    """Interpret a compiled runtime program against a fresh context."""
    checkpoints = ctx.checkpoints
    if checkpoints is not None:
        checkpoints.begin(ctx)
        if checkpoints.resumed and ctx.traces is not None:
            # the restored symbol table may diverge from the shapes hot
            # traces were compiled against; re-heat from scratch
            ctx.traces.invalidate_all("resume")
    execute_blocks(program.blocks, ctx, top_level=True)
    if checkpoints is not None:
        checkpoints.finish(ctx)


def _boundary(ctx: ExecutionContext) -> None:
    """One loop-iteration/top-level boundary of the main frame.

    The injection point fires first (so ``crash=`` kills the run even in
    frames without a checkpoint manager), then the manager snapshots on
    its cadence.  Callers guard with the same ``is None`` fast-path checks
    as ``ctx.stats``, so boundary costs nothing when both are off.
    """
    if ctx.faults is not None:
        ctx.faults.fire("checkpoint.boundary")
    if ctx.checkpoints is not None:
        ctx.checkpoints.boundary(ctx)


def execute_blocks(blocks, ctx: ExecutionContext, top_level: bool = False) -> None:
    """Run a block sequence; after top-level blocks, non-live variables die."""
    checkpoints = ctx.checkpoints
    if checkpoints is None:
        for block in blocks:
            execute_block(block, ctx)
            if top_level:
                live = set(block.live_out) | set(ctx.program.outputs)
                ctx.cleanup_nonlive(live)
                if ctx.faults is not None:
                    ctx.faults.fire("checkpoint.boundary")
            else:
                ctx.cleanup_temps()
        return
    start = checkpoints.enter_seq()
    try:
        for index, block in enumerate(blocks):
            if index < start:
                continue  # fast-forward past blocks a checkpoint completed
            checkpoints.advance_seq(index)
            execute_block(block, ctx)
            if top_level:
                live = set(block.live_out) | set(ctx.program.outputs)
                ctx.cleanup_nonlive(live)
                _boundary(ctx)
            else:
                ctx.cleanup_temps()
    finally:
        checkpoints.exit_seq()


def execute_block(block, ctx: ExecutionContext) -> None:
    """Dispatch one statement block: basic, if, while, or (par)for."""
    if isinstance(block, BasicBlock):
        _execute_basic(block, ctx)
    elif isinstance(block, IfBlock):
        _execute_if(block, ctx)
    elif isinstance(block, WhileBlock):
        _execute_while(block, ctx)
    elif isinstance(block, ForBlock):
        _execute_for(block, ctx)
    else:
        raise RuntimeDMLError(f"unknown block type: {type(block).__name__}")


def _execute_if(block: IfBlock, ctx: ExecutionContext) -> None:
    checkpoints = ctx.checkpoints
    if checkpoints is None:
        condition = eval_predicate(block.predicate, ctx).as_bool()
        execute_blocks(block.then_blocks if condition else block.else_blocks, ctx)
        return
    if checkpoints.resuming:
        # replay the recorded decision: the restored state is mid-branch,
        # so the predicate may no longer evaluate the way it did then
        condition = checkpoints.resume_if()
    else:
        condition = eval_predicate(block.predicate, ctx).as_bool()
        checkpoints.enter_if(condition)
    try:
        execute_blocks(block.then_blocks if condition else block.else_blocks, ctx)
    finally:
        checkpoints.exit_if()


def _execute_while(block: WhileBlock, ctx: ExecutionContext) -> None:
    checkpoints = ctx.checkpoints
    if checkpoints is None:
        fire = ctx.faults is not None
        while eval_predicate(block.predicate, ctx).as_bool():
            execute_blocks(block.body, ctx)
            if fire:
                ctx.faults.fire("checkpoint.boundary")
        return
    iterations = checkpoints.enter_while()
    # a resume with deeper frames left was checkpointed mid-body: re-enter
    # the body directly, skipping one predicate evaluation
    skip_predicate = checkpoints.resuming
    try:
        while True:
            if skip_predicate:
                skip_predicate = False
            elif not eval_predicate(block.predicate, ctx).as_bool():
                break
            execute_blocks(block.body, ctx)
            iterations += 1
            checkpoints.while_iter(iterations)
            _boundary(ctx)
    finally:
        checkpoints.exit_loop()


def _execute_basic(block: BasicBlock, ctx: ExecutionContext) -> None:
    traces = ctx.traces
    instructions = block.instructions
    if block.requires_recompile and ctx.config.enable_recompile:
        # trace-first: a guard-matching trace proves the plan-cache lookup
        # would return the very plan it fused, so skip the lookup outright
        if traces is not None and traces.execute_block(block, ctx):
            return
        from repro.compiler.recompile import recompile_basic_block

        instructions = recompile_basic_block(block, ctx)
    if traces is not None and traces.execute(block, instructions, ctx):
        return  # traced: exports applied, hooks replayed, no temps bound
    releases = _temp_release_points(instructions)
    for index, instruction in enumerate(instructions):
        execute_instruction(instruction, ctx)
        if index in releases:
            # dead-temp release: a ``_t`` past its last static read holds
            # a payload (often a full matrix block) hostage in the buffer
            # pool until block end; dropping the binding at last use keeps
            # the pool's working set at the instruction's live set
            for name in releases[index]:
                ctx.remove(name)
    ctx.cleanup_temps()


def _temp_release_points(instructions) -> dict:
    """instruction index -> temp names whose last static read is there.

    Instruction temps (``_t...``) are block-local by construction (see
    ``cleanup_temps``), so after the last instruction that reads one, its
    binding is dead — ``assignvar`` rebinds shared payloads under the real
    variable name, so dropping the temp name never drops live data.
    """
    last_use = {}
    for index, instruction in enumerate(instructions):
        for operand in instruction.inputs:
            if (operand is not None and not operand.is_literal
                    and operand.name and operand.name.startswith("_t")):
                last_use[operand.name] = index
    releases: dict = {}
    for name, index in last_use.items():
        releases.setdefault(index, []).append(name)
    return releases


def _for_bounds(block: ForBlock, ctx: ExecutionContext):
    start = eval_predicate(block.from_block, ctx).as_int()
    stop = eval_predicate(block.to_block, ctx).as_int()
    step = 1
    if block.step_block is not None:
        step = eval_predicate(block.step_block, ctx).as_int()
        if step == 0:
            raise RuntimeDMLError("for loop step must be non-zero")
    elif stop < start:
        step = -1
    return start, stop, step


def _execute_for(block: ForBlock, ctx: ExecutionContext) -> None:
    if block.parallel:
        # parfor checkpoints at whole-loop granularity: no cursor frame is
        # pushed, so a snapshot at the completion boundary resumes *after*
        # the loop, and a crash mid-parfor re-runs it from the start
        start, stop, step = _for_bounds(block, ctx)
        from repro.runtime.parfor import execute_parfor

        execute_parfor(block, ctx, start, stop, step)
        if ctx.faults is not None or ctx.checkpoints is not None:
            _boundary(ctx)
        return
    checkpoints = ctx.checkpoints
    resume = checkpoints.enter_for() if checkpoints is not None else None
    try:
        if resume is not None:
            # resume at the saved iteration with the *originally evaluated*
            # bounds: the restored symbol state is mid-loop, so the bound
            # expressions may no longer evaluate to their entry values
            i, stop, step = resume
        else:
            i, stop, step = _for_bounds(block, ctx)
            if checkpoints is not None:
                checkpoints.set_for_bounds(i, stop, step)
        fire = ctx.faults is not None or checkpoints is not None
        while (step > 0 and i <= stop) or (step < 0 and i >= stop):
            ctx.set(block.var, ScalarObject(int(i)))
            if ctx.tracer is not None:
                ctx.tracer.items[block.var] = ctx.tracer.make("lit", (), f"int:{int(i)}")
            if checkpoints is not None:
                checkpoints.for_iter(i)
            execute_blocks(block.body, ctx)
            if fire:
                _boundary(ctx)
            i += step
        ctx.remove(block.var)
    finally:
        if checkpoints is not None:
            checkpoints.exit_loop()


def eval_predicate(block: PredicateBlock, ctx: ExecutionContext) -> ScalarObject:
    """Evaluate a predicate/bound DAG to a scalar."""
    for instruction in block.instructions:
        execute_instruction(instruction, ctx)
    operand = block.result
    if operand.is_literal:
        result = operand.literal
    else:
        value = ctx.get(operand.name)
        if isinstance(value, ScalarObject):
            result = value
        elif isinstance(value, MatrixObject):
            result = ScalarObject(value.acquire_local(ctx.collect).as_scalar())
        else:
            raise RuntimeDMLError("predicate did not evaluate to a scalar")
    ctx.cleanup_temps()
    return result


# ---------------------------------------------------------------------------
# instruction execution with lineage + reuse
# ---------------------------------------------------------------------------


def execute_instruction(instruction: Instruction, ctx: ExecutionContext) -> None:
    """Run one instruction with lineage tracing and reuse-cache probing.

    With a stats registry attached the execution is wall-timed and folded
    into the per-opcode heavy-hitter profile; without one, the unprofiled
    fast path below runs with a single extra attribute check.

    ``ctx.fast_hooks`` pre-folds the stats/tracer/reuse is-None probes
    into one flag (refreshed on attach/detach), so the fully unhooked hot
    path skips straight to ``instruction.execute``.
    """
    if ctx.fast_hooks:
        metrics = ctx.metrics
        metrics["instructions"] += 1
        limit = ctx.config.max_instructions
        if limit is not None and metrics["instructions"] > limit:
            raise RuntimeDMLError(
                f"instruction budget exceeded (max_instructions={limit}); "
                f"likely a non-terminating loop"
            )
        instruction.execute(ctx)
        return
    stats = ctx.stats
    if stats is None:
        _execute_instruction_inner(instruction, ctx)
        return
    start = time.perf_counter()
    reused = _execute_instruction_inner(instruction, ctx)
    elapsed = time.perf_counter() - start
    bytes_out = 0
    if instruction.output is not None:
        value = ctx.get_or_none(instruction.output)
        size_of = getattr(value, "memory_size", None)
        if size_of is not None:
            bytes_out = int(size_of())
    stats.record_instruction(instruction.stat_key, elapsed, bytes_out)
    if reused:
        stats.count("lineage_reuse_hits")


def _execute_instruction_inner(instruction: Instruction, ctx: ExecutionContext) -> bool:
    """Core execute; True when the result came from the reuse cache."""
    ctx.metrics["instructions"] += 1
    limit = ctx.config.max_instructions
    if limit is not None and ctx.metrics["instructions"] > limit:
        raise RuntimeDMLError(
            f"instruction budget exceeded (max_instructions={limit}); "
            f"likely a non-terminating loop"
        )
    tracer = ctx.tracer
    if tracer is not None and ctx.reuse is not None and instruction.reusable:
        if _try_reuse(instruction, ctx):
            return True
    instruction.execute(ctx)
    if tracer is not None and not _self_traced(instruction):
        tracer.trace(instruction)
    if tracer is not None and ctx.reuse is not None and instruction.reusable:
        _cache_result(instruction, ctx)
    return False


def _self_traced(instruction: Instruction) -> bool:
    return instruction.opcode in ("datagen_rand", "datagen_sample", "pread", "fcall", "eval")


def _output_item(instruction: Instruction, ctx: ExecutionContext):
    tracer = ctx.tracer
    inputs = [tracer.operand_item(operand) for operand in instruction.inputs]
    data = tracer._instruction_data(instruction)
    return tracer.make(instruction.opcode, inputs, data)


def _try_reuse(instruction: Instruction, ctx: ExecutionContext) -> bool:
    item = _output_item(instruction, ctx)
    cached = ctx.reuse.probe(item)
    if cached is not None:
        _bind_cached(instruction, ctx, cached, item)
        return True
    if not ctx.config.partial_reuse_enabled:
        return False
    if instruction.opcode == "tsmm":
        block = instruction.block_in(0, ctx)
        result = ctx.reuse.probe_partial_tsmm(item, block)
        if result is not None:
            _bind_cached(instruction, ctx, result, item, also_cache=True)
            return True
    elif instruction.opcode == "tmm":
        left = instruction.block_in(0, ctx)
        right = instruction.block_in(1, ctx)
        result = ctx.reuse.probe_partial_tmm(item, left, right)
        if result is not None:
            _bind_cached(instruction, ctx, result, item, also_cache=True)
            return True
    return False


def _bind_cached(instruction, ctx, cached, item, also_cache: bool = False) -> None:
    if isinstance(cached, BasicTensorBlock):
        instruction.bind_block(ctx, cached)
    else:
        instruction.bind(ctx, cached)
    ctx.tracer.items[instruction.output] = item
    if also_cache and isinstance(cached, BasicTensorBlock):
        ctx.reuse.put(item, cached, cached.memory_size())


def _cache_result(instruction: Instruction, ctx: ExecutionContext) -> None:
    output = instruction.output
    if output is None:
        return
    item = ctx.tracer.get(output)
    if item is None:
        return
    value = ctx.get_or_none(output)
    if isinstance(value, MatrixObject) and value.is_local:
        block = value.acquire_local()
        ctx.reuse.put(item, block, block.memory_size())
    elif isinstance(value, ScalarObject):
        ctx.reuse.put(item, value, 64)


# ---------------------------------------------------------------------------
# function calls
# ---------------------------------------------------------------------------


def call_function(
    ctx: ExecutionContext,
    func_name: str,
    args: Sequence,
    arg_names: Sequence[Optional[str]],
    arg_items: Optional[Sequence] = None,
) -> List:
    """Execute a compiled DML function and return its outputs in order."""
    func = ctx.program.functions.get(func_name)
    if func is None:
        raise RuntimeDMLError(f"undefined function: {func_name}")
    ctx.metrics["fcalls"] += 1
    frame = ctx.child()
    bound = set()
    positional = [a for a, n in zip(args, arg_names) if n is None]
    named = {n: a for a, n in zip(args, arg_names) if n is not None}
    if len(positional) > len(func.params):
        raise RuntimeDMLError(
            f"{func_name} takes {len(func.params)} arguments, got {len(positional)}"
        )
    item_by_arg = {}
    if arg_items is not None:
        for (arg, name), item in zip(zip(args, arg_names), arg_items):
            item_by_arg[id(arg)] = item
    for param, value in zip(func.params, positional):
        frame.set(param.name, value)
        bound.add(param.name)
        _bind_arg_lineage(frame, param.name, value, item_by_arg)
    param_names = {p.name for p in func.params}
    for name, value in named.items():
        if name not in param_names:
            raise RuntimeDMLError(f"{func_name} has no parameter {name!r}")
        if name in bound:
            raise RuntimeDMLError(f"{func_name}: parameter {name!r} bound twice")
        frame.set(name, value)
        bound.add(name)
        _bind_arg_lineage(frame, name, value, item_by_arg)
    for param in func.params:
        if param.name in bound:
            continue
        default_block = func.default_blocks.get(param.name)
        if default_block is None:
            raise RuntimeDMLError(f"{func_name}: missing argument {param.name!r}")
        value = eval_predicate(default_block, frame)
        frame.set(param.name, value)
        if frame.tracer is not None:
            # a default evaluates to a scalar: its lineage is its value, so
            # every call that takes the default traces the same leaf
            frame.tracer.bind_literal(param.name, value.value)
    execute_blocks(func.blocks, frame)
    results = []
    items = []
    for ret in func.returns:
        value = frame.get_or_none(ret.name)
        if value is None:
            raise RuntimeDMLError(
                f"{func_name} did not assign return variable {ret.name!r}"
            )
        results.append(value)
        items.append(frame.tracer.get(ret.name) if frame.tracer is not None else None)
    return results, items


def _bind_arg_lineage(frame: ExecutionContext, name: str, value, item_by_arg) -> None:
    if frame.tracer is None:
        return
    item = item_by_arg.get(id(value))
    if item is not None:
        frame.tracer.items[name] = item
