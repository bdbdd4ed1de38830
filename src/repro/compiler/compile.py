"""The end-to-end compilation pipeline (paper Figure 3, step 2).

``compile_script`` runs: parse -> builtin-function resolution -> IPA ->
statement blocks + liveness -> per-block HOP DAGs -> static rewrites ->
inter-block size propagation with dynamic rewrites (constant-predicate
branch removal, metadata folding) -> operator selection and instruction
generation.  Blocks whose DAGs retain unknown sizes are flagged for dynamic
recompilation at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.compiler import hops as H
from repro.compiler.blocks import (
    BasicBlock,
    ForBlock,
    FunctionBlocks,
    IfBlock,
    PredicateBlock,
    StatementBlock,
    WhileBlock,
    analyze_liveness,
    build_blocks,
)
from repro.compiler.builder import DagBuilder, builtin_names
from repro.compiler.instgen import generate_instructions, generate_predicate
from repro.compiler.ipa import collect_called_functions, run_ipa
from repro.compiler.rewrites import apply_dynamic_rewrites, apply_rewrites
from repro.compiler.sizes import VarStats, dag_has_unknowns, propagate_dag, recording_mtd_reads
from repro.config import ReproConfig, default_config
from repro.errors import CompileError
from repro.lang import ast
from repro.lang.parser import parse
from repro.runtime.program import RuntimeProgram
from repro.types import DataType, ValueType


def compile_script(
    source: str,
    config: Optional[ReproConfig] = None,
    input_stats: Optional[Dict[str, VarStats]] = None,
    outputs: Optional[Sequence[str]] = None,
) -> RuntimeProgram:
    """Compile DML source into an executable runtime program."""
    program = parse(source)
    return compile_program(program, config, input_stats, outputs)


def compile_program(
    program: ast.Program,
    config: Optional[ReproConfig] = None,
    input_stats: Optional[Dict[str, VarStats]] = None,
    outputs: Optional[Sequence[str]] = None,
) -> RuntimeProgram:
    config = config or default_config()
    functions = dict(program.functions)
    _resolve_builtin_functions(program, functions)
    functions = run_ipa(program, functions, enable_inlining=config.enable_ipa)

    blocks = build_blocks(program.statements)
    output_names = list(outputs or [])
    analyze_liveness(blocks, set(output_names))

    builder = DagBuilder(functions)
    stats = dict(input_stats or {})
    with recording_mtd_reads() as mtd_reads:
        blocks = _finalize_blocks(blocks, stats, builder, config)
        compiled_functions: Dict[str, FunctionBlocks] = {}
        for name, func in functions.items():
            compiled_functions[name] = _compile_function(func, builder, config)
    return RuntimeProgram(blocks, compiled_functions, functions, config, output_names, mtd_reads)


# ---------------------------------------------------------------------------
# builtin function resolution
# ---------------------------------------------------------------------------


def _resolve_builtin_functions(program: ast.Program, functions: Dict[str, ast.FunctionDef]) -> None:
    """Pull DML-bodied builtin functions referenced by the script into scope."""
    from repro.builtins.registry import lookup_builtin_function
    from repro.compiler.ipa import collect_string_references

    known = builtin_names()
    pending = True
    while pending:
        pending = False
        called = collect_called_functions(program.statements)
        called |= collect_string_references(program.statements)
        for func in functions.values():
            called |= collect_called_functions(func.body)
            called |= collect_string_references(func.body)
        for name in sorted(called):
            if name in functions or name in known:
                continue
            resolved = lookup_builtin_function(name)
            if resolved is None:
                continue  # leave for a precise compile error at DAG build
            for fname, fdef in resolved.items():
                if fname not in functions:
                    functions[fname] = fdef
                    pending = True


# ---------------------------------------------------------------------------
# block finalisation: DAGs, rewrites, size propagation, instructions
# ---------------------------------------------------------------------------


def _finalize_blocks(
    blocks: List[StatementBlock],
    stats: Dict[str, VarStats],
    builder: DagBuilder,
    config: ReproConfig,
) -> List[StatementBlock]:
    result: List[StatementBlock] = []
    for block in blocks:
        result.extend(_finalize_block(block, stats, builder, config))
    return result


def _finalize_block(block, stats, builder, config) -> List[StatementBlock]:
    if isinstance(block, BasicBlock):
        _finalize_basic(block, stats, builder, config)
        return [block]
    if isinstance(block, IfBlock):
        return _finalize_if(block, stats, builder, config)
    if isinstance(block, WhileBlock):
        _finalize_predicate(block.predicate, stats, builder, config)
        _wipe_stats(stats, block.writes())
        body_stats = dict(stats)
        block.body = _finalize_blocks(block.body, body_stats, builder, config)
        _wipe_stats(stats, block.writes())
        return [block]
    if isinstance(block, ForBlock):
        _finalize_predicate(block.from_block, stats, builder, config)
        _finalize_predicate(block.to_block, stats, builder, config)
        if block.step_block is not None:
            _finalize_predicate(block.step_block, stats, builder, config)
        _wipe_stats(stats, block.writes())
        body_stats = dict(stats)
        body_stats[block.var] = VarStats.scalar(ValueType.INT64)
        block.body = _finalize_blocks(block.body, body_stats, builder, config)
        _wipe_stats(stats, block.writes())
        return [block]
    raise CompileError(f"unknown block type {type(block).__name__}")


def _finalize_basic(block: BasicBlock, stats, builder: DagBuilder, config) -> None:
    roots = builder.build_roots(block.statements, block.live_out)
    roots = apply_rewrites(roots, config)
    propagate_dag(roots, stats)
    roots = apply_dynamic_rewrites(roots, config)
    propagate_dag(roots, stats)
    block.hop_roots = roots
    block.requires_recompile = dag_has_unknowns(roots)
    block.instructions = generate_instructions(roots, config)
    _update_stats_from_roots(roots, stats, builder)


def _finalize_predicate(pred: PredicateBlock, stats, builder: DagBuilder, config) -> None:
    builder.build_predicate(pred)
    roots = apply_rewrites([pred.hop_root], config)
    propagate_dag(roots, stats)
    roots = apply_dynamic_rewrites(roots, config)
    propagate_dag(roots, stats)
    pred.hop_root = roots[0]
    pred.instructions, pred.result = generate_predicate(pred.hop_root, config)
    pred.requires_recompile = dag_has_unknowns(roots)


def _finalize_if(block: IfBlock, stats, builder, config) -> List[StatementBlock]:
    _finalize_predicate(block.predicate, stats, builder, config)
    root = block.predicate.hop_root
    if config.enable_rewrites and isinstance(root, H.LiteralHop):
        # constant-predicate branch removal (paper Example 1)
        chosen = block.then_blocks if bool(root.value) else block.else_blocks
        return _finalize_blocks(chosen, stats, builder, config)
    then_stats = dict(stats)
    else_stats = dict(stats)
    block.then_blocks = _finalize_blocks(block.then_blocks, then_stats, builder, config)
    block.else_blocks = _finalize_blocks(block.else_blocks, else_stats, builder, config)
    _merge_branch_stats(stats, then_stats, else_stats, block.writes())
    return [block]


def _merge_branch_stats(stats, then_stats, else_stats, written) -> None:
    for name in written:
        a = then_stats.get(name)
        b = else_stats.get(name)
        if a is not None and b is not None and a == b:
            stats[name] = a
        elif a is not None and b is not None and a.data_type == b.data_type:
            stats[name] = VarStats(a.data_type, a.value_type, -1, -1, -1)
        else:
            stats.pop(name, None)


def _wipe_stats(stats: Dict[str, VarStats], written) -> None:
    """Loop-updated variables lose their statistics (conservative)."""
    for name in written:
        entry = stats.get(name)
        if entry is not None and entry.data_type == DataType.SCALAR:
            stats[name] = VarStats.scalar(entry.value_type)
        elif entry is not None:
            stats[name] = VarStats(entry.data_type, entry.value_type, -1, -1, -1)
        else:
            stats.pop(name, None)


def _update_stats_from_roots(roots, stats: Dict[str, VarStats], builder: DagBuilder) -> None:
    for root in roots:
        if isinstance(root, H.DataHop) and root.op == "twrite":
            source = root.inputs[0]
            stats[root.name] = VarStats(
                source.data_type, source.value_type, source.rows, source.cols, source.nnz
            )
        elif isinstance(root, H.FunctionCallHop):
            func = builder.functions.get(root.func_name)
            for index, out_name in enumerate(root.output_names):
                if func is not None and index < len(func.returns):
                    spec = func.returns[index].type_spec
                    stats[out_name] = VarStats(spec.data_type, spec.value_type, -1, -1, -1)
                else:
                    stats.pop(out_name, None)
        elif isinstance(root, H.MultiReturnBuiltinHop):
            pass  # outputs land in temps only; twrites carry the var stats


# ---------------------------------------------------------------------------
# function compilation
# ---------------------------------------------------------------------------


def _compile_function(func: ast.FunctionDef, builder: DagBuilder, config) -> FunctionBlocks:
    blocks = build_blocks(func.body)
    return_names = {ret.name for ret in func.returns}
    analyze_liveness(blocks, return_names)
    stats: Dict[str, VarStats] = {}
    for param in func.params:
        spec = param.type_spec
        if spec.data_type == DataType.SCALAR:
            stats[param.name] = VarStats.scalar(spec.value_type)
        else:
            stats[param.name] = VarStats(spec.data_type, spec.value_type, -1, -1, -1)
    blocks = _finalize_blocks(blocks, stats, builder, config)
    default_blocks = {}
    for param in func.params:
        if param.default is not None:
            pred = PredicateBlock(param.default)
            _finalize_predicate(pred, {}, builder, config)
            default_blocks[param.name] = pred
    return FunctionBlocks(func.name, func.params, func.returns, blocks, default_blocks)
