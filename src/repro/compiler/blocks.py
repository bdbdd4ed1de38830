"""Statement blocks: the control-flow skeleton of a compiled program.

A DML script is partitioned into a hierarchy of statement blocks where
control-flow statements (if/while/for/parfor) delineate the blocks; all
statements of a basic (last-level) block compile into one HOP DAG (paper
section 2.3(2)).  This module defines the block classes and the backward
live-variable analysis that determines which DAG results must be exposed
as transient writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.lang import ast
from repro.lang.ast import read_variables, written_variables


class StatementBlock:
    """Base class: liveness sets shared by all block kinds."""

    def __init__(self):
        self.live_in: Set[str] = set()
        self.live_out: Set[str] = set()

    def reads(self) -> Set[str]:
        raise NotImplementedError

    def writes(self) -> Set[str]:
        raise NotImplementedError


class BasicBlock(StatementBlock):
    """A maximal run of straight-line statements compiled into one HOP DAG."""

    def __init__(self, statements: List[ast.Statement]):
        super().__init__()
        self.statements = statements
        self.hop_roots = []  # filled by the DAG builder
        self.instructions = []  # filled by instruction generation
        self.requires_recompile = False
        #: live-statistics signature -> dynamically recompiled instructions
        self.plans: Dict[tuple, list] = {}
        self._reads: Optional[frozenset] = None

    def reads(self) -> Set[str]:
        # memoized: statements are fixed at construction, but the dynamic
        # recompiler consults the read-set on every plan-cache lookup
        cached = self._reads
        if cached is None:
            names: Set[str] = set()
            defined: Set[str] = set()
            for statement in self.statements:
                names |= read_variables(statement) - defined
                defined |= written_variables(statement)
            cached = self._reads = frozenset(names)
        return cached

    def writes(self) -> Set[str]:
        names: Set[str] = set()
        for statement in self.statements:
            names |= written_variables(statement)
        return names

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BasicBlock({len(self.statements)} stmts)"


class PredicateBlock(StatementBlock):
    """A condition/bound expression compiled into a tiny DAG of its own."""

    def __init__(self, expr: ast.Expr):
        super().__init__()
        self.expr = expr
        self.hop_root = None
        self.instructions = []
        self.requires_recompile = False

    def reads(self) -> Set[str]:
        statement = ast.ExprStatement(value=self.expr)
        return read_variables(statement)

    def writes(self) -> Set[str]:
        return set()


class IfBlock(StatementBlock):
    def __init__(self, predicate: PredicateBlock, then_blocks: List[StatementBlock],
                 else_blocks: List[StatementBlock]):
        super().__init__()
        self.predicate = predicate
        self.then_blocks = then_blocks
        self.else_blocks = else_blocks

    def reads(self) -> Set[str]:
        names = set(self.predicate.reads())
        for blocks in (self.then_blocks, self.else_blocks):
            defined: Set[str] = set()
            for block in blocks:
                names |= block.reads() - defined
                defined |= block.writes()
        return names

    def writes(self) -> Set[str]:
        names: Set[str] = set()
        for block in self.then_blocks + self.else_blocks:
            names |= block.writes()
        return names


class LoopBlock(StatementBlock):
    """Shared structure of while/for/parfor blocks."""

    def __init__(self, body: List[StatementBlock]):
        super().__init__()
        self.body = body

    def body_reads(self) -> Set[str]:
        names: Set[str] = set()
        defined: Set[str] = set()
        for block in self.body:
            names |= block.reads() - defined
            defined |= block.writes()
        # variables read on iteration 2+ after being written on iteration 1
        # are still live into the loop; be conservative and include all reads
        for block in self.body:
            names |= block.reads()
        return names

    def writes(self) -> Set[str]:
        names: Set[str] = set()
        for block in self.body:
            names |= block.writes()
        return names


class WhileBlock(LoopBlock):
    def __init__(self, predicate: PredicateBlock, body: List[StatementBlock]):
        super().__init__(body)
        self.predicate = predicate

    def reads(self) -> Set[str]:
        return self.predicate.reads() | self.body_reads()


class ForBlock(LoopBlock):
    def __init__(
        self,
        var: str,
        from_block: PredicateBlock,
        to_block: PredicateBlock,
        step_block: Optional[PredicateBlock],
        body: List[StatementBlock],
        parallel: bool = False,
        opts: Optional[Dict[str, ast.Expr]] = None,
    ):
        super().__init__(body)
        self.var = var
        self.from_block = from_block
        self.to_block = to_block
        self.step_block = step_block
        self.parallel = parallel
        self.opts = dict(opts or {})

    def reads(self) -> Set[str]:
        names = self.from_block.reads() | self.to_block.reads()
        if self.step_block is not None:
            names |= self.step_block.reads()
        for expr in self.opts.values():
            names |= read_variables(ast.ExprStatement(value=expr))
        names |= self.body_reads() - {self.var}
        return names

    def writes(self) -> Set[str]:
        return super().writes() | {self.var}


class FunctionBlocks:
    """The compiled body of one DML function.

    ``default_blocks`` maps parameter names to compiled predicate blocks for
    their default expressions, evaluated at call time for unbound params.
    """

    def __init__(self, name: str, params: List[ast.Param], returns: List[ast.Param],
                 blocks: List[StatementBlock],
                 default_blocks: Optional[Dict[str, "PredicateBlock"]] = None):
        self.name = name
        self.params = params
        self.returns = returns
        self.blocks = blocks
        self.default_blocks: Dict[str, PredicateBlock] = dict(default_blocks or {})


def build_blocks(statements: List[ast.Statement]) -> List[StatementBlock]:
    """Partition statements into the statement-block hierarchy."""
    blocks: List[StatementBlock] = []
    run: List[ast.Statement] = []

    def flush() -> None:
        if run:
            blocks.append(BasicBlock(list(run)))
            run.clear()

    for statement in statements:
        if isinstance(statement, ast.If):
            flush()
            blocks.append(
                IfBlock(
                    PredicateBlock(statement.condition),
                    build_blocks(statement.then_body),
                    build_blocks(statement.else_body),
                )
            )
        elif isinstance(statement, ast.While):
            flush()
            blocks.append(
                WhileBlock(PredicateBlock(statement.condition), build_blocks(statement.body))
            )
        elif isinstance(statement, (ast.For, ast.ParFor)):
            flush()
            step = PredicateBlock(statement.step_expr) if statement.step_expr is not None else None
            blocks.append(
                ForBlock(
                    statement.var,
                    PredicateBlock(statement.from_expr),
                    PredicateBlock(statement.to_expr),
                    step,
                    build_blocks(statement.body),
                    parallel=isinstance(statement, ast.ParFor),
                    opts=statement.opts if isinstance(statement, ast.ParFor) else None,
                )
            )
        else:
            run.append(statement)
    flush()
    return blocks


def _predicate_reads(block: StatementBlock) -> Set[str]:
    """Variables read by a loop's predicate/bound/option expressions."""
    if isinstance(block, WhileBlock):
        return block.predicate.reads()
    if isinstance(block, ForBlock):
        names = block.from_block.reads() | block.to_block.reads()
        if block.step_block is not None:
            names |= block.step_block.reads()
        for expr in block.opts.values():
            names |= read_variables(ast.ExprStatement(value=expr))
        return names
    return set()


def analyze_liveness(blocks: List[StatementBlock], live_at_end: Set[str]) -> Set[str]:
    """Backward liveness over a block sequence; returns live-in of the sequence.

    Within loops, everything written by the body is kept live across the
    body (a value produced in iteration i may be read in iteration i+1).
    """
    live = set(live_at_end)
    for block in reversed(blocks):
        block.live_out = set(live)
        if isinstance(block, IfBlock):
            then_in = analyze_liveness(block.then_blocks, live)
            else_in = analyze_liveness(block.else_blocks, live)
            live = then_in | else_in | block.predicate.reads()
        elif isinstance(block, (WhileBlock, ForBlock)):
            # fixpoint: values read by the next iteration are live across the
            # body, but body-local temps (defined before use each iteration)
            # are not — this keeps parfor result-variable detection precise
            # while predicates are re-evaluated after every iteration, so
            # their reads are live at the end of the body
            repeat_reads = _predicate_reads(block) if isinstance(block, WhileBlock) else set()
            body_live_out = set(live) | repeat_reads
            while True:
                body_live_in = analyze_liveness(block.body, body_live_out)
                if isinstance(block, ForBlock):
                    body_live_in = body_live_in - {block.var}
                new_out = set(live) | repeat_reads | body_live_in
                if new_out == body_live_out:
                    break
                body_live_out = new_out
            live = set(live) | body_live_in | _predicate_reads(block)
        else:
            live = (live - block.writes()) | block.reads()
        block.live_in = set(live)
    return live
