"""The compiled runtime program handed from the compiler to the interpreter."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compiler.blocks import FunctionBlocks, StatementBlock
from repro.config import ReproConfig
from repro.lang import ast


class RuntimeProgram:
    """A compiled DML script: block hierarchy plus compiled functions.

    ``ast_functions`` retains the function ASTs so dynamic recompilation can
    rebuild basic-block DAGs against live statistics, under ``config``.
    ``mtd_reads`` maps each file whose ``.mtd`` the compile folded to it.
    """

    def __init__(
        self,
        blocks: List[StatementBlock],
        functions: Dict[str, FunctionBlocks],
        ast_functions: Dict[str, ast.FunctionDef],
        config: ReproConfig,
        outputs: Optional[List[str]] = None,
        mtd_reads: Optional[Dict[str, Optional[dict]]] = None,
    ):
        self.blocks = blocks
        self.functions = functions
        self.ast_functions = ast_functions
        self.config = config
        self.outputs = list(outputs or [])
        self.mtd_reads = dict(mtd_reads or {})

    def explain(self) -> str:
        """A readable rendering of the compiled program (for debugging)."""
        lines: List[str] = []
        self._explain_blocks(self.blocks, lines, 0)
        for name, func in self.functions.items():
            lines.append(f"FUNCTION {name}:")
            self._explain_blocks(func.blocks, lines, 1)
        return "\n".join(lines)

    def _explain_blocks(self, blocks, lines, depth) -> None:
        from repro.compiler.blocks import BasicBlock, ForBlock, IfBlock, WhileBlock

        pad = "  " * depth
        for block in blocks:
            if isinstance(block, BasicBlock):
                lines.append(f"{pad}GENERIC (recompile={block.requires_recompile}):")
                for instruction in block.instructions:
                    lines.append(f"{pad}  {instruction!r}")
            elif isinstance(block, IfBlock):
                lines.append(f"{pad}IF:")
                self._explain_blocks(block.then_blocks, lines, depth + 1)
                if block.else_blocks:
                    lines.append(f"{pad}ELSE:")
                    self._explain_blocks(block.else_blocks, lines, depth + 1)
            elif isinstance(block, WhileBlock):
                lines.append(f"{pad}WHILE:")
                self._explain_blocks(block.body, lines, depth + 1)
            elif isinstance(block, ForBlock):
                kind = "PARFOR" if block.parallel else "FOR"
                lines.append(f"{pad}{kind} {block.var}:")
                self._explain_blocks(block.body, lines, depth + 1)
