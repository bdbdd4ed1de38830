"""Operator fusion via code generation (paper Figure 3 "codegen", §3.4).

Chains of elementwise operations like ``(X - mu) / sigma * w + b`` normally
execute one instruction per operator, materialising an intermediate matrix
each time.  The cell-template fusion implemented here — the simplest of
SystemML's codegen templates — finds maximal single-consumer regions of
elementwise operators, generates one Python function evaluating the whole
region in a single vectorised expression, and compiles it with
``compile()``; the runtime executes one fused instruction with no
intermediates.

Fused evaluation is dense: sparse leaf inputs are densified.  (Exploiting
sparsity inside fused operators is exactly the open research direction the
paper cites [8]; regions over sparse data are left unfused when the root
estimate says sparsity matters.)
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Dict, List, Sequence, Set

import numpy as np

from repro.compiler import hops as H

_FUSED_IDS = itertools.count(1)

#: Elementwise binary operators the cell template supports.
_BINARY_RENDER = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "^": "np.power({0}, {1})",
    "%%": "np.mod({0}, {1})",
    "%/%": "np.floor_divide({0}, {1})",
    "min": "np.minimum({0}, {1})",
    "max": "np.maximum({0}, {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
    "==": "({0} == {1})",
    "!=": "({0} != {1})",
}

#: Elementwise unary operators the cell template supports.
_UNARY_RENDER = {
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sqrt": "np.sqrt({0})",
    "abs": "np.abs({0})",
    "round": "np.round({0})",
    "floor": "np.floor({0})",
    "ceil": "np.ceil({0})",
    "sign": "np.sign({0})",
    "sin": "np.sin({0})",
    "cos": "np.cos({0})",
    "tan": "np.tan({0})",
    "sigmoid": "(1.0 / (1.0 + np.exp(-({0}))))",
    "uminus": "(-({0}))",
    "!": "np.logical_not({0})",
    "isnan": "np.isnan({0})",
}

#: Regions this sparse at the root are left unfused (dense evaluation would
#: forfeit the sparse kernels).
_SPARSE_GUARD = 0.2

#: Minimum number of fused operator nodes for fusion to pay off.
MIN_REGION_SIZE = 2


class FusedRegion:
    """One fusable sub-DAG: its root, interior nodes, leaves, and code."""

    def __init__(self, root: H.Hop, interior: Set[int], leaves: List[H.Hop]):
        self.root = root
        self.interior = interior
        self.leaves = leaves
        self.name = f"fused_cell_{next(_FUSED_IDS)}"
        self.source = self._generate_source()
        self.func = self._compile()
        digest = hashlib.blake2b(self.source.encode(), digest_size=8)
        self.signature = digest.hexdigest()

    # --- code generation -----------------------------------------------------

    def _generate_source(self) -> str:
        leaf_names = {leaf.hop_id: f"x{i}" for i, leaf in enumerate(self.leaves)}

        def render(hop: H.Hop) -> str:
            if hop.hop_id in leaf_names:
                return leaf_names[hop.hop_id]
            if isinstance(hop, H.LiteralHop):
                return repr(float(hop.value))
            if isinstance(hop, H.BinaryHop):
                template = _BINARY_RENDER[hop.op]
                return template.format(render(hop.inputs[0]), render(hop.inputs[1]))
            if isinstance(hop, H.UnaryHop):
                template = _UNARY_RENDER[hop.op]
                return template.format(render(hop.inputs[0]))
            raise KeyError(f"non-fusable hop {hop!r} inside region")

        params = ", ".join(leaf_names[leaf.hop_id] for leaf in self.leaves)
        body = render(self.root)
        return (
            f"def {self.name}({params}):\n"
            f"    return np.asarray({body}, dtype=np.float64)\n"
        )

    def _compile(self) -> Callable:
        namespace = {"np": np}
        code = compile(self.source, filename=f"<{self.name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - compiler-generated code
        return namespace[self.name]


def _is_fusable(hop: H.Hop) -> bool:
    if isinstance(hop, H.BinaryHop):
        renders = hop.op in _BINARY_RENDER
    elif isinstance(hop, H.UnaryHop):
        renders = hop.op in _UNARY_RENDER
    else:
        return False
    # literals render inline as floats: a string operand (concatenated to
    # an input of unknown type) keeps its own instruction
    return renders and hop.is_matrix() and not any(
        isinstance(c, H.LiteralHop) and isinstance(c.value, str) for c in hop.inputs)


def plan_cell_fusion(roots: Sequence[H.Hop]) -> Dict[int, FusedRegion]:
    """Find maximal fusable regions; returns region by root hop id."""
    order = H.topological_order(roots)
    consumers: Dict[int, int] = {}
    for hop in order:
        for child in hop.inputs:
            consumers[child.hop_id] = consumers.get(child.hop_id, 0) + 1

    regions: Dict[int, FusedRegion] = {}
    claimed: Set[int] = set()
    for hop in reversed(order):  # roots first
        if not _is_fusable(hop) or hop.hop_id in claimed:
            continue
        # region roots: fusable nodes not absorbed into a larger region
        interior: Set[int] = set()
        leaves: List[H.Hop] = []
        leaf_ids: Set[int] = set()

        def grow(node: H.Hop) -> None:
            interior.add(node.hop_id)
            for child in node.inputs:
                if isinstance(child, H.LiteralHop):
                    continue  # rendered inline
                absorbable = (
                    _is_fusable(child)
                    and consumers.get(child.hop_id, 0) == 1
                    and child.hop_id not in claimed
                )
                if absorbable:
                    grow(child)
                elif child.hop_id not in leaf_ids:
                    leaf_ids.add(child.hop_id)
                    leaves.append(child)

        grow(hop)
        if len(interior) < MIN_REGION_SIZE:
            continue
        if 0.0 <= hop.sparsity < _SPARSE_GUARD and hop.nnz_known:
            continue  # keep sparse chains on the sparse kernels
        if len(leaves) > 8:
            continue  # cap generated-function arity
        regions[hop.hop_id] = FusedRegion(hop, interior, leaves)
        claimed |= interior
    return regions
