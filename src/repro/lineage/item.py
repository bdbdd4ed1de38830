"""Lineage items: nodes of the per-variable lineage DAGs.

Each item records one logical operation (or a leaf: literal, bound data,
persistent read, or seeded data generation) and links to the items of its
inputs.  Items are immutable and carry a canonical 128-bit key (BLAKE2b over
opcode, payload, and child keys) used both for deduplication (hash-consing)
and as the reuse cache key.

Leaves name data by content, never by variable name, object identity, path
or modification time: a bound matrix is a digest of its values, a scalar is
its value, a read is a digest of the file.  So equal keys mean equal values
across executions and sessions of one process, which is what lets the reuse
cache outlive a script run.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Optional, Sequence, Tuple

_ITEM_IDS = itertools.count(1)


class LineageItem:
    """One node of a lineage DAG."""

    __slots__ = ("item_id", "opcode", "data", "inputs", "key")

    def __init__(self, opcode: str, inputs: Sequence["LineageItem"] = (), data: str = ""):
        self.item_id = next(_ITEM_IDS)
        self.opcode = opcode
        self.data = data
        self.inputs: Tuple[LineageItem, ...] = tuple(inputs)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(opcode.encode())
        digest.update(b"\x00")
        digest.update(data.encode())
        for child in self.inputs:
            digest.update(b"\x01")
            digest.update(child.key)
        self.key = digest.digest()

    # --- structural helpers ----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.inputs

    def iter_nodes(self) -> Iterable["LineageItem"]:
        """All nodes of this item's DAG (each exactly once)."""
        seen = set()
        stack = [self]
        while stack:
            item = stack.pop()
            if item.item_id in seen:
                continue
            seen.add(item.item_id)
            yield item
            stack.extend(item.inputs)

    def depth(self) -> int:
        if not self.inputs:
            return 1
        return 1 + max(child.depth() for child in self.inputs)

    def count_nodes(self) -> int:
        return sum(1 for __ in self.iter_nodes())

    # --- serialisation (debugging / lineage query processing) ---------------------

    def explain(self, max_nodes: int = 200) -> str:
        """A readable multi-line rendering of the lineage DAG (topological)."""
        lines = []
        seen = set()

        def visit(item: LineageItem) -> None:
            if item.item_id in seen or len(lines) >= max_nodes:
                return
            for child in item.inputs:
                visit(child)
            seen.add(item.item_id)
            refs = ",".join(str(child.item_id) for child in item.inputs)
            payload = f" {item.data}" if item.data else ""
            lines.append(f"({item.item_id}) {item.opcode}{payload} [{refs}]")

        visit(self)
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return isinstance(other, LineageItem) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LineageItem({self.opcode}, key={self.key.hex()[:10]})"


def literal_item(value) -> LineageItem:
    """A leaf item for an inline literal."""
    return LineageItem("lit", (), f"{type(value).__name__}:{value!r}")


_GUID = itertools.count(1)


def input_item(name: str, guid: Optional[int] = None) -> LineageItem:
    """A leaf item for a variable whose content the tracer cannot name.

    A fresh ``guid`` is drawn when not supplied, so the leaf never equals
    another one and nothing derived from it is ever reused.
    """
    if guid is None:
        guid = next(_GUID)
    return LineageItem("input", (), f"{name}#{guid}")


def data_item(digest: str) -> LineageItem:
    """A leaf item for a bound input, keyed by a digest of its content."""
    return LineageItem("input", (), digest)


def pread_item(digest: str) -> LineageItem:
    """A leaf item for a persistent read, keyed by a digest of the file's
    bytes, its ``.mtd`` metadata and the read's own parameters."""
    return LineageItem("pread", (), digest)
