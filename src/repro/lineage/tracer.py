"""Per-execution lineage tracer.

The tracer maintains the lineage DAG of every live variable.  After each
instruction the interpreter calls :meth:`trace`, which derives the output
item from the opcode and the input items.  With deduplication enabled,
items are hash-consed: structurally identical subtrees (e.g. the trace of
every loop iteration that takes the same control-flow path) share one
object, so loops add O(1) new nodes per iteration instead of re-recording
the whole path (paper section 3.1).
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, Optional, Sequence

import numpy as np

from repro.lineage.item import LineageItem, data_item, input_item, literal_item, pread_item
from repro.runtime.data import FrameObject, ListObject, MatrixObject, ScalarObject


class LineageTracer:
    """Traces lineage DAGs of live variables during interpretation."""

    def __init__(self, dedup: bool = True):
        self.items: Dict[str, LineageItem] = {}
        self.dedup = dedup
        self._interned: Dict[bytes, LineageItem] = {}
        self.stats = {"traced": 0, "interned_hits": 0}

    # --- item construction -----------------------------------------------------

    def _intern(self, item: LineageItem) -> LineageItem:
        if not self.dedup:
            return item
        existing = self._interned.get(item.key)
        if existing is not None:
            self.stats["interned_hits"] += 1
            return existing
        self._interned[item.key] = item
        return existing or item

    def make(self, opcode: str, inputs: Sequence[LineageItem], data: str = "") -> LineageItem:
        return self._intern(LineageItem(opcode, inputs, data))

    def operand_item(self, operand) -> LineageItem:
        """The lineage item of one instruction operand."""
        if operand.is_literal:
            return self._intern(literal_item(operand.literal.value))
        item = self.items.get(operand.name)
        if item is None:
            # a variable bound outside traced execution (e.g. API input)
            item = input_item(operand.name)
            self.items[operand.name] = item
        return item

    # --- tracing entry points -------------------------------------------------------

    def trace(self, instruction) -> Optional[LineageItem]:
        """Derive and record the output lineage of one executed instruction."""
        outputs = instruction.output_names()
        if not outputs:
            return None
        self.stats["traced"] += 1
        opcode = instruction.opcode
        if opcode == "assignvar":
            item = self.operand_item(instruction.inputs[0])
            self.items[outputs[0]] = item
            return item
        inputs = [self.operand_item(operand) for operand in instruction.inputs]
        extra = self._instruction_data(instruction)
        if len(outputs) == 1:
            item = self.make(opcode, inputs, extra)
            self.items[outputs[0]] = item
            return item
        parent = self.make(opcode, inputs, extra)
        for index, name in enumerate(outputs):
            self.items[name] = self.make("fout", [parent], str(index))
        return parent

    @staticmethod
    def _instruction_data(instruction) -> str:
        params = instruction.params
        if not params:
            return ""
        parts = []
        for key in sorted(params):
            if key == "source":
                continue  # generated code is summarised by its signature
            value = params[key]
            if key in ("names", "outputs", "arg_names"):
                parts.append(f"{key}={','.join(str(v) for v in value)}")
            else:
                parts.append(f"{key}={value}")
        return ";".join(parts)

    def trace_datagen(self, name: str, instruction, seed: int) -> LineageItem:
        """Trace a data generator including its (possibly generated) seed."""
        data = f"{instruction.params.get('method')};seed={seed}"
        inputs = [self.operand_item(op) for op in instruction.inputs]
        item = self.make("datagen", inputs, data)
        self.items[name] = item
        return item

    def read_item(self, path: str, params: Dict[str, object]) -> LineageItem:
        """The leaf of a persistent read (not yet bound to a variable)."""
        digest = read_digest(path, params)
        if digest is None:
            return input_item(path)  # unreadable: the read itself will fail
        return self._intern(pread_item(digest))

    def bind_literal(self, name: str, value) -> LineageItem:
        """Bind a variable holding a known scalar value to its literal leaf."""
        item = self._intern(literal_item(value))
        self.items[name] = item
        return item

    def bind_input(self, name: str, value) -> LineageItem:
        """Register an externally bound input under a leaf of its content."""
        if isinstance(value, ScalarObject):
            return self.bind_literal(name, value.value)
        digest = hashlib.sha256()
        if _update_value(digest, value):
            item = self._intern(data_item(digest.hexdigest()[:_HEX]))
        else:
            item = input_item(name)
        self.items[name] = item
        return item

    # --- queries ----------------------------------------------------------------------

    def get(self, name: str) -> Optional[LineageItem]:
        return self.items.get(name)

    def remove(self, name: str) -> None:
        self.items.pop(name, None)

    def copy_binding(self, source: str, target: str) -> None:
        item = self.items.get(source)
        if item is not None:
            self.items[target] = item


# ---------------------------------------------------------------------------
# content digests of leaves
# ---------------------------------------------------------------------------

#: Content digests are SHA-256, cut to 128 bits: with the SHA instructions
#: of current x86 and ARM cores it hashes ~1 GB/s, about three times
#: BLAKE2b's software speed.
_HEX = 32
_CHUNK = 1 << 20


def read_digest(path: str, params: Dict[str, object]) -> Optional[str]:
    """Digest of a read: the file's bytes, its ``.mtd`` and the read's own
    parameters (format, header, separator, ...); None when the file cannot
    be opened.  Path and mtime are not part of it: a file rewritten in
    place is a new key, and the same bytes at another path the same key."""
    from repro.io.mtd import mtd_path

    digest = hashlib.sha256()
    try:
        _update_file(digest, path)
    except OSError:
        return None
    digest.update(b"\x00mtd")
    try:
        _update_file(digest, mtd_path(path))
    except OSError:
        digest.update(b"\x00none")
    for name in sorted(params):
        value = getattr(params[name], "value", params[name])
        digest.update(f"\x00{name}={value!r}".encode())
    return digest.hexdigest()[:_HEX]


def _update_file(digest, path: str) -> None:
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK), b""):
            digest.update(chunk)


def _update_value(digest, value) -> bool:
    """Feed a bound data object's content into ``digest``; False when the
    content is not local (federated, distributed) or of an unknown kind."""
    if isinstance(value, ScalarObject):
        digest.update(f"s{value.value_type.value}:{value.value!r}".encode())
    elif isinstance(value, MatrixObject):
        if not value.is_local:
            return False
        block = value.acquire_local()
        if block.is_sparse and block.ndim == 2:
            csr = block.to_scipy()
            digest.update(f"csr{block.shape}".encode())
            for part in (csr.indptr, csr.indices, csr.data):
                _update_array(digest, part)
        else:
            _update_array(digest, block.to_numpy())
    elif isinstance(value, FrameObject):
        frame = value.frame
        digest.update(f"f{frame.names}{[vt.value for vt in frame.schema]}".encode())
        for column in frame.columns:
            _update_array(digest, column)
    elif isinstance(value, ListObject):
        digest.update(f"l{len(value)}{value.names}".encode())
        return all(_update_value(digest, entry) for entry in value.items)
    else:
        return False
    return True


def _update_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    if array.dtype.hasobject:
        digest.update(pickle.dumps(array.tolist(), protocol=pickle.HIGHEST_PROTOCOL))
    else:
        digest.update(array)
