"""Lossless column-group compression for linear algebra (paper section 3.4).

A reproduction of Compressed Linear Algebra (CLA, [20] in the paper): a
block is a list of *column groups*, and selected linear-algebra operations
execute directly on them.  A group is

* its column indexes,
* a ``(d x c)`` dictionary of the distinct value tuples its rows take, and
* one code vector naming each row's tuple (``uint8`` when d <= 256,
  ``uint16`` when d <= 2**16).

Two groups carry no code vector: a *constant* group has a one-row
dictionary every row shares (a constant block is one such group), and the
*uncompressed* group holds the high-cardinality columns as they are — its
"dictionary" has one row per matrix row.

Compression is CLA's greedy co-coding.  Each column is dictionary-encoded
on its own; then, in ascending cardinality, a column joins the open group
while the exact joint dictionary keeps the merged group no larger than
the two groups apart (16-level columns pair up into 256-tuple ``uint8``
groups; a third column would need ~3500 tuples and is refused).

Each kernel is one NumPy step per group, never a loop over columns:

* ``matmult_dense`` / ``matvec`` (``X %*% B``): scale the dictionary by
  B's matching rows — a (d x k) product — then gather it through the codes;
* ``t_matmult_dense`` / ``vecmat`` (``t(X) %*% B``): one weighted
  ``bincount`` of B's rows by code, then one small dot with the
  dictionary (pre-aggregation over distinct tuples, O(n + d) per group);
* ``col_sums``, full aggregates (sum/min/max/mean), ``nnz`` and
  elementwise scalar ops: on the dictionaries, reusing the codes.

Two properties matter for the buffer pool, which spills eligible blocks
in this format:

* **Bit-exactness.**  Dictionaries are built over the *uint64 bit
  patterns* of the float64 cells, not their numeric values: ``-0.0`` vs
  ``0.0`` and distinct NaN payloads survive a compress/decompress round
  trip bit-for-bit, which is what lets chaos lattice configs compare
  spilled runs bitwise against in-memory baselines.
* **A flat pickle.**  A block pickles as a handful of arrays (all column
  indexes, all dictionaries, all ``uint8`` codes, all ``uint16`` codes,
  one row of sizes per group) and restores as views into them: per-group
  arrays would make every restore pay one pickle record per group.
  The block's ``value_type`` and ``nnz`` ride along, so a restore can
  seed the dense nnz cache instead of rescanning the decompressed array.

:class:`CompressedStore` adapts a :class:`CompressedBlock` to the
``BasicTensorBlock`` store protocol: a restored block stays compressed
until a kernel actually needs the dense array (lazy inflation), and
kernels listed in :data:`COMPRESSED_OP_ELIGIBILITY` execute on the
compressed form directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.tensor.block import BasicTensorBlock
from repro.tensor.dense import DenseStore
from repro.types import ValueType

#: Columns with more distinct values than this fraction of rows stay dense.
_MAX_DISTINCT_FRACTION = 0.5

#: Largest dictionary a code vector addresses (``uint16`` codes); also
#: bounds the joint-key space a co-coding merge may probe.
_MAX_DISTINCT = 1 << 16

#: Which operations may run directly on a compressed block.  Keys are
#: ``"<kind>:<op>"``; anything absent (or False) falls back to lazy
#: inflation followed by the ordinary dense kernel.  Compressed-space
#: execution legally reorders float reductions, so it is only enabled
#: when ``ReproConfig.compressed_exec`` is on (tolerance-compared in the
#: qa lattice, never on a bitwise config).
COMPRESSED_OP_ELIGIBILITY: Dict[str, bool] = {
    # elementwise scalar arithmetic: applied to dictionaries only; the
    # same scalar op on the same input bits yields the same output bits,
    # so these are even bitwise-safe
    "scalar:+": True,
    "scalar:-": True,
    "scalar:*": True,
    "scalar:/": True,
    "scalar:^": True,
    # full aggregates: O(#distinct) per group via code histograms
    "agg:sum": True,
    "agg:min": True,
    "agg:max": True,
    "agg:mean": True,
    # var/sd/prod need a different dictionary reduction shape; inflate
    "agg:var": False,
    "agg:sd": False,
    "agg:prod": False,
    # column sums reuse the full-aggregate histogram machinery
    "agg_col:sum": True,
    # matmul with a dense RHS (X %*% B and t(X) %*% B); sparse RHS and
    # tsmm inflate — the sparse kernels want a concrete CSR operand
    "matmult:dense_rhs": True,
    "matmult:transpose_left": True,
    "matmult:sparse_rhs": False,
    "matmult:tsmm": False,
}

#: One column group: ``(column indexes, (d x c) dictionary, codes)``;
#: codes is None for a constant group (d == 1) and the uncompressed group
#: (d == #rows), whose dictionaries broadcast to the rows as they are.
Group = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def compressed_eligible(kind: str, op: str) -> bool:
    """True when ``op`` may execute on the compressed representation."""
    return COMPRESSED_OP_ELIGIBILITY.get(f"{kind}:{op}", False)


def _group_bytes(num_rows: int, distinct: int, width: int) -> int:
    """Memory of a dictionary group of ``width`` columns."""
    codes = 0 if distinct == 1 else num_rows * (1 if distinct <= 256 else 2)
    return distinct * width * 8 + codes


def _as_rhs(rhs, rows: int, kernel: str) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim == 1:
        rhs = rhs.reshape(-1, 1)
    if rhs.shape[0] != rows:
        raise ValueError(f"{kernel} expects {rows} RHS rows, got {rhs.shape[0]}")
    return rhs


class CompressedBlock:
    """A column-group-compressed matrix supporting compressed-space operations."""

    def __init__(self, groups: List[Group], num_rows: int, num_cols: int,
                 value_type: ValueType = ValueType.FP64,
                 nnz: Optional[int] = None):
        self.groups = groups
        self.num_rows = num_rows
        self.num_cols = num_cols
        #: Value type of the source block (compression coerces to FP64;
        #: the recorded type is what a restore reconstructs).
        self.value_type = value_type
        #: Non-zero count of the source block, carried through spills so
        #: restores seed the dense nnz cache instead of rescanning.
        self._nnz = nnz

    # --- construction -----------------------------------------------------------

    @classmethod
    def compress(cls, block: BasicTensorBlock) -> "CompressedBlock":
        """Compress a matrix block into co-coded column groups (lossless,
        bit-exact).

        Dictionaries are keyed on the uint64 *bit patterns* of the float64
        cells: ``np.unique`` over raw floats would collapse ``-0.0`` into
        ``0.0`` and canonicalise NaN payloads, breaking the bitwise
        spill/restore invariant the buffer pool relies on.
        """
        data = block.to_numpy().astype(np.float64, copy=False)
        if data.ndim != 2:
            raise ValueError("compression requires a 2D block")
        n, m = data.shape
        nnz = int(block.nnz)
        bits = np.ascontiguousarray(data).view(np.uint64)
        if n * m == 0 or (bits == bits[0, 0]).all():
            # constant block: one comparison, one dictionary row
            return cls([(np.arange(m), data[:1].copy(), None)], n, m, ValueType.FP64, nnz)

        # per-column dictionaries from one row-wise sort of the transposed
        # bits: ``first`` marks each column's distinct values in sorted
        # order, its running count is the code, scattered back to rows
        column_bits = np.ascontiguousarray(bits.T)
        order = np.argsort(column_bits, axis=1)
        order += np.arange(0, n * m, n)[:, None]
        sorted_bits = column_bits.ravel()[order]
        first = np.empty((m, n), dtype=bool)
        first[:, 0] = True
        np.not_equal(sorted_bits[:, 1:], sorted_bits[:, :-1], out=first[:, 1:])
        distinct = first.sum(axis=1)
        offsets = np.cumsum(distinct) - distinct
        uniques = sorted_bits[first].view(np.float64)
        ranks = np.cumsum(first, axis=1, dtype=np.int32)
        ranks -= 1
        codes = np.empty((m, n), dtype=np.int32)
        codes.ravel()[order.ravel()] = ranks.ravel()
        del column_bits, order, sorted_bits, first, ranks

        # greedy co-coding in ascending cardinality: a column joins the open
        # group when the exact joint dictionary (the joint keys that occur)
        # is no larger than the two groups apart.  A group is planned as its
        # columns, its tuples of per-column codes and its row codes.
        cap = min(max(1, int(n * _MAX_DISTINCT_FRACTION)), _MAX_DISTINCT)
        by_card = np.argsort(distinct, kind="stable")
        split = np.searchsorted(distinct[by_card], cap, side="right")
        plans: List[Tuple[List[int], np.ndarray, np.ndarray]] = []
        for j in by_card[:split].tolist():
            d_j = int(distinct[j])
            if plans:
                cols, tuples, group_codes = plans[-1]
                d = len(tuples)
                if d * d_j <= _MAX_DISTINCT:
                    keys = group_codes * d_j + codes[j]
                    used = np.bincount(keys, minlength=d * d_j) > 0
                    joint = np.flatnonzero(used)
                    if (len(joint) <= cap and _group_bytes(n, len(joint), len(cols) + 1)
                            <= _group_bytes(n, d, len(cols)) + _group_bytes(n, d_j, 1)):
                        plans[-1] = (cols + [j],
                                     np.column_stack([tuples[joint // d_j], joint % d_j]),
                                     (np.cumsum(used) - 1)[keys])
                        continue
            plans.append(([j], np.arange(d_j).reshape(-1, 1), codes[j].astype(np.intp)))

        groups: List[Group] = []
        for cols, tuples, group_codes in plans:
            dictionary = uniques[offsets[cols] + tuples]
            if len(dictionary) == 1:
                group_codes = None
            else:
                group_codes = group_codes.astype(np.uint8 if len(dictionary) <= 256 else np.uint16)
            groups.append((np.asarray(cols), dictionary, group_codes))
        dense = by_card[split:]  # past the cap: one uncompressed group
        if len(dense):
            groups.append((dense, data[:, dense], None))
        return cls(groups, n, m, ValueType.FP64, nnz)

    # --- pickling ----------------------------------------------------------------

    def __getstate__(self):
        codes = [c for __, __, c in self.groups if c is not None]
        return (
            self.num_rows, self.num_cols, self.value_type, self._nnz,
            np.array([(len(dictionary), len(cols), 0 if c is None else c.itemsize)
                      for cols, dictionary, c in self.groups], dtype=np.int64).reshape(-1, 3),
            np.concatenate([np.empty(0, np.intp)] + [cols for cols, __, __ in self.groups]),
            np.concatenate([np.empty(0)] + [d.ravel() for __, d, __ in self.groups]),
            np.concatenate([np.empty(0, np.uint8)] + [c for c in codes if c.itemsize == 1]),
            np.concatenate([np.empty(0, np.uint16)] + [c for c in codes if c.itemsize == 2]),
        )

    def __setstate__(self, state) -> None:
        (self.num_rows, self.num_cols, self.value_type, self._nnz,
         sizes, cols, values, codes8, codes16) = state
        n = self.num_rows
        self.groups = []
        col_at = value_at = 0
        code_at = {1: 0, 2: 0}
        for d, c, width in sizes.tolist():
            codes = None
            if width:
                codes = (codes8 if width == 1 else codes16)[code_at[width]:code_at[width] + n]
                code_at[width] += n
            dictionary = values[value_at:value_at + d * c].reshape(d, c)
            self.groups.append((cols[col_at:col_at + c], dictionary, codes))
            col_at += c
            value_at += d * c

    # --- metadata ---------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def nnz(self) -> int:
        """Non-zero cells, computed compressed-space on first use."""
        if self._nnz is None:
            nonzero = self._map(lambda values: (values != 0).astype(np.float64))
            self._nnz = int(nonzero.sum())
        return self._nnz

    def memory_size(self) -> int:
        return sum(dictionary.nbytes + (0 if codes is None else codes.nbytes)
                   for __, dictionary, codes in self.groups)

    def compression_ratio(self) -> float:
        """Dense bytes divided by compressed bytes (higher is better)."""
        dense = self.num_rows * self.num_cols * 8
        return dense / max(self.memory_size(), 1)

    # --- compressed-space operations ------------------------------------------------------

    def to_dense_array(self) -> np.ndarray:
        """The exact dense float64 array (bit-for-bit the compressed input)."""
        # filled column-major (each group's gather lands in whole rows of
        # the transpose), by copies only: NaN payloads and -0.0 keep their bits
        out = np.empty((self.num_cols, self.num_rows), dtype=np.float64)
        for cols, dictionary, codes in self.groups:
            out[cols] = (dictionary if codes is None else dictionary.take(codes, axis=0)).T
        return np.ascontiguousarray(out.T)

    def decompress(self) -> BasicTensorBlock:
        return BasicTensorBlock.from_numpy(self.to_dense_array())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``X %*% v`` without decompressing (v: (m,) or (m, 1))."""
        return self.matmult_dense(v)

    def vecmat(self, v: np.ndarray) -> np.ndarray:
        """``t(X) %*% v`` via code-weighted bincounts (the CLA trick)."""
        return self.t_matmult_dense(v)

    def matmult_dense(self, rhs: np.ndarray) -> np.ndarray:
        """``X %*% B`` with a dense RHS, never materialising dense X: per
        group a (d x k) scaled dictionary, gathered through the codes."""
        rhs = _as_rhs(rhs, self.num_cols, "matmult_dense")
        out = np.zeros((self.num_rows, rhs.shape[1]))
        for cols, dictionary, codes in self.groups:
            scaled = dictionary @ rhs[cols]
            out += scaled if codes is None else scaled.take(codes, axis=0)
        return out

    def t_matmult_dense(self, rhs: np.ndarray) -> np.ndarray:
        """``t(X) %*% B`` with a dense RHS: per group one weighted bincount
        of B's rows by code, then one (c x d) @ (d x k) dictionary dot."""
        rhs = _as_rhs(rhs, self.num_rows, "t_matmult_dense")
        k = rhs.shape[1]
        out = np.empty((self.num_cols, k))
        for cols, dictionary, codes in self.groups:
            d = len(dictionary)
            if codes is not None:
                # key (code, rhs column) so one bincount sums all k columns
                keys = codes if k == 1 else (
                    codes.astype(np.intp)[:, None] * k + np.arange(k)).ravel()
                summed = np.bincount(keys, weights=rhs.ravel(), minlength=d * k).reshape(d, k)
            else:
                summed = rhs if d == self.num_rows else rhs.sum(axis=0, keepdims=True)
            out[cols] = dictionary.T @ summed
        if not np.isfinite(out).all():
            # x * sum(w) equals sum(x * w) only for finite x (Inf with
            # mixed-sign weights is NaN densely): redo non-finite groups
            for cols, dictionary, codes in self.groups:
                if not np.isfinite(out[cols]).all():
                    rows = (np.broadcast_to(dictionary, (self.num_rows, len(cols)))
                            if codes is None else dictionary[codes])
                    out[cols] = rows.T @ rhs
        return out

    def col_sums(self) -> np.ndarray:
        return self.t_matmult_dense(np.ones(self.num_rows)).reshape(1, -1)

    def _map(self, func: Callable[[np.ndarray], np.ndarray]) -> "CompressedBlock":
        """The block with ``func`` applied to every dictionary, codes shared."""
        groups = [(cols, func(dictionary), codes) for cols, dictionary, codes in self.groups]
        return CompressedBlock(groups, self.num_rows, self.num_cols, ValueType.FP64, None)

    def scalar_op(self, op: str, scalar: float,
                  scalar_left: bool = False) -> "CompressedBlock":
        """Elementwise scalar op applied to dictionaries only (O(#distinct))."""
        funcs: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
            "+": (lambda a: scalar + a) if scalar_left else (lambda a: a + scalar),
            "-": (lambda a: scalar - a) if scalar_left else (lambda a: a - scalar),
            "*": (lambda a: scalar * a) if scalar_left else (lambda a: a * scalar),
            "/": (lambda a: scalar / a) if scalar_left else (lambda a: a / scalar),
            "^": (lambda a: scalar ** a) if scalar_left else (lambda a: a ** scalar),
        }
        func = funcs.get(op)
        if func is None:
            raise ValueError(f"unsupported compressed scalar op {op!r}")
        return self._map(func)

    def sum(self) -> float:
        return float(self.col_sums().sum())

    def min(self) -> float:
        """Full min over dictionaries (every dictionary row occurs)."""
        return float(np.min([dictionary.min() for __, dictionary, __ in self.groups]))

    def max(self) -> float:
        return float(np.max([dictionary.max() for __, dictionary, __ in self.groups]))

    def mean(self) -> float:
        return self.sum() / (self.num_rows * self.num_cols)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompressedBlock({self.num_rows}x{self.num_cols},"
            f" ratio={self.compression_ratio():.1f}x,"
            f" groups={len(self.groups)})"
        )


class CompressedStore:
    """Store-protocol adapter so a :class:`BasicTensorBlock` can hold a
    still-compressed payload.

    A restored spill stays in this form until a kernel asks for the dense
    array (``BasicTensorBlock`` inflates the store in place on first
    ``to_numpy``) or an eligible kernel executes compressed-space.  The
    optional ``on_event`` hook lets the owning buffer pool count
    inflations and compressed-space kernel dispatches.
    """

    __slots__ = ("block", "value_type", "_nnz", "on_event")

    #: Store-protocol flag checked by BasicTensorBlock hot paths (class
    #: attribute so DenseStore/SparseStore pay one attr lookup, no isinstance).
    compressed = True

    def __init__(self, block: CompressedBlock,
                 value_type: Optional[ValueType] = None,
                 nnz: Optional[int] = None,
                 on_event: Optional[Callable[[str], None]] = None):
        self.block = block
        self.value_type = value_type if value_type is not None else block.value_type
        self._nnz = nnz if nnz is not None else block._nnz
        self.on_event = on_event

    # --- store protocol -------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self.block.shape

    @property
    def ndim(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self.block.num_rows * self.block.num_cols

    @property
    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = self.block.nnz
        return self._nnz

    def memory_size(self) -> int:
        return self.block.memory_size()

    def count(self, event: str) -> None:
        """Report a pool-visible event (no-op outside a pool)."""
        if self.on_event is not None:
            self.on_event(event)

    def inflate(self) -> DenseStore:
        """The exact dense store (counts a ``lazy_inflates`` pool event)."""
        self.count("lazy_inflates")
        return DenseStore(self.block.to_dense_array(), self.value_type, self.nnz)

    def to_numpy(self) -> np.ndarray:
        return self.block.to_dense_array()

    def get(self, index):
        row, col = (int(index[0]), int(index[1])) if len(index) == 2 else (int(index[0]), 0)
        for cols, dictionary, codes in self.block.groups:
            position = np.flatnonzero(cols == col)
            if len(position):
                entry = codes[row] if codes is not None else (row if len(dictionary) > 1 else 0)
                return float(dictionary[entry, position[0]])
        raise IndexError(f"column {col} out of range for {self.block.num_cols} columns")

    def set(self, index, value) -> None:
        raise TypeError(
            "compressed stores are immutable; inflate the block before writing"
        )

    def astype(self, value_type: ValueType):
        if value_type == self.value_type:
            return self
        return self.inflate().astype(value_type)

    def copy(self) -> "CompressedStore":
        # the compressed payload is never mutated in place (scalar ops
        # return new blocks; writes inflate first), so sharing it is safe
        return CompressedStore(self.block, self.value_type, self._nnz, self.on_event)

    # --- pickling -------------------------------------------------------------
    # on_event closes over the owning pool and must not travel through
    # spills/checkpoints; it is re-attached by whoever deserialises.

    def __getstate__(self):
        return (self.block, self.value_type, self._nnz)

    def __setstate__(self, state) -> None:
        self.block, self.value_type, self._nnz = state
        self.on_event = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompressedStore({self.block!r})"
