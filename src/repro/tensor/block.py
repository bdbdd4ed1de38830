"""The homogeneous ``BasicTensorBlock`` abstraction (paper section 2.4).

A basic tensor block is a multi-dimensional array of a single value type
with interchangeable dense and sparse physical representations.  It serves
both as the local in-memory tensor and as one tile of a distributed blocked
tensor.  Representation changes are transparent: the runtime asks for
``to_numpy()`` / ``to_scipy()`` when a kernel needs a specific layout, and
``compact()`` re-evaluates the layout decision after an operation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.dense import DenseStore
from repro.tensor.sparse import SparseStore
from repro.types import ValueType

#: Blocks whose sparsity falls below this threshold are stored sparse
#: (SystemDS uses the same default for matrix blocks).
SPARSITY_TURN_POINT = 0.4

#: Tiny blocks always stay dense; sparse bookkeeping overheads dominate.
MIN_SPARSE_SIZE = 256


def _has_negative_zero(array: np.ndarray) -> bool:
    """True when a float array holds a -0.0, which a sparse layout cannot
    store: such a block stays dense so that its layout stays invisible."""
    return array.dtype.kind == "f" and bool(np.any(np.signbit(array) & (array == 0)))


class BasicTensorBlock:
    """A homogeneous, optionally sparse, n-dimensional tensor block."""

    __slots__ = ("store",)

    def __init__(self, store: Union[DenseStore, SparseStore]):
        self.store = store

    # --- constructors -----------------------------------------------------------

    @classmethod
    def from_numpy(cls, array: np.ndarray, value_type: Optional[ValueType] = None) -> "BasicTensorBlock":
        array = np.asarray(array)
        if array.ndim == 0:
            array = array.reshape(1, 1)
        if value_type is not None and array.dtype != value_type.numpy_dtype:
            array = array.astype(value_type.numpy_dtype)
        block = cls(DenseStore.from_numpy(array))
        return block.compact()

    @classmethod
    def from_scipy(cls, matrix) -> "BasicTensorBlock":
        return cls(SparseStore.from_scipy(matrix))

    @classmethod
    def zeros(cls, shape: Sequence[int], value_type: ValueType = ValueType.FP64) -> "BasicTensorBlock":
        shape = tuple(int(d) for d in shape)
        size = int(np.prod(shape)) if shape else 1
        if value_type.is_numeric and size >= MIN_SPARSE_SIZE:
            return cls(SparseStore.empty(shape, value_type))
        return cls(DenseStore.zeros(shape, value_type))

    @classmethod
    def full(cls, shape: Sequence[int], value, value_type: ValueType = ValueType.FP64) -> "BasicTensorBlock":
        if value == 0 and value_type.is_numeric:
            return cls.zeros(shape, value_type)
        return cls(DenseStore.full(shape, value, value_type))

    @classmethod
    def rand(
        cls,
        shape: Sequence[int],
        min_value: float = 0.0,
        max_value: float = 1.0,
        sparsity: float = 1.0,
        seed: Optional[int] = None,
        pdf: str = "uniform",
    ) -> "BasicTensorBlock":
        """Generate a random block (the DML ``rand()`` data generator)."""
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in shape)
        if pdf == "uniform":
            data = rng.uniform(min_value, max_value, size=shape)
        elif pdf == "normal":
            data = rng.standard_normal(size=shape)
        elif pdf == "poisson":
            data = rng.poisson(lam=max(max_value, 0.0) or 1.0, size=shape).astype(np.float64)
        else:
            raise ValueError(f"unknown pdf: {pdf!r}")
        if sparsity < 1.0:
            mask = rng.random(size=shape) < sparsity
            data = np.where(mask, data, 0.0)
        return cls.from_numpy(data)

    @classmethod
    def scalar(cls, value: float) -> "BasicTensorBlock":
        """A 1x1 block holding a single value (for as.matrix of scalars)."""
        return cls(DenseStore.from_numpy(np.asarray([[float(value)]])))

    # --- basic properties ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.store.shape

    @property
    def ndim(self) -> int:
        return len(self.store.shape)

    @property
    def num_rows(self) -> int:
        return self.store.shape[0] if self.ndim >= 1 else 1

    @property
    def num_cols(self) -> int:
        return self.store.shape[1] if self.ndim >= 2 else 1

    @property
    def value_type(self) -> ValueType:
        return self.store.value_type

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.store, SparseStore)

    @property
    def is_compressed(self) -> bool:
        """True while the payload is a still-compressed restored spill."""
        return self.store.compressed

    @property
    def size(self) -> int:
        return self.store.size

    @property
    def nnz(self) -> int:
        return self.store.nnz

    @property
    def sparsity(self) -> float:
        return self.nnz / self.size if self.size else 0.0

    def memory_size(self) -> int:
        return self.store.memory_size()

    # --- representation control -------------------------------------------------------

    def compact(self) -> "BasicTensorBlock":
        """Re-evaluate the dense/sparse layout decision in place.

        Works on the store directly (no property chains): this runs once
        per materialized intermediate, making it one of the hottest
        scalar-code paths in the runtime.
        """
        store = self.store
        if store.compressed:
            # layout decision is deferred until the block inflates: the
            # compressed form is strictly smaller than either layout
            return self
        if type(store) is DenseStore:
            array = store.array
            if array.size >= MIN_SPARSE_SIZE and store.value_type.is_numeric:
                # one scan serves both the layout decision and the nnz
                # cache — exports (MatrixObject.from_block, trace exits)
                # then read the count without rescanning the array
                nnz = int(np.count_nonzero(array))
                store._nnz = nnz
                if nnz < array.size * SPARSITY_TURN_POINT and not _has_negative_zero(array):
                    self.store = SparseStore.from_numpy(array, store.value_type)
        elif (
            store.nnz >= store.size * SPARSITY_TURN_POINT
            or store.size < MIN_SPARSE_SIZE
        ):
            self.store = DenseStore(store.to_numpy(), store.value_type)
        return self

    def to_dense(self) -> "BasicTensorBlock":
        if self.is_sparse:
            self.store = DenseStore(self.store.to_numpy(), self.value_type)
        return self

    def to_sparse(self) -> "BasicTensorBlock":
        if not self.is_sparse and self.value_type.is_numeric:
            self.store = SparseStore.from_numpy(self.store.to_numpy(), self.value_type)
        return self

    # --- access & conversion --------------------------------------------------------------

    def get(self, index: Tuple[int, ...]):
        return self.store.get(index)

    def set(self, index: Tuple[int, ...], value) -> None:
        if self.store.compressed:
            self.inflate()
        self.store.set(index, value)

    def inflate(self) -> "BasicTensorBlock":
        """Decompress a restored-compressed payload in place (no-op
        otherwise).  The swapped-in dense store carries the exact bits
        and the nnz metadata the spill recorded."""
        store = self.store
        if store.compressed:
            self.store = store.inflate()
        return self

    def to_numpy(self) -> np.ndarray:
        store = self.store
        if store.compressed:
            store = self.store = store.inflate()
        return store.to_numpy()

    def to_scipy(self) -> sp.csr_matrix:
        """CSR view for 2D blocks (converts dense blocks on demand)."""
        if isinstance(self.store, SparseStore) and self.store.csr is not None:
            return self.store.csr
        if self.ndim != 2:
            raise ValueError("to_scipy requires a 2D block")
        return sp.csr_matrix(self.to_numpy())

    def astype(self, value_type: ValueType) -> "BasicTensorBlock":
        if value_type == self.value_type:
            return self
        if value_type == ValueType.STRING and self.is_sparse:
            return BasicTensorBlock(DenseStore(self.to_numpy().astype(object), value_type))
        return BasicTensorBlock(self.store.astype(value_type))

    def copy(self) -> "BasicTensorBlock":
        return BasicTensorBlock(self.store.copy())

    def reshape(self, shape: Sequence[int]) -> "BasicTensorBlock":
        shape = tuple(int(d) for d in shape)
        if int(np.prod(shape)) != self.size:
            raise ValueError(f"cannot reshape {self.shape} into {shape}")
        return BasicTensorBlock.from_numpy(self.to_numpy().reshape(shape))

    def as_scalar(self) -> float:
        if self.size != 1:
            raise ValueError(f"as.scalar on block of shape {self.shape}")
        return float(self.to_numpy().reshape(-1)[0])

    # --- equality (structural, for tests) ----------------------------------------------------

    def equals(self, other: "BasicTensorBlock", rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        if self.value_type == ValueType.STRING or other.value_type == ValueType.STRING:
            return bool(np.array_equal(self.to_numpy(), other.to_numpy()))
        return bool(
            np.allclose(
                self.to_numpy().astype(np.float64),
                other.to_numpy().astype(np.float64),
                rtol=rtol,
                atol=atol,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"BasicTensorBlock(shape={self.shape}, vt={self.value_type.value},"
            f" {kind}, nnz={self.nnz})"
        )
