"""2D frames: tables with a per-column schema and optional column names.

Frames are the input side of the data-preparation pipeline (paper sections
2.1/L4 and 3.2): raw heterogeneous data is read into frames, cleaned and
transformed (recode, dummy-code, binning, ...) and only then becomes a
numeric matrix for training.  A frame is a thin columnar container; the
transform logic itself lives in :mod:`repro.prep.transform`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.tensor.block import BasicTensorBlock
from repro.types import ValueType


class Frame:
    """A columnar 2D table with schema."""

    __slots__ = ("columns", "schema", "names")

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        schema: Sequence[ValueType],
        names: Optional[Sequence[str]] = None,
    ):
        if len(columns) != len(schema):
            raise ValueError("one column per schema entry required")
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.columns: List[np.ndarray] = [self._coerce(col, vt) for col, vt in zip(columns, schema)]
        self.schema: List[ValueType] = list(schema)
        if names is None:
            names = [f"C{i + 1}" for i in range(len(schema))]
        if len(names) != len(schema):
            raise ValueError("one name per column required")
        self.names: List[str] = list(names)

    @staticmethod
    def _coerce(column: np.ndarray, value_type: ValueType) -> np.ndarray:
        """The column in its type's dtype; an array already in it is kept, not copied."""
        dtype = object if value_type == ValueType.STRING else value_type.numpy_dtype
        return np.asarray(column).astype(dtype, copy=False)

    # --- constructors -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Iterable], schema: Optional[Sequence[ValueType]] = None) -> "Frame":
        names = list(data.keys())
        columns = [np.asarray(list(values)) for values in data.values()]
        if schema is None:
            schema = [cls._infer_value_type(col) for col in columns]
        return cls(columns, schema, names)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence],
        schema: Sequence[ValueType],
        names: Optional[Sequence[str]] = None,
    ) -> "Frame":
        n_cols = len(schema)
        columns = [np.asarray([row[j] for row in rows]) for j in range(n_cols)]
        return cls(columns, schema, names)

    @staticmethod
    def _infer_value_type(column: np.ndarray) -> ValueType:
        if column.dtype.kind in ("U", "S", "O"):
            return ValueType.STRING
        if column.dtype.kind == "b":
            return ValueType.BOOLEAN
        if column.dtype.kind in ("i", "u"):
            return ValueType.INT64
        return ValueType.FP64

    # --- basic properties ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    @property
    def shape(self):
        return (self.num_rows, self.num_cols)

    def memory_size(self) -> int:
        """Bytes of the numeric columns plus length + 8 per string cell."""
        total = 0
        for column, vt in zip(self.columns, self.schema):
            if vt == ValueType.STRING:
                try:  # joining str cells is ~3x faster than calling str() on each
                    total += len("".join(column.tolist())) + 8 * len(column)
                except TypeError:  # a cell that is not a str counts as its str()
                    total += sum(map(len, map(str, column))) + 8 * len(column)
            else:
                total += column.nbytes
        return total

    # --- access ------------------------------------------------------------------------

    def column(self, key) -> np.ndarray:
        """A column by name or 0-based position."""
        if isinstance(key, str):
            try:
                key = self.names.index(key)
            except ValueError:
                raise KeyError(f"no column named {key!r}") from None
        return self.columns[key]

    def get(self, row: int, col: int):
        value = self.columns[col][row]
        return value.item() if hasattr(value, "item") else value

    def set(self, row: int, col: int, value) -> None:
        self.columns[col][row] = value

    def row(self, index: int) -> list:
        return [self.get(index, j) for j in range(self.num_cols)]

    # --- structural operations --------------------------------------------------------------

    def select_columns(self, keys: Sequence) -> "Frame":
        positions = []
        for key in keys:
            positions.append(self.names.index(key) if isinstance(key, str) else key)
        return Frame(
            [self.columns[p].copy() for p in positions],
            [self.schema[p] for p in positions],
            [self.names[p] for p in positions],
        )

    def slice_rows(self, start: int, stop: int) -> "Frame":
        return Frame([col[start:stop].copy() for col in self.columns], self.schema, self.names)

    def filter_rows(self, mask: np.ndarray) -> "Frame":
        mask = np.asarray(mask, dtype=bool)
        return Frame([col[mask] for col in self.columns], self.schema, self.names)

    def rbind(self, other: "Frame") -> "Frame":
        if self.schema != other.schema:
            raise ValueError("rbind requires identical schemas")
        columns = [np.concatenate([a, b]) for a, b in zip(self.columns, other.columns)]
        return Frame(columns, self.schema, self.names)

    def cbind(self, other: "Frame") -> "Frame":
        if self.num_rows != other.num_rows:
            raise ValueError("cbind requires identical row counts")
        names = self.names + [
            name if name not in self.names else f"{name}_r" for name in other.names
        ]
        columns = [col.copy() for col in self.columns + other.columns]
        return Frame(columns, self.schema + other.schema, names)

    def copy(self) -> "Frame":
        return Frame([col.copy() for col in self.columns], self.schema, self.names)

    # --- conversion ------------------------------------------------------------------------------

    def to_matrix(self) -> BasicTensorBlock:
        """All-numeric frames as an FP64 matrix block."""
        data = np.empty((self.num_rows, self.num_cols), dtype=np.float64)
        for j, column in enumerate(self.columns):
            try:  # only a string column can fail
                data[:, j] = column.astype(np.float64)
            except (TypeError, ValueError):
                raise ValueError(
                    f"column {self.names[j]!r} is not numeric; apply a transform first"
                ) from None
        return BasicTensorBlock.from_numpy(data)

    @classmethod
    def from_matrix(cls, block: BasicTensorBlock, names: Optional[Sequence[str]] = None) -> "Frame":
        data = block.to_numpy()
        if data.ndim != 2:
            raise ValueError("from_matrix requires a 2D block")
        columns = [data[:, j].copy() for j in range(data.shape[1])]
        schema = [block.value_type] * data.shape[1]
        return cls(columns, schema, names)

    def equals(self, other: "Frame") -> bool:
        if self.shape != other.shape or self.schema != other.schema:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{n}:{vt.value}" for n, vt in zip(self.names[:6], self.schema[:6]))
        suffix = ", ..." if self.num_cols > 6 else ""
        return f"Frame({self.num_rows}x{self.num_cols}; {cols}{suffix})"
