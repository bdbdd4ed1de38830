"""CSV reading and writing.

The numeric reader parses the whole file with one vectorised
string-to-double call.  String-to-double conversion is compute-intensive
(the paper's explanation for SysDS beating TF/Julia at k=1), but no NumPy
text parser releases the GIL, so chunks parsed on threads only contend:
with two parser threads the benchmark's ``modelsel_reuse`` pass (one
8000x128 read) took 1.4 s, with this single call it takes 0.5 s.
"""

from __future__ import annotations

import io
import warnings
from typing import Optional, Sequence

from repro.io.atomic import atomic_open

import numpy as np

from repro.errors import IOFormatError
from repro.tensor import BasicTensorBlock, Frame
from repro.types import ValueType


def _parse_numeric(text: str, sep: str, cols: int) -> np.ndarray:
    """Vectorised parse of newline-delimited numeric text."""
    flat = text.replace("\n", sep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(flat, dtype=np.float64, sep=sep)  # noqa: NPY201
        except (ValueError, AttributeError):
            values = None
    if values is None or values.size % cols != 0:
        # robust fallback (handles trailing separators and blanks)
        tokens = [t for t in flat.split(sep) if t.strip() != ""]
        values = np.asarray(tokens, dtype=np.float64)
    if values.size % cols != 0:
        raise IOFormatError(
            f"CSV value count {values.size} is not a multiple of {cols} columns"
        )
    return values.reshape(-1, cols)


def read_csv_matrix(
    path: str,
    sep: str = ",",
    header: bool = False,
    num_threads: int = 1,
) -> BasicTensorBlock:
    """Read a dense numeric CSV into a tensor block.

    ``num_threads`` is accepted for the callers that pass it and selects
    nothing: the parse is one call (see the module docstring).
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if header:
        newline = text.find("\n")
        text = text[newline + 1 :] if newline >= 0 else ""
    text = text.strip("\n")
    if not text:
        return BasicTensorBlock.from_numpy(np.zeros((0, 0)))
    first_line = text.split("\n", 1)[0]
    cols = first_line.count(sep) + 1
    return BasicTensorBlock.from_numpy(_parse_numeric(text, sep, cols))


def write_csv_matrix(block: BasicTensorBlock, path: str, sep: str = ",") -> None:
    data = block.to_numpy()
    if data.ndim != 2:
        raise IOFormatError("CSV writer requires a 2D block")
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        buffer = io.StringIO()
        np.savetxt(buffer, data, delimiter=sep, fmt="%.17g")
        handle.write(buffer.getvalue())


def read_csv_frame(
    path: str,
    sep: str = ",",
    header: bool = True,
    schema: Optional[Sequence[str]] = None,
    na_strings: Sequence[str] = ("", "NA", "null"),
) -> Frame:
    """Read a heterogeneous CSV into a frame with schema inference."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n").rstrip("\r") for line in handle if line.strip() != ""]
    if not lines:
        return Frame([], [])
    names = None
    if header:
        names = [name.strip() for name in lines[0].split(sep)]
        lines = lines[1:]
    rows = [line.split(sep) for line in lines]
    n_cols = len(rows[0]) if rows else (len(names) if names else 0)
    columns = []
    for row in rows:
        if len(row) != n_cols:
            raise IOFormatError(f"ragged CSV row: expected {n_cols} fields, got {len(row)}")
    raw_columns = [np.asarray([row[j] for row in rows], dtype=object) for j in range(n_cols)]
    value_types = []
    for j, column in enumerate(raw_columns):
        declared = schema[j] if schema is not None and j < len(schema) else None
        vt = _schema_value_type(declared) if declared else _infer_column_type(column, na_strings)
        value_types.append(vt)
        columns.append(_convert_column(column, vt, na_strings))
    return Frame(columns, value_types, names)


def _schema_value_type(name: str) -> ValueType:
    mapping = {
        "double": ValueType.FP64, "fp64": ValueType.FP64, "fp32": ValueType.FP32,
        "int": ValueType.INT64, "int64": ValueType.INT64, "int32": ValueType.INT32,
        "boolean": ValueType.BOOLEAN, "string": ValueType.STRING,
    }
    vt = mapping.get(name.strip().lower())
    if vt is None:
        raise IOFormatError(f"unknown schema type {name!r}")
    return vt


def _infer_column_type(column: np.ndarray, na_strings) -> ValueType:
    is_int = True
    is_float = True
    is_bool = True
    for value in column:
        text = str(value).strip()
        if text in na_strings:
            is_int = is_bool = False
            continue
        if text in ("TRUE", "FALSE", "true", "false"):
            is_int = is_float = False
            continue
        is_bool = False
        try:
            number = float(text)
        except ValueError:
            return ValueType.STRING
        if not number.is_integer() or "." in text or "e" in text.lower():
            is_int = False
    if is_bool:
        return ValueType.BOOLEAN
    if is_int:
        return ValueType.INT64
    if is_float:
        return ValueType.FP64
    return ValueType.STRING


def _convert_column(column: np.ndarray, value_type: ValueType, na_strings) -> np.ndarray:
    if value_type == ValueType.STRING:
        return column
    if value_type == ValueType.BOOLEAN:
        return np.asarray([str(v).strip().lower() == "true" for v in column])
    def parse(value):
        text = str(value).strip()
        if text in na_strings:
            return np.nan
        return float(text)
    floats = np.asarray([parse(v) for v in column], dtype=np.float64)
    if value_type in (ValueType.INT32, ValueType.INT64) and not np.any(np.isnan(floats)):
        return floats.astype(value_type.numpy_dtype)
    return floats


def write_csv_frame(frame: Frame, path: str, sep: str = ",", header: bool = True) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        if header:
            handle.write(sep.join(frame.names) + "\n")
        for i in range(frame.num_rows):
            fields = []
            for j, vt in enumerate(frame.schema):
                value = frame.get(i, j)
                if vt == ValueType.BOOLEAN:
                    fields.append("TRUE" if value else "FALSE")
                else:
                    fields.append(str(value))
            handle.write(sep.join(fields) + "\n")
