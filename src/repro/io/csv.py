"""CSV reading and writing of matrices and frames.

Matrices.  The numeric reader parses the whole file with one vectorised
string-to-double call.  String-to-double conversion is compute-intensive
(the paper's explanation for SysDS beating TF/Julia at k=1), but no NumPy
text parser releases the GIL, so chunks parsed on threads only contend:
with two parser threads the benchmark's ``modelsel_reuse`` pass (one
8000x128 read) took 1.4 s, with this single call it takes 0.5 s.

Frames.  The frame reader splits the text once into one flat field list,
takes one slice per column and types and converts each column with
C-level loops (``map(float, ...)`` into ``np.fromiter``, set and dict
lookups for NA and boolean cells), never a Python statement per cell.
:mod:`repro.prep.schema` types frame columns with the same two functions,
:func:`infer_column` and :func:`convert_column`.
"""

from __future__ import annotations

import io
import warnings
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from repro.io.atomic import atomic_open

import numpy as np

from repro.errors import IOFormatError
from repro.tensor import BasicTensorBlock, Frame
from repro.types import ValueType

#: Cells that read as missing (NaN).
NA_STRINGS = ("", "NA", "null")
_BOOLEANS = frozenset(("TRUE", "FALSE", "true", "false"))
#: ASCII whitespace other than the line break; ``str.strip`` strips these.
_SPACES = "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")


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
    na_strings: Sequence[str] = NA_STRINGS,
) -> Frame:
    """Read a heterogeneous CSV into a frame, inferring undeclared column types.

    Blank lines are skipped; every other line must have as many fields as
    the first data line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    # a file without whitespace besides line breaks has no cell to strip;
    # the check is ~3 ms on a 6 MB file, the strips it skips ~90 ms
    strip = not text.isascii() or any(map(text.__contains__, _SPACES))
    lines = list(filter(str.strip, text.split("\n")))
    del text
    if not lines:
        return Frame([], [])
    names = [name.strip() for name in lines.pop(0).split(sep)] if header else None
    n_cols = len(lines[0].split(sep)) if lines else len(names)
    if len(set(map(str.count, lines, repeat(sep)))) > 1:
        got = next(n for n in map(str.count, lines, repeat(sep)) if n != n_cols - 1) + 1
        raise IOFormatError(f"ragged CSV row: expected {n_cols} fields, got {got}")
    # fields hold no line break, so it can stand in for sep in one split
    fields = "\n".join(lines).replace(sep, "\n").split("\n") if lines else []
    del lines
    columns, value_types = [], []
    for j in range(n_cols):
        cells = fields[j::n_cols]
        declared = schema[j] if schema is not None and j < len(schema) else None
        if declared:
            vt = _schema_value_type(declared)
            name = names[j] if names and j < len(names) else f"C{j + 1}"
            values = convert_column(cells, vt, name, na_strings, strip)
        else:
            vt, values = infer_column(cells, na_strings, strip)
        value_types.append(vt)
        columns.append(values)
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


def infer_column(
    cells: Sequence, na_strings: Sequence[str] = NA_STRINGS, strip: bool = True
) -> Tuple[ValueType, np.ndarray]:
    """The tightest type of a column of cells and the column in that type.

    Boolean if every cell is TRUE/FALSE/true/false (or there is none),
    else int if every cell is an integral number written without ``.``,
    ``e`` or ``E``, else double if every cell is a number or NA (NaN),
    else string, which keeps the cells as they are.  A cell's text is
    ``str(cell).strip()``; ``strip=False`` takes ``str`` cells as their
    own text, for a caller that knows no cell has whitespace to strip.
    """
    # a column is never tighter than its first cell, so a first cell that is
    # text settles the column before the strip pass (detect_schema on a text
    # column of 200 000 cells: ~25 ms without this)
    if strip and len(cells) > 1 and infer_column(cells[:1], na_strings)[0] == ValueType.STRING:
        return ValueType.STRING, np.asarray(cells, dtype=object)
    text = _texts(cells) if strip else cells
    na = frozenset(na_strings)
    if _BOOLEANS.issuperset(text) and na.isdisjoint(text):
        return ValueType.BOOLEAN, _booleans(text)
    try:
        values = _floats(text, na)
    except ValueError:
        return ValueType.STRING, np.asarray(cells, dtype=object)
    if np.isfinite(values).all() and (values == np.trunc(values)).all():
        joined = "".join(text)
        if "." not in joined and "e" not in joined and "E" not in joined:
            return ValueType.INT64, values.astype(np.int64)
    return ValueType.FP64, values


def convert_column(
    cells: Sequence,
    value_type: ValueType,
    name: str,
    na_strings: Sequence[str] = NA_STRINGS,
    strip: bool = True,
) -> np.ndarray:
    """A column of cells in a declared type; cell text as in :func:`infer_column`.

    True is ``true`` in any case; numbers parse with ``float``, and a
    missing value in an integer column is an :class:`IOFormatError`
    naming column ``name`` and the 1-based position of the first missing
    cell among the column's cells ("data row N": for a file, blank lines
    and the header are not counted).
    """
    if value_type == ValueType.STRING:
        return np.array(cells, dtype=object)
    text = _texts(cells) if strip else cells
    if value_type == ValueType.BOOLEAN:
        return _booleans(text)
    values = _floats(text, frozenset(na_strings))
    if value_type in (ValueType.INT32, ValueType.INT64):
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise IOFormatError(
                f"column {name!r} is declared {value_type.value} "
                f"but data row {missing[0] + 1} has no value"
            )
    return values.astype(value_type.numpy_dtype, copy=False)


def _texts(cells: Sequence) -> List[str]:
    """The stripped text of every cell."""
    return list(map(str.strip, map(str, cells)))


def _floats(text: List[str], na: frozenset) -> np.ndarray:
    """``float`` of every cell, NaN for the NA cells."""
    as_nan = dict.fromkeys(na, "nan")
    return np.fromiter(map(float, map(as_nan.get, text, text)), np.float64, len(text))


def _booleans(text: List[str]) -> np.ndarray:
    return np.fromiter(map("true".__eq__, map(str.lower, text)), bool, len(text))


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
