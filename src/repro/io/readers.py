"""Reader facade used by the ``read()`` instruction.

Resolves the file format from explicit parameters, ``.mtd`` metadata, or
the file extension, and dispatches to the concrete reader.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple, Union

from repro.config import ReproConfig
from repro.errors import IOFormatError
from repro.io import binary as binary_io
from repro.io import csv as csv_io
from repro.io.mtd import read_mtd
from repro.runtime.data import ScalarObject
from repro.tensor import BasicTensorBlock, Frame


def _param_str(params: Dict, name: str, default: str) -> str:
    value = params.get(name)
    if value is None:
        return default
    if isinstance(value, ScalarObject):
        return value.as_string()
    return str(value)


def _param_bool(params: Dict, name: str, default: bool) -> bool:
    value = params.get(name)
    if value is None:
        return default
    if isinstance(value, ScalarObject):
        return value.as_bool()
    return bool(value)


def read_format(path: str, params: Dict) -> Tuple[str, str, Dict]:
    """The (format, data type, ``.mtd`` metadata) a read of ``path`` resolves to."""
    meta = read_mtd(path) or {}
    format_name = _param_str(params, "format", meta.get("format", _format_from_extension(path)))
    data_type = _param_str(params, "data_type", meta.get("data_type", "matrix"))
    return format_name, data_type, meta


def read_any(path: str, params: Dict, config: ReproConfig) -> Union[BasicTensorBlock, Frame]:
    """Read a matrix or frame, resolving format and schema metadata."""
    if not os.path.exists(path):
        raise IOFormatError(f"input file not found: {path}")
    format_name, data_type, meta = read_format(path, params)
    header = _param_bool(params, "header", bool(meta.get("header", False)))
    sep = _param_str(params, "sep", ",")
    if data_type == "frame":
        if format_name != "csv":
            raise IOFormatError(f"frames support csv only, not {format_name!r}")
        schema = meta.get("schema")
        return csv_io.read_csv_frame(path, sep=sep, header=header, schema=schema)
    if format_name == "csv":
        return csv_io.read_csv_matrix(
            path, sep=sep, header=header, num_threads=config.parallelism
        )
    if format_name == "binary":
        return binary_io.read_binary_matrix(path)
    if format_name == "text":
        return _read_text_cells(path)
    raise IOFormatError(f"unknown format {format_name!r}")


def _format_from_extension(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith((".bin", ".binary")):
        return "binary"
    if lowered.endswith((".ijv", ".mtx", ".text")):
        return "text"
    return "csv"


def _read_text_cells(path: str) -> BasicTensorBlock:
    """Read i,j,v text cells (1-based indices, one triple per line)."""
    import numpy as np
    import scipy.sparse as sp

    if os.path.getsize(path) == 0:
        # an all-zero matrix writes an empty cell file
        return BasicTensorBlock.from_numpy(np.zeros((1, 1)))
    triples = np.loadtxt(path, ndmin=2)
    if triples.size == 0:
        return BasicTensorBlock.from_numpy(np.zeros((1, 1)))
    rows = triples[:, 0].astype(int) - 1
    cols = triples[:, 1].astype(int) - 1
    values = triples[:, 2]
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    return BasicTensorBlock.from_scipy(
        sp.csr_matrix((values, (rows, cols)), shape=shape)
    )
