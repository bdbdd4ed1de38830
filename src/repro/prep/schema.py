"""Schema detection for raw frames (paper section 3.2).

``detect_schema`` infers the tightest value type (boolean < int < double
< string) of every string-typed frame column, returned as a 1 x ncol
frame of type names (``ValueType`` member names) — the shape SystemDS'
``detectSchema`` builtin uses, so the result can drive ``applySchema``-style
casts.  Both functions type and convert cells with the CSV frame reader's
own column functions and NA strings, so a column gets the same type from
a file as from a frame.
"""

from __future__ import annotations

import numpy as np

from repro.io.csv import convert_column, infer_column
from repro.tensor import Frame
from repro.types import ValueType


def detect_schema(frame: Frame) -> Frame:
    """The inferred schema of a frame as a 1 x ncol frame of type names."""
    names = [
        (infer_column(column)[0] if declared == ValueType.STRING else declared).name
        for column, declared in zip(frame.columns, frame.schema)
    ]
    return Frame(
        [np.asarray([name], dtype=object) for name in names],
        [ValueType.STRING] * len(names),
        list(frame.names),
    )


def apply_schema(frame: Frame, schema_frame: Frame) -> Frame:
    """Cast a frame's columns to the types named in a detectSchema result."""
    columns = []
    schema = []
    for j, (column, name) in enumerate(zip(frame.columns, frame.names)):
        type_name = str(schema_frame.get(0, j)).upper()
        vt = ValueType.__members__.get(type_name)
        if vt is None or vt == ValueType.UNKNOWN:
            raise ValueError(f"unknown schema type name {type_name!r}")
        columns.append(convert_column(column, vt, name))
        schema.append(vt)
    return Frame(columns, schema, list(frame.names))
