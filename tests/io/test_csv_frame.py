"""Differential tests of the columnar CSV frame reader.

The reference is the original per-cell reader, kept here verbatim in
behaviour: it splits every line, builds one object array per column and
calls ``float`` per cell, once to type the column and once to convert it.
The columnar reader must produce the same frame — names, schema, dtypes
and values, floats compared by bit pattern (so NaN equals NaN and -0.0
differs from 0.0) — and raise the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IOFormatError
from repro.io import csv as csv_io
from repro.prep.schema import apply_schema, detect_schema
from repro.tensor import Frame
from repro.types import ValueType


# --- the reference reader ------------------------------------------------------


def reference_read(path, sep=",", header=True, schema=None, na_strings=("", "NA", "null")):
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
        vt = (csv_io._schema_value_type(declared) if declared
              else _reference_infer(column, na_strings))
        value_types.append(vt)
        columns.append(_reference_convert(column, vt, na_strings))
    return Frame(columns, value_types, names)


def _reference_infer(column, na_strings):
    is_int = is_float = is_bool = True
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


def _reference_convert(column, value_type, na_strings):
    if value_type == ValueType.STRING:
        return column
    if value_type == ValueType.BOOLEAN:
        return np.asarray([str(v).strip().lower() == "true" for v in column])

    def parse(value):
        text = str(value).strip()
        return np.nan if text in na_strings else float(text)

    floats = np.asarray([parse(v) for v in column], dtype=np.float64)
    if value_type in (ValueType.INT32, ValueType.INT64) and not np.any(np.isnan(floats)):
        return floats.astype(value_type.numpy_dtype)
    return floats


# --- comparison ------------------------------------------------------------------


def assert_same_frame(got: Frame, want: Frame) -> None:
    assert got.names == want.names
    assert got.schema == want.schema
    assert len(got.columns) == len(want.columns)
    for name, a, b in zip(want.names, got.columns, want.columns):
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "f":
            bits = f"u{a.itemsize}"
            np.testing.assert_array_equal(a.view(bits), b.view(bits), err_msg=name)
        else:
            assert [type(v) for v in a.tolist()] == [type(v) for v in b.tolist()], name
            assert a.tolist() == b.tolist(), name


def read_both(tmp_path, text, **kwargs):
    path = tmp_path / "data.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    outcomes = []
    for reader in (csv_io.read_csv_frame, reference_read):
        try:
            outcomes.append(reader(str(path), **kwargs))
        except (IOFormatError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def check(tmp_path, text, **kwargs):
    got, want = read_both(tmp_path, text, **kwargs)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert_same_frame(got, want)
    return got


# --- the corpus ------------------------------------------------------------------


CORPUS = {
    # NA cells and where they sit
    "na_first_row": ("x,y\nNA,1\n2.5,2\n3.5,3\n", {}),
    "na_middle_row": ("x,y\n1.5,a\nnull,b\n2,c\n", {}),
    "na_last_row": ("x,y\n1,a\n2,b\n,c\n", {}),
    "na_only_column": ("a,b\nNA,1\n,2\nnull,3\n", {}),
    "custom_na": ("a,b\n1,missing\nmissing,2\n", {"na_strings": ("missing",)}),
    "na_that_looks_boolean": ("b\nTRUE\nfalse\n", {"na_strings": ("TRUE",)}),
    # booleans
    "booleans": ("b\nTRUE\nfalse\ntrue\nFALSE\n", {}),
    "booleans_with_na": ("b,c\nTRUE,1\nNA,2\nfalse,3\n", {}),
    "booleans_with_numbers": ("b\nTRUE\n1\n", {}),
    "capitalised_true_is_text": ("b\nTrue\nFalse\n", {}),
    # integers versus doubles
    "ints": ("i\n1\n-2\n+3\n0\n", {}),
    "ints_with_na_stay_doubles": ("i,j\n1,x\n,y\n3,z\n", {}),
    "exponents": ("a,b,c\n1e3,1E3,2\n2,3,4e0\n", {}),
    "negative_zero": ("z\n-0\n0\n", {}),
    "negative_zero_double": ("z\n-0.0\n1.5\n", {}),
    "inf_and_nan_text": ("a,b,c\ninf,nan,-inf\n1,2,3\n", {}),
    "underscores": ("u\n1_000\n2_000_000\n", {}),
    "decimal_point_integral": ("d\n2.\n3\n", {}),
    "hex_is_text": ("h\n0x10\n1\n", {}),
    "huge_integers": ("h\n12345678901234567\n1\n", {}),
    "mixed_text": ("m\n1\n2\nabc\n", {}),
    # whitespace and line structure
    "spaces": ("a, b ,c\n 1 , x ,TRUE \n2,  y,false\n", {}),
    "spaced_na": ("a,b\n NA ,1\n2, \n", {}),
    "crlf": ("a,b\r\n1,x\r\n2,y\r\n", {}),
    "bare_cr": ("a,b\r1,x\r2,y\r", {}),
    "blank_lines": ("a,b\n\n1,x\n   \n2,y\n\n\n", {}),
    "no_final_newline": ("a,b\n1,x\n2,y", {}),
    "tabs": ("a\tb\n1\t x\n2\ty \n", {"sep": "\t"}),
    "form_feed": ("a,b\n\x0c1,x\n2,y\x0c\n", {}),
    "non_ascii_space": ("a,b,c\n\xa01\xa0,\xe9,\u2003TRUE\n\u2009NA,\xfc,false\n", {}),
    "non_ascii_text": ("a,b\n1,Größe\n2,日本\n", {}),
    # shapes, headers and declared schemas
    "empty_file": ("", {}),
    "blank_file": ("\n  \n\n", {}),
    "header_only": ("a,b,c\n", {}),
    "header_only_declared": ("a,b,c\n", {"schema": ["int", "string", "double"]}),
    "no_header": ("1,x\n2,y\n", {"header": False}),
    "no_header_single_line": ("1.5,TRUE\n", {"header": False}),
    "single_column": ("v\n1\n2\n3\n", {}),
    "declared": ("a,b,c,d\n1,2,TRUE,x\n3,4,no,y\n",
                 {"schema": ["string", "double", "boolean", "string"]}),
    "declared_ints": ("a,b\n1,7\n2,-8\n", {"schema": ["int", "int32"]}),
    "declared_floats": ("a,b\n1.25,NA\n2,3\n", {"schema": ["fp32", "fp64"]}),
    "declared_booleans_any_case": ("a\nTrue\n tRuE \nyes\nFALSE\n", {"schema": ["boolean"]}),
    "declared_partial": ("a,b,c\n1,2,3\n4,5,6\n", {"schema": ["", "string"]}),
    "declared_case_and_spaces": ("a\n1\n", {"schema": [" Double "]}),
    "semicolons": ("a;b\n1;x,y\n2;z\n", {"sep": ";"}),
    "multi_char_separator": ("a::b\n1::x:\n2::y\n", {"sep": "::"}),
    # errors
    "ragged_short_row": ("a,b\n1,2\n3\n", {}),
    "ragged_long_row": ("1,2\n3,4\n5,6,7\n", {"header": False}),
    "header_wider_than_rows": ("a,b,c\n1,2\n3,4\n", {}),
    "declared_double_with_text": ("a\n1\nx\n", {"schema": ["double"]}),
    "empty_separator": ("1,2\n3,4\n", {"sep": "", "header": False}),
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_matches_the_reference_reader(tmp_path, case):
    text, kwargs = CORPUS[case]
    check(tmp_path, text, **kwargs)


# --- generated tables ------------------------------------------------------------

# cell pools per column flavour; a column draws from one pool, sometimes
# with NA cells mixed in, so every branch of the type lattice is hit often
_POOLS = {
    "int": ["0", "1", "-0", "42", "+7", "1_000", " 3 ", "007"],
    "double": ["1.5", "-2.25", "1e3", "1E-2", "2.", ".5", "inf", "nan", "-inf", "3"],
    "bool": ["TRUE", "FALSE", "true", "false", " TRUE"],
    "text": ["abc", "True", "x y", "0x1f", "é", "1.2.3", " pad "],
}
_NA = ["", "NA", "null", " NA "]


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 8))
    columns = []
    for _ in range(n_cols):
        flavours = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1, max_size=2))
        pool = [cell for flavour in flavours for cell in _POOLS[flavour]]
        if draw(st.booleans()):
            pool += _NA
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
    rows = [",".join(column[i] for column in columns) for i in range(n_rows)]
    header = draw(st.booleans())
    if header:
        rows.insert(0, ",".join(f"c{j}" for j in range(n_cols)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sampled_from(["", "\n", " \n"]))
    text = blank.join(row + newline for row in rows)
    return text, header, n_cols


@given(table=tables())
@settings(max_examples=150, deadline=None)
def test_generated_tables_match_the_reference(tmp_path_factory, table):
    text, header, n_cols = table
    frame = check(tmp_path_factory.mktemp("gen"), text, header=header)
    if isinstance(frame, Frame) and frame.num_rows:
        # detectSchema over the same cells read as strings agrees with the reader
        as_strings = check(tmp_path_factory.mktemp("str"), text, header=header,
                           schema=["string"] * n_cols)
        assert detect_schema(as_strings).row(0) == [vt.name for vt in frame.schema]


# --- declared integer columns with missing cells -------------------------------------


@pytest.mark.parametrize("text, declared, message", [
    ("a,b\n1,x\n,y\n", "int", "column 'a' is declared int64 but data row 2 "),
    # the header and the blank line are not data rows: the empty cell is
    # on line 5 of the file and in the third data row
    ("a,b\n1,x\n\n2,y\n,z\n", "int32", "column 'a' is declared int32 but data row 3 "),
])
def test_declared_int_column_with_a_missing_cell_is_rejected(tmp_path, text, declared, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(IOFormatError, match=message):
        csv_io.read_csv_frame(str(path), schema=[declared, "string"])


def test_apply_schema_rejects_a_missing_cell_in_an_int_column():
    frame = Frame.from_dict({"n": np.asarray(["1", "NA", "3"], dtype=object)})
    schema = Frame([np.asarray(["INT64"], dtype=object)], [ValueType.STRING], ["n"])
    with pytest.raises(IOFormatError, match=r"column 'n' .* data row 2 "):
        apply_schema(frame, schema)
