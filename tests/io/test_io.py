"""Tests for CSV/binary/text readers and writers plus metadata files."""

import json

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import IOFormatError
from repro.io import binary as binary_io
from repro.io import csv as csv_io
from repro.io.mtd import read_mtd, write_mtd
from repro.io.readers import read_any
from repro.io.writers import write_frame, write_matrix
from repro.tensor import BasicTensorBlock, Frame
from repro.types import ValueType


@pytest.fixture
def cfg():
    return ReproConfig(parallelism=4)


class TestCsvMatrix:
    def test_roundtrip(self, tmp_path):
        data = np.random.default_rng(0).random((20, 5))
        path = str(tmp_path / "m.csv")
        csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(data), path)
        back = csv_io.read_csv_matrix(path)
        np.testing.assert_allclose(back.to_numpy(), data)

    def test_parse_is_one_call_and_bit_exact(self, tmp_path, monkeypatch):
        # num_threads used to split the parse over a thread pool, which was
        # slower than one call (no NumPy text parser releases the GIL)
        import concurrent.futures

        def no_threads(*args, **kwargs):
            raise AssertionError("the CSV reader started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
        data = np.random.default_rng(1).standard_normal((5000, 8))
        path = str(tmp_path / "big.csv")
        csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(data), path)
        for num_threads in (1, 4):
            back = csv_io.read_csv_matrix(path, num_threads=num_threads)
            np.testing.assert_array_equal(back.to_numpy(), data)

    def test_trailing_separators_take_the_fallback_bit_exactly(self, tmp_path):
        # lines ending in a separator put empty fields into the flattened
        # text, which np.fromstring rejects: the tokenizer parses instead
        data = np.random.default_rng(2).standard_normal((300, 4))
        lines = [",".join("%.17g" % value for value in row) for row in data]
        path = tmp_path / "trailing.csv"
        path.write_text(lines[0] + "\n" + "".join(f"{line},\n" for line in lines[1:]))
        back = csv_io.read_csv_matrix(str(path), num_threads=2)
        np.testing.assert_array_equal(back.to_numpy(), data)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        block = csv_io.read_csv_matrix(str(path), header=True)
        np.testing.assert_array_equal(block.to_numpy(), [[1, 2], [3, 4]])

    def test_custom_separator(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("1.0;2.0\n3.0;4.0\n")
        block = csv_io.read_csv_matrix(str(path), sep=";")
        np.testing.assert_array_equal(block.to_numpy(), [[1, 2], [3, 4]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert csv_io.read_csv_matrix(str(path)).size == 0


class TestCsvFrame:
    def test_schema_inference(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,name,score,flag\n1,anna,2.5,TRUE\n2,bert,3.5,FALSE\n")
        frame = csv_io.read_csv_frame(str(path))
        assert frame.schema == [ValueType.INT64, ValueType.STRING,
                                ValueType.FP64, ValueType.BOOLEAN]
        assert frame.get(1, 1) == "bert"

    def test_declared_schema_overrides(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x\n1\n2\n")
        frame = csv_io.read_csv_frame(str(path), schema=["double"])
        assert frame.schema == [ValueType.FP64]

    def test_na_values_become_nan(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x\n1.5\nNA\n2.5\n")
        frame = csv_io.read_csv_frame(str(path))
        assert np.isnan(frame.column("x")[1])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(IOFormatError, match="ragged"):
            csv_io.read_csv_frame(str(path))

    def test_frame_roundtrip(self, tmp_path):
        frame = Frame.from_dict({
            "name": np.asarray(["x", "y"], dtype=object),
            "value": [1.5, 2.5],
            "ok": [True, False],
        })
        path = str(tmp_path / "frame.csv")
        csv_io.write_csv_frame(frame, path)
        back = csv_io.read_csv_frame(path)
        assert back.names == frame.names
        np.testing.assert_allclose(back.column("value"), [1.5, 2.5])
        assert list(back.column("ok")) == [True, False]


class TestBinary:
    def test_dense_roundtrip(self, tmp_path):
        data = np.random.default_rng(2).random((30, 7))
        path = str(tmp_path / "m.bin")
        binary_io.write_binary_matrix(BasicTensorBlock.from_numpy(data), path)
        back = binary_io.read_binary_matrix(path)
        np.testing.assert_array_equal(back.to_numpy(), data)

    def test_sparse_roundtrip_stays_sparse(self, tmp_path):
        block = BasicTensorBlock.rand((100, 100), sparsity=0.05, seed=1)
        path = str(tmp_path / "s.bin")
        binary_io.write_binary_matrix(block, path)
        back = binary_io.read_binary_matrix(path)
        assert back.is_sparse
        np.testing.assert_allclose(back.to_numpy(), block.to_numpy())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(IOFormatError, match="not a repro binary"):
            binary_io.read_binary_matrix(str(path))


class TestMtd:
    def test_write_read(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_mtd(path, 10, 5, 42, format_name="csv")
        meta = read_mtd(path)
        assert meta["rows"] == 10
        assert meta["nnz"] == 42

    def test_absent_returns_none(self, tmp_path):
        assert read_mtd(str(tmp_path / "nope.csv")) is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "data.csv.mtd"
        path.write_text("{not json")
        with pytest.raises(IOFormatError, match="malformed"):
            read_mtd(str(tmp_path / "data.csv"))


class TestFacades:
    def test_write_matrix_emits_mtd(self, tmp_path, cfg):
        data = np.ones((4, 3))
        path = str(tmp_path / "out.csv")
        write_matrix(BasicTensorBlock.from_numpy(data), path, {})
        meta = read_mtd(path)
        assert (meta["rows"], meta["cols"]) == (4, 3)
        back = read_any(path, {}, cfg)
        np.testing.assert_array_equal(back.to_numpy(), data)

    def test_format_from_mtd(self, tmp_path, cfg):
        data = np.random.default_rng(3).random((10, 4))
        path = str(tmp_path / "out.dat")
        write_matrix(BasicTensorBlock.from_numpy(data), path, {"format": "binary"})
        back = read_any(path, {}, cfg)  # format discovered via .mtd
        np.testing.assert_array_equal(back.to_numpy(), data)

    def test_text_cell_roundtrip(self, tmp_path, cfg):
        block = BasicTensorBlock.rand((20, 20), sparsity=0.2, seed=2)
        path = str(tmp_path / "cells.ijv")
        write_matrix(block, path, {"format": "text"})
        back = read_any(path, {}, cfg)
        np.testing.assert_allclose(back.to_numpy(), block.to_numpy())

    def test_frame_roundtrip_via_facade(self, tmp_path, cfg):
        frame = Frame.from_dict({"a": [1, 2], "b": np.asarray(["x", "y"], dtype=object)})
        path = str(tmp_path / "frame.csv")
        write_frame(frame, path, {})
        back = read_any(path, {}, cfg)
        assert isinstance(back, Frame)
        assert back.schema == frame.schema  # schema persisted in .mtd

    def test_missing_file_rejected(self, cfg):
        with pytest.raises(IOFormatError, match="not found"):
            read_any("/nonexistent/file.csv", {}, cfg)


class TestDmlReadWrite:
    def test_script_roundtrip(self, tmp_path):
        from repro.api.mlcontext import MLContext

        data = np.random.default_rng(5).random((25, 4))
        src_path = str(tmp_path / "in.csv")
        dst_path = str(tmp_path / "out.csv")
        csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(data), src_path)
        ml = MLContext()
        ml.execute(
            f'X = read("{src_path}")\nwrite(X * 2, "{dst_path}", format="csv")'
        )
        back = csv_io.read_csv_matrix(dst_path)
        np.testing.assert_allclose(back.to_numpy(), data * 2)

    def test_mtd_enables_compile_time_sizes(self, tmp_path):
        from repro.compiler.compile import compile_script

        data = np.ones((8, 3))
        path = str(tmp_path / "in.csv")
        csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(data), path)
        write_mtd(path, 8, 3, 24)
        program = compile_script(f'X = read("{path}")\nZ = t(X) %*% X', outputs=["Z"])
        assert not program.blocks[0].requires_recompile
