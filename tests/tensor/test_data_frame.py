"""Unit tests for DataTensorBlock (heterogeneous tensors) and Frame."""

import numpy as np
import pytest

from repro.tensor import DataTensorBlock, Frame
from repro.tensor.data import _column_groups
from repro.types import ValueType

VT = ValueType


class TestColumnGroups:
    def test_single_type(self):
        assert _column_groups([VT.FP64, VT.FP64]) == [(0, 2, VT.FP64)]

    def test_alternating(self):
        groups = _column_groups([VT.FP64, VT.STRING, VT.FP64])
        assert groups == [(0, 1, VT.FP64), (1, 2, VT.STRING), (2, 3, VT.FP64)]

    def test_runs_merged(self):
        groups = _column_groups([VT.INT64, VT.INT64, VT.FP64, VT.FP64, VT.FP64])
        assert groups == [(0, 2, VT.INT64), (2, 5, VT.FP64)]


class TestDataTensorBlock:
    def _heterogeneous(self):
        return DataTensorBlock.from_columns(
            [
                np.asarray([1.0, 2.0, 3.0]),
                np.asarray([10, 20, 30]),
                np.asarray(["a", "b", "c"], dtype=object),
                np.asarray([0.5, 0.6, 0.7]),
            ],
            [VT.FP64, VT.INT64, VT.STRING, VT.FP64],
        )

    def test_shape_and_schema(self):
        dt = self._heterogeneous()
        assert dt.shape == (3, 4)
        assert dt.schema == [VT.FP64, VT.INT64, VT.STRING, VT.FP64]
        assert len(dt.blocks) == 4  # four maximal runs

    def test_get_respects_types(self):
        dt = self._heterogeneous()
        assert dt.get((0, 0)) == 1.0
        assert dt.get((1, 1)) == 20
        assert dt.get((2, 2)) == "c"
        assert dt.get((2, 3)) == pytest.approx(0.7)

    def test_set(self):
        dt = self._heterogeneous()
        dt.set((0, 2), "z")
        assert dt.get((0, 2)) == "z"

    def test_column_projection(self):
        dt = self._heterogeneous()
        col = dt.column(3)
        assert col.shape == (3, 1)
        np.testing.assert_allclose(col.to_numpy()[:, 0], [0.5, 0.6, 0.7])

    def test_numeric_view_excludes_strings(self):
        dt = self._heterogeneous()
        numeric = dt.numeric_view()
        assert numeric.shape == (3, 3)

    def test_numeric_view_all_strings_rejected(self):
        dt = DataTensorBlock.from_columns(
            [np.asarray(["x", "y"], dtype=object)], [VT.STRING]
        )
        with pytest.raises(ValueError, match="numeric"):
            dt.numeric_view()

    def test_zeros_3d(self):
        dt = DataTensorBlock.zeros((2, 3, 4), [VT.FP64, VT.INT64, VT.FP64])
        assert dt.shape == (2, 3, 4)
        assert dt.get((0, 1, 2)) == 0

    def test_slice_rows(self):
        dt = self._heterogeneous()
        sliced = dt.slice_rows(1, 3)
        assert sliced.shape == (2, 4)
        assert sliced.get((0, 2)) == "b"

    def test_schema_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            DataTensorBlock.zeros((2, 3), [VT.FP64, VT.FP64])

    def test_equals(self):
        assert self._heterogeneous().equals(self._heterogeneous())

    def test_memory_size_positive(self):
        assert self._heterogeneous().memory_size() > 0


class TestFrame:
    def _frame(self):
        return Frame.from_dict(
            {
                "age": [25, 32, 41, 19],
                "city": np.asarray(["graz", "wien", "graz", "linz"], dtype=object),
                "income": [30.0, 55.5, 62.0, 18.0],
            }
        )

    def test_inference(self):
        f = self._frame()
        assert f.schema == [VT.INT64, VT.STRING, VT.FP64]
        assert f.names == ["age", "city", "income"]
        assert f.shape == (4, 3)

    def test_column_by_name_and_index(self):
        f = self._frame()
        np.testing.assert_array_equal(f.column("age"), f.column(0))

    def test_missing_column_raises_keyerror(self):
        with pytest.raises(KeyError, match="missing"):
            self._frame().column("missing")

    def test_get_set(self):
        f = self._frame()
        f.set(0, 1, "salzburg")
        assert f.get(0, 1) == "salzburg"

    def test_select_columns(self):
        f = self._frame().select_columns(["income", "age"])
        assert f.names == ["income", "age"]
        assert f.schema == [VT.FP64, VT.INT64]

    def test_slice_and_filter_rows(self):
        f = self._frame()
        assert f.slice_rows(1, 3).num_rows == 2
        filtered = f.filter_rows(np.asarray([True, False, True, False]))
        np.testing.assert_array_equal(filtered.column("age"), [25, 41])

    def test_derived_frames_own_their_columns(self):
        f = self._frame()
        for derived in (f.slice_rows(0, 2), f.cbind(f.select_columns(["age"]))):
            derived.set(0, 0, 99)
            derived.set(0, 1, "salzburg")
        assert f.row(0) == [25, "graz", 30.0]

    def test_memory_size_counts_string_cells_by_their_text(self):
        for cells in (["ab", "7"], ["ab", 7]):  # a non-str cell counts as its str()
            f = Frame([np.asarray([1.0, 2.0]), np.asarray(cells, dtype=object)],
                      [VT.FP64, VT.STRING])
            assert f.memory_size() == 16 + (2 + 8) + (1 + 8)

    def test_rbind(self):
        f = self._frame()
        combined = f.rbind(f)
        assert combined.num_rows == 8

    def test_rbind_schema_mismatch(self):
        f = self._frame()
        with pytest.raises(ValueError, match="rbind"):
            f.rbind(f.select_columns(["age"]))

    def test_cbind_renames_duplicates(self):
        f = self._frame()
        combined = f.cbind(f.select_columns(["age"]))
        assert combined.names[-1] == "age_r"

    def test_to_matrix_numeric(self):
        f = self._frame().select_columns(["age", "income"])
        m = f.to_matrix()
        assert m.shape == (4, 2)
        np.testing.assert_allclose(m.to_numpy()[:, 0], [25, 32, 41, 19])

    def test_to_matrix_rejects_strings(self):
        with pytest.raises(ValueError, match="not numeric"):
            self._frame().to_matrix()

    def test_to_matrix_parses_numeric_strings(self):
        f = Frame.from_dict({"x": np.asarray(["1.5", "2.5"], dtype=object)})
        np.testing.assert_allclose(f.to_matrix().to_numpy()[:, 0], [1.5, 2.5])

    def test_from_matrix_roundtrip(self):
        f = self._frame().select_columns(["income"])
        m = f.to_matrix()
        back = Frame.from_matrix(m, names=["income"])
        np.testing.assert_allclose(back.column("income"), f.column("income"))

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Frame([np.asarray([1, 2]), np.asarray([1])], [VT.INT64, VT.INT64])

    def test_from_rows(self):
        f = Frame.from_rows([[1, "a"], [2, "b"]], [VT.INT64, VT.STRING], ["id", "tag"])
        assert f.get(1, 1) == "b"

    def test_equals_and_copy(self):
        f = self._frame()
        clone = f.copy()
        assert f.equals(clone)
        clone.set(0, 0, 99)
        assert not f.equals(clone)
