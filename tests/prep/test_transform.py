"""Tests for feature transformations and schema detection."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.prep.schema import apply_schema, detect_schema
from repro.prep.transform import TransformSpec, transform_apply, transform_encode
from repro.tensor import Frame
from repro.types import ValueType


@pytest.fixture
def frame():
    return Frame.from_dict({
        "city": np.asarray(["graz", "wien", "linz", "graz"], dtype=object),
        "age": [22, 35, 48, 61],
        "income": [20.0, 40.0, 60.0, 80.0],
    })


class TestSpecParsing:
    def test_full_spec(self):
        spec = TransformSpec.parse(
            '{"recode": ["a"], "dummycode": ["b"], '
            '"bin": [{"name": "c", "numbins": 3}], '
            '"hash": [{"name": "d", "num_features": 8}]}'
        )
        assert spec.recode == ["a"]
        assert spec.dummycode == ["b"]
        assert spec.bins[0]["numbins"] == 3

    def test_empty_spec(self):
        spec = TransformSpec.parse("")
        assert spec.recode == []

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            TransformSpec.parse("{nope")

    def test_roundtrip_json(self):
        spec = TransformSpec.parse('{"recode": ["x"]}')
        assert TransformSpec.parse(spec.to_json()).recode == ["x"]


class TestRecode:
    def test_dense_codes(self, frame):
        matrix, __ = transform_encode(frame, '{"recode": ["city"]}')
        codes = matrix.to_numpy()[:, 0]
        # sorted distinct: graz=1, linz=2, wien=3
        np.testing.assert_array_equal(codes, [1, 3, 2, 1])

    def test_apply_consistent(self, frame):
        __, meta = transform_encode(frame, '{"recode": ["city"]}')
        new = Frame.from_dict({
            "city": np.asarray(["wien", "graz"], dtype=object),
            "age": [30, 40],
            "income": [1.0, 2.0],
        })
        encoded = transform_apply(new, meta)
        np.testing.assert_array_equal(encoded.to_numpy()[:, 0], [3, 1])

    def test_unseen_category_becomes_zero(self, frame):
        __, meta = transform_encode(frame, '{"recode": ["city"]}')
        new = Frame.from_dict({
            "city": np.asarray(["paris"], dtype=object),
            "age": [1], "income": [1.0],
        })
        assert transform_apply(new, meta).to_numpy()[0, 0] == 0


class TestDummyCode:
    def test_one_hot(self, frame):
        matrix, __ = transform_encode(frame, '{"recode": ["city"], "dummycode": ["city"]}')
        onehot = matrix.to_numpy()[:, :3]
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(onehot[0], onehot[3])  # both graz

    def test_domain_fixed_at_fit(self, frame):
        __, meta = transform_encode(frame, '{"recode": ["city"], "dummycode": ["city"]}')
        new = Frame.from_dict({
            "city": np.asarray(["salzburg"], dtype=object),
            "age": [1], "income": [1.0],
        })
        encoded = transform_apply(new, meta)
        # unseen category: all-zero one-hot block, domain width unchanged
        assert encoded.to_numpy()[0, :3].sum() == 0


class TestBinning:
    def test_equi_width(self, frame):
        spec = '{"recode": ["city"], "bin": [{"name": "age", "method": "equi-width", "numbins": 2}]}'
        matrix, __ = transform_encode(frame, spec)
        bins = matrix.to_numpy()[:, 1]
        np.testing.assert_array_equal(bins, [1, 1, 2, 2])

    def test_equi_height(self, frame):
        spec = '{"recode": ["city"], "bin": [{"name": "income", "method": "equi-height", "numbins": 4}]}'
        matrix, __ = transform_encode(frame, spec)
        bins = matrix.to_numpy()[:, 2]
        assert sorted(set(bins)) == [1, 2, 3, 4]

    def test_out_of_range_clamped_at_apply(self, frame):
        spec = '{"recode": ["city"], "bin": [{"name": "age", "numbins": 2}]}'
        __, meta = transform_encode(frame, spec)
        new = Frame.from_dict({
            "city": np.asarray(["graz"], dtype=object),
            "age": [1000], "income": [0.0],
        })
        assert transform_apply(new, meta).to_numpy()[0, 1] == 2  # top bin

    def test_unknown_method_rejected(self, frame):
        with pytest.raises(ValidationError, match="binning"):
            transform_encode(
                frame,
                '{"recode": ["city"], "bin": [{"name": "age", "method": "magic"}]}',
            )


class TestHashing:
    def test_stateless_hashing(self, frame):
        spec = '{"hash": [{"name": "city", "num_features": 16}]}'
        first, meta = transform_encode(frame, spec)
        second = transform_apply(frame, meta)
        np.testing.assert_array_equal(first.to_numpy(), second.to_numpy())
        assert first.shape == (4, 16 + 2)

    def test_collisions_accumulate(self):
        frame = Frame.from_dict({"k": np.asarray(["a", "a"], dtype=object)})
        matrix, __ = transform_encode(frame, '{"hash": [{"name": "k", "num_features": 4}]}')
        assert matrix.to_numpy().sum() == 2.0


class TestValidation:
    def test_untransformed_string_rejected(self, frame):
        with pytest.raises(ValidationError, match="no transform"):
            transform_encode(frame, "{}")

    def test_apply_without_fit_rejected(self, frame):
        __, meta = transform_encode(frame, '{"recode": ["city"]}')
        # tamper: spec says recode another column that was never fitted
        import json

        raw = json.loads(str(meta.get(0, 0)))
        raw["spec"]["recode"] = ["city"]
        del raw["columns"]["city"]
        tampered = Frame(
            [np.asarray([json.dumps(raw)], dtype=object)],
            [ValueType.STRING], ["transform_meta"],
        )
        with pytest.raises(ValidationError, match="no fitted"):
            transform_apply(frame, tampered)


class TestSchemaDetection:
    def test_detects_types_from_strings(self):
        frame = Frame.from_dict({
            "a": np.asarray(["1", "2", "3"], dtype=object),
            "b": np.asarray(["1.5", "2.5", "x"], dtype=object),
            "c": np.asarray(["TRUE", "FALSE", "TRUE"], dtype=object),
            "d": np.asarray(["0.5", "1.5", "2"], dtype=object),
        })
        schema = detect_schema(frame)
        assert schema.row(0) == ["INT64", "STRING", "BOOLEAN", "FP64"]

    def test_apply_schema_casts(self):
        frame = Frame.from_dict({"a": np.asarray(["1", "2"], dtype=object)})
        detected = detect_schema(frame)
        casted = apply_schema(frame, detected)
        assert casted.schema == [ValueType.INT64]
        np.testing.assert_array_equal(casted.column("a"), [1, 2])

    def test_detect_schema_agrees_with_the_csv_reader(self, tmp_path):
        from repro.io.csv import read_csv_frame

        path = tmp_path / "na.csv"
        path.write_text("x,b\nNA,TRUE\n3,NA\nnull,false\n")
        inferred = read_csv_frame(str(path))
        as_strings = read_csv_frame(str(path), schema=["string", "string"])
        assert inferred.schema == [ValueType.FP64, ValueType.STRING]
        assert detect_schema(as_strings).row(0) == ["FP64", "STRING"]
        casted = apply_schema(as_strings, detect_schema(as_strings))
        assert casted.schema == inferred.schema
        np.testing.assert_array_equal(casted.column("x"), inferred.column("x"))

    def test_non_string_columns_passthrough(self):
        frame = Frame.from_dict({"x": [1.5, 2.5]})
        schema = detect_schema(frame)
        assert schema.row(0) == ["FP64"]
