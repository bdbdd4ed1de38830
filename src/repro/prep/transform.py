"""Feature transformations: recode, dummy-code, binning, feature hashing.

``transform_encode`` fits the transformations declared in a JSON spec on a
frame and returns (encoded matrix, metadata frame); ``transform_apply``
re-applies fitted metadata to new data — training/serving consistency with
the metadata travelling as a frame, not hidden state.

Spec format (a JSON object, SystemDS-style)::

    {
      "recode":    ["city"],
      "dummycode": ["city"],
      "bin":   [{"name": "age", "method": "equi-width", "numbins": 5}],
      "hash":  [{"name": "domain", "num_features": 64}]
    }

Unlisted numeric columns pass through unchanged; unlisted string columns
are an error (no silent coercion).
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.tensor import BasicTensorBlock, Frame
from repro.types import ValueType


class TransformSpec:
    """Parsed transformation specification."""

    def __init__(self, recode: List[str], dummycode: List[str],
                 bins: List[dict], hashes: List[dict]):
        self.recode = list(recode)
        self.dummycode = list(dummycode)
        self.bins = list(bins)
        self.hashes = list(hashes)

    @classmethod
    def parse(cls, text: str) -> "TransformSpec":
        if not text.strip():
            return cls([], [], [], [])
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed transform spec: {exc}") from exc
        return cls(
            raw.get("recode", []),
            raw.get("dummycode", []),
            raw.get("bin", []),
            raw.get("hash", []),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "recode": self.recode,
                "dummycode": self.dummycode,
                "bin": self.bins,
                "hash": self.hashes,
            }
        )


def transform_encode(frame: Frame, spec_text: str) -> Tuple[BasicTensorBlock, Frame]:
    """Fit and apply a transform spec; returns (matrix, metadata frame)."""
    spec = TransformSpec.parse(spec_text)
    meta: Dict[str, dict] = {"spec": json.loads(spec.to_json()), "columns": {}}
    columns, names = _encode_columns(frame, spec, meta, fit=True)
    matrix = BasicTensorBlock.from_numpy(np.column_stack(columns)) if columns else \
        BasicTensorBlock.from_numpy(np.zeros((frame.num_rows, 0)))
    meta_frame = _meta_to_frame(meta)
    return matrix, meta_frame


def transform_apply(frame: Frame, meta_frame: Frame, spec_text: str = "") -> BasicTensorBlock:
    """Apply previously fitted transform metadata to new data."""
    meta = _meta_from_frame(meta_frame)
    spec = TransformSpec.parse(json.dumps(meta["spec"]))
    columns, __ = _encode_columns(frame, spec, meta, fit=False)
    if not columns:
        return BasicTensorBlock.from_numpy(np.zeros((frame.num_rows, 0)))
    return BasicTensorBlock.from_numpy(np.column_stack(columns))


# ---------------------------------------------------------------------------
# encoding engine
# ---------------------------------------------------------------------------


def _encode_columns(frame: Frame, spec: TransformSpec, meta: dict, fit: bool):
    bin_specs = {entry["name"]: entry for entry in spec.bins}
    hash_specs = {entry["name"]: entry for entry in spec.hashes}
    dummy = set(spec.dummycode)
    recode = set(spec.recode) | dummy  # dummycode implies recode first
    outputs: List[np.ndarray] = []
    out_names: List[str] = []
    for name, vt in zip(frame.names, frame.schema):
        column = frame.column(name)
        if name in hash_specs:
            encoded = _hash_encode(column, hash_specs[name]["num_features"])
            outputs.append(encoded)
            out_names.extend(f"{name}_h{j}" for j in range(encoded.shape[1]))
        elif name in recode:
            codes = _recode(column, name, meta, fit)
            if name in dummy:
                encoded = _dummy_encode(codes, name, meta, fit)
                outputs.append(encoded)
                out_names.extend(f"{name}_{j + 1}" for j in range(encoded.shape[1]))
            else:
                outputs.append(codes.reshape(-1, 1).astype(np.float64))
                out_names.append(name)
        elif name in bin_specs:
            binned = _bin(column.astype(np.float64), name, bin_specs[name], meta, fit)
            outputs.append(binned.reshape(-1, 1))
            out_names.append(name)
        elif vt == ValueType.STRING:
            raise ValidationError(
                f"string column {name!r} has no transform; add it to recode/hash"
            )
        else:
            outputs.append(column.astype(np.float64).reshape(-1, 1))
            out_names.append(name)
    return outputs, out_names


def _recode(column: np.ndarray, name: str, meta: dict, fit: bool) -> np.ndarray:
    """Map distinct values to 1-based dense codes (0: unseen at fit time)."""
    keys = [str(v) for v in column]
    if fit:
        mapping = {value: code + 1 for code, value in enumerate(sorted(set(keys)))}
        meta["columns"].setdefault(name, {})["recode"] = mapping
    else:
        mapping = meta["columns"].get(name, {}).get("recode")
        if mapping is None:
            raise ValidationError(f"no fitted recode map for column {name!r}")
    return np.fromiter(map(mapping.get, keys, repeat(0)), np.int64, len(keys))


def _dummy_encode(codes: np.ndarray, name: str, meta: dict, fit: bool) -> np.ndarray:
    if fit:
        num_codes = int(codes.max()) if codes.size else 0
        meta["columns"].setdefault(name, {})["dummy_domain"] = num_codes
    else:
        num_codes = meta["columns"].get(name, {}).get("dummy_domain")
        if num_codes is None:
            raise ValidationError(f"no fitted dummy-code domain for column {name!r}")
    out = np.zeros((len(codes), max(num_codes, 1)), dtype=np.float64)
    valid = (codes >= 1) & (codes <= num_codes)
    out[np.flatnonzero(valid), codes[valid] - 1] = 1.0
    return out


def _bin(column: np.ndarray, name: str, entry: dict, meta: dict, fit: bool) -> np.ndarray:
    num_bins = int(entry.get("numbins", 10))
    method = entry.get("method", "equi-width")
    if fit:
        if method == "equi-width":
            lo, hi = float(np.nanmin(column)), float(np.nanmax(column))
            edges = np.linspace(lo, hi, num_bins + 1)
        elif method == "equi-height":
            quantiles = np.linspace(0, 1, num_bins + 1)
            edges = np.nanquantile(column, quantiles)
        else:
            raise ValidationError(f"unknown binning method {method!r}")
        meta["columns"].setdefault(name, {})["bin_edges"] = [float(e) for e in edges]
    else:
        edges_list = meta["columns"].get(name, {}).get("bin_edges")
        if edges_list is None:
            raise ValidationError(f"no fitted bin edges for column {name!r}")
        edges = np.asarray(edges_list)
    # 1-based bin ids; values outside the fitted range clamp to edge bins
    ids = np.digitize(column, edges[1:-1], right=False) + 1
    ids = np.clip(ids, 1, len(edges) - 1)
    return ids.astype(np.float64)


def _hash_encode(column: np.ndarray, num_features: int) -> np.ndarray:
    """Feature hashing: stateless, so identical at fit and apply time."""
    import hashlib

    out = np.zeros((len(column), num_features), dtype=np.float64)
    for i, value in enumerate(column):
        digest = hashlib.blake2b(str(value).encode(), digest_size=8).digest()
        slot = int.from_bytes(digest, "little") % num_features
        out[i, slot] += 1.0
    return out


# ---------------------------------------------------------------------------
# metadata frame (de)serialisation
# ---------------------------------------------------------------------------


def _meta_to_frame(meta: dict) -> Frame:
    """Serialise fitted metadata as a single-column string frame.

    The frame representation keeps the system stateless: the rules travel
    with the data and can be written/read like any other frame.
    """
    payload = json.dumps(meta)
    return Frame(
        [np.asarray([payload], dtype=object)], [ValueType.STRING], ["transform_meta"]
    )


def _meta_from_frame(frame: Frame) -> dict:
    if frame.num_cols < 1 or frame.num_rows < 1:
        raise ValidationError("empty transform metadata frame")
    try:
        return json.loads(str(frame.get(0, 0)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed transform metadata: {exc}") from exc
