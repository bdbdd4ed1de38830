"""Seeded input generators — the only code ``--seed`` reaches.

Each generator returns plain NumPy arrays (and writes nothing); the
workloads turn them into files, federated publications or registered
models.  The same seed gives the same inputs.  Sizes are arguments so the
self-test can run the same generators at smoke scale.

The shapes are chosen so the *amount of work* does not depend on the
seed: every iterative algorithm runs a fixed number of sweeps and every
stepwise-selection candidate carries signal, so run-to-run spread comes
from the machine and not from the draw.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

import numpy as np

SEGMENTS = ("business", "consumer", "public")
REGIONS = ("east", "north", "south", "west")


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def modelsel(rng: np.random.Generator, rows: int, cols: int) -> Dict[str, np.ndarray]:
    """Dense regression data; every coefficient is well away from zero so
    steplm selects all of its candidate columns whatever the seed."""
    X = rng.random((rows, cols))
    beta = rng.uniform(0.5, 1.5, size=(cols, 1)) * rng.choice([-1.0, 1.0], size=(cols, 1))
    y = X @ beta + 0.01 * rng.standard_normal((rows, 1))
    return {"X": X, "y": y}


def raw_frame(rng: np.random.Generator, rows: int, missing: float = 0.01) -> Dict[str, np.ndarray]:
    """A heterogeneous table: two categoricals, a skewed numeric with
    missing cells, an integer, and a numeric label."""
    segment = rng.choice(SEGMENTS, size=rows)
    region = rng.choice(REGIONS, size=rows)
    usage = np.round(np.exp(rng.standard_normal(rows) * 1.2 + 3.0), 3)
    tenure = rng.integers(0, 120, size=rows)
    label = np.round(
        (segment == "consumer") * 1.5 + usage / 100.0 - tenure / 100.0
        + 0.1 * rng.standard_normal(rows), 4,
    )
    return {
        "segment": segment, "region": region, "usage": usage,
        "usage_missing": rng.random(rows) < missing,
        "tenure": tenure, "label": label,
    }


def frame_csv_text(data: Dict[str, np.ndarray]) -> str:
    """The raw CSV text of :func:`raw_frame` data (missing cells empty)."""
    usage = np.char.mod("%.3f", data["usage"])
    usage[data["usage_missing"]] = ""
    columns = [data["segment"], data["region"], usage,
               data["tenure"].astype(str), np.char.mod("%.4f", data["label"])]
    lines = columns[0]
    for column in columns[1:]:
        lines = np.char.add(np.char.add(lines, ","), column)
    return "segment,region,usage,tenure,label\n" + "\n".join(lines.tolist()) + "\n"


def train(rng: np.random.Generator, rows: int, cols: int, clusters: int,
          classes: int) -> Dict[str, np.ndarray]:
    """Well-separated blobs with binary, multi-class and regression labels
    over the same X, plus ``clusters`` rows of X as initial centroids."""
    centers = rng.standard_normal((clusters, cols)) * 6.0
    member = rng.integers(0, clusters, size=rows)
    X = centers[member] + rng.standard_normal((rows, cols))
    X = (X - X.mean(axis=0)) / X.std(axis=0)  # keeps the gradient loops well conditioned
    w = rng.standard_normal((cols, 1))
    margin = X @ w
    y_svm = np.where(margin + 0.3 * rng.standard_normal((rows, 1)) * margin.std() > 0, 1.0, -1.0)
    W = rng.standard_normal((cols, classes))
    y_cls = (X @ W + rng.gumbel(size=(rows, classes)) * 4.0).argmax(axis=1) + 1.0
    y_reg = X @ w / np.sqrt(cols) + 0.1 * rng.standard_normal((rows, 1))
    C0 = X[rng.choice(rows, size=clusters, replace=False)]
    return {"X": X, "y_svm": y_svm, "y_cls": y_cls.reshape(-1, 1), "y_reg": y_reg,
            "C0": C0}


def lowcard(rng: np.random.Generator, rows: int, cols: int, levels: int) -> Dict[str, np.ndarray]:
    """A matrix with at most ``levels`` distinct values per column."""
    values = rng.standard_normal((levels, cols))
    X = values[rng.integers(0, levels, size=(rows, cols)), np.arange(cols)]
    w = rng.standard_normal((cols, 1))
    y = np.where(X @ w + rng.standard_normal((rows, 1)) > 0, 1.0, -1.0)
    return {"X": X, "y": y}


def federated(rng: np.random.Generator, rows: int, cols: int, block_rows: int,
              rhs_cols: int) -> Dict[str, np.ndarray]:
    X = rng.standard_normal((rows, cols))
    w = rng.standard_normal((cols, 1))
    y = np.where(X @ w + rng.standard_normal((rows, 1)) > 0, 1.0, -1.0)
    return {"X": X, "y": y, "Xb": X[:block_rows].copy(),
            "V": rng.standard_normal((cols, rhs_cols))}


def serving_models(rng: np.random.Generator, specs) -> Dict[str, Dict[str, np.ndarray]]:
    """Weights per model; ``specs`` is ``[(name, kind, features), ...]``."""
    weights: Dict[str, Dict[str, np.ndarray]] = {}
    for name, kind, features in specs:
        if kind == "lm":
            weights[name] = {"B": rng.standard_normal((features, 1))}
        elif kind == "softmax":
            weights[name] = {"W": rng.standard_normal((features, 5)) / np.sqrt(features)}
        else:  # two-layer affine + relu
            weights[name] = {
                "W1": rng.standard_normal((features, 32)) / np.sqrt(features),
                "b1": rng.standard_normal((1, 32)),
                "W2": rng.standard_normal((32, 1)),
                "b2": rng.standard_normal((1, 1)),
            }
    return weights


def request_pool(rng: np.random.Generator, specs, per_model: int) -> Dict[str, List[np.ndarray]]:
    """``per_model`` distinct feature batches of 1-8 rows for each model."""
    return {
        name: [rng.standard_normal((int(rng.integers(1, 9)), features))
               for _ in range(per_model)]
        for name, _kind, features in specs
    }


def request_stream(rng: np.random.Generator, count: int, models: int, tenants: int,
                   pool: int, skew: float = 1.1) -> Dict[str, np.ndarray]:
    """Model and tenant drawn zipf(``skew``) by rank, pool entry uniform."""
    def zipf(n):
        p = np.arange(1, n + 1, dtype=np.float64) ** -skew
        return p / p.sum()

    return {
        "model": rng.choice(models, size=count, p=zipf(models)),
        "tenant": rng.choice(tenants, size=count, p=zipf(tenants)),
        "entry": rng.integers(0, pool, size=count),
    }
