"""Independent NumPy references for the six workloads.

Nothing here imports ``repro``: every expected value is recomputed from
the generated inputs with NumPy alone, following the *definition* of each
builtin (ridge normal equations, AIC forward selection, type-1 quantiles,
sample standard deviation, sorted recoding, ...).  ``expect_*`` computes
a workload's expected outputs once per run; ``check_*`` compares one
pass's outputs with them and returns a list of human-readable
mismatches.  An empty list means the pass is correct; anything else
marks the pass failed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

RTOL = 1e-9


def mismatch(name: str, got, want, rtol: float = RTOL) -> List[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not np.isfinite(err) or err > rtol * scale:
        return [f"{name}: max error {err:.3e} exceeds {rtol:g} x {scale:.3e}"]
    return []


# --- modelsel_reuse -----------------------------------------------------------


def ridge_grid(X: np.ndarray, y: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
    xtx, xty = X.T @ X, X.T @ y
    eye = np.eye(X.shape[1])
    return np.hstack([np.linalg.solve(xtx + lam * eye, xty) for lam in lambdas])


def steplm(X: np.ndarray, y: np.ndarray, reg: float = 1e-6, thr: float = 1e-3):
    """Forward selection by AIC with an always-present intercept column."""
    n, m = X.shape

    def fit(D):
        beta = np.linalg.solve(D.T @ D + reg * np.eye(D.shape[1]), D.T @ y)
        r = y - D @ beta
        return n * np.log(float((r * r).sum()) / n) + 2 * D.shape[1], beta

    selected = np.zeros(m)
    Xg = np.ones((n, 1))
    best, _ = fit(Xg)
    while True:
        aics = np.full(m, 1e300)
        for j in range(m):
            if selected[j] == 0:
                aics[j], _ = fit(np.hstack([Xg, X[:, j:j + 1]]))
        j = int(np.argmin(aics))
        if aics[j] < best - thr:
            best = aics[j]
            Xg = np.hstack([Xg, X[:, j:j + 1]])
            selected[j] = Xg.shape[1] - 1
        else:
            break
    _, beta = fit(Xg)
    B = np.zeros((m + 1, 1))
    B[0, 0] = beta[0, 0]
    for j in range(m):
        if selected[j] > 0:
            B[j + 1, 0] = beta[int(selected[j]), 0]
    return B, selected.reshape(1, -1)


def expect_modelsel(inputs: Dict, lambdas, step_cols: int) -> Dict:
    X, y = inputs["X"], inputs["y"]
    B_step, S = steplm(X[:, :step_cols], y)
    return {"B": ridge_grid(X, y, lambdas), "Bs": B_step, "S": S}


def check_modelsel(want: Dict, outputs: Dict) -> List[str]:
    return (mismatch("B", outputs["B"], want["B"], rtol=1e-7)
            + mismatch("steplm.S", outputs["S"], want["S"], rtol=0.0)
            + mismatch("steplm.B", outputs["Bs"], want["Bs"], rtol=1e-7))


# --- prep_frame ---------------------------------------------------------------


def _quantile_type1(sorted_column: np.ndarray, p: float) -> float:
    n = sorted_column.size
    return float(sorted_column[max(int(np.ceil(p * n)) - 1, 0)])


def expect_prep(data: Dict, numbins: int = 6, iqr_k: float = 1.5,
                  reg: float = 1e-3, top_k: int = 3, min_sup: int = 50) -> Dict:
    seg_levels, seg_codes = np.unique(data["segment"], return_inverse=True)
    reg_levels, reg_codes = np.unique(data["region"], return_inverse=True)
    n = seg_codes.size
    dummies = np.zeros((n, seg_levels.size + reg_levels.size))
    dummies[np.arange(n), seg_codes] = 1.0
    dummies[np.arange(n), seg_levels.size + reg_codes] = 1.0
    usage = data["usage"].astype(np.float64).copy()
    usage[data["usage_missing"]] = np.nan
    tenure = data["tenure"].astype(np.float64)
    edges = np.linspace(tenure.min(), tenure.max(), numbins + 1)
    bins = np.clip(np.digitize(tenure, edges[1:-1]) + 1, 1, numbins).astype(np.float64)
    X0 = np.hstack([dummies, usage.reshape(-1, 1), bins.reshape(-1, 1)])
    # imputeByMean
    missing = np.isnan(X0)
    filled = np.where(missing, 0.0, X0)
    present = n - missing.sum(axis=0)
    colmeans = filled.sum(axis=0) / np.where(present == 0, 1, present)
    X1 = filled + missing * colmeans
    # outlierByIQR with type-1 quantiles
    ordered = np.sort(X1, axis=0)
    q1 = np.array([_quantile_type1(ordered[:, j], 0.25) for j in range(X1.shape[1])])
    q3 = np.array([_quantile_type1(ordered[:, j], 0.75) for j in range(X1.shape[1])])
    X2 = np.minimum(np.maximum(X1, q1 - iqr_k * (q3 - q1)), q3 + iqr_k * (q3 - q1))
    # scale (sample standard deviation; constant columns divide by 1)
    sd = X2.std(axis=0, ddof=1)
    sd[(sd == 0) | np.isnan(sd)] = 1.0
    X = (X2 - X2.mean(axis=0)) / sd
    # lmDS with intercept
    D = np.hstack([X, np.ones((n, 1))])
    y = data["label"].reshape(-1, 1).astype(np.float64)
    B = np.linalg.solve(D.T @ D + reg * np.eye(D.shape[1]), D.T @ y)
    e = np.abs(y - D @ B)
    mse = float((e * e).sum() / n)
    # sliceFinder over the two recoded categoricals
    slices = []
    for feature, codes, levels in ((1, seg_codes, seg_levels), (2, reg_codes, reg_levels)):
        for value in range(levels.size):
            mask = codes == value
            size = int(mask.sum())
            avg = float(e[mask].sum() / size) if size >= min_sup else -1e300
            slices.append((feature, value + 1, avg, size))
    slices.sort(key=lambda row: -row[2])
    return {
        "counts": dummies.sum(axis=0).reshape(1, -1),
        "colmeans": colmeans.reshape(1, -1),
        "mse": mse,
        "slices": np.asarray(slices[:top_k], dtype=np.float64),
    }


def check_prep(want: Dict, outputs: Dict) -> List[str]:
    problems = mismatch("counts", outputs["counts"], want["counts"], rtol=0.0)
    problems += mismatch("colmeans", outputs["colmeans"], want["colmeans"], rtol=1e-10)
    problems += mismatch("mse", outputs["mse"], want["mse"], rtol=1e-8)
    problems += mismatch("slices", outputs["S"], want["slices"], rtol=1e-8)
    schema = [str(v).upper() for v in outputs["schema"]]
    expected = ["STRING", "STRING", "FP64", "INT64", "FP64"]
    if schema != expected:
        problems.append(f"schema: {schema} != {expected}")
    return problems


# --- train_loops --------------------------------------------------------------


def l2svm(X, y, reg, max_iter, tol: float = 0.0):
    """Squared-hinge SVM by gradient descent with backtracking line search."""
    y = np.where(y <= 0, -1.0, 1.0)
    w = np.zeros((X.shape[1], 1))
    step = 1.0

    def objective(w):
        margin = 1 - y * (X @ w)
        active = margin > 0
        return margin, active, float((active * margin * margin).sum() + reg * float((w * w).sum()))

    margin, active, loss = objective(w)
    for _ in range(max_iter):
        g = -2 * (X.T @ (y * (active * margin))) + 2 * reg * w
        gnorm = float((g * g).sum())
        step = 2 * step
        new_w = w - step * g
        new_margin, new_active, new_loss = objective(new_w)
        inner = 0
        while new_loss > loss - 0.5 * step * gnorm and inner < 20:
            step = step / 2
            new_w = w - step * g
            new_margin, new_active, new_loss = objective(new_w)
            inner += 1
        improvement = loss - new_loss
        w, margin, active, loss = new_w, new_margin, new_active, new_loss
        if improvement < tol * (1 + abs(loss)):
            break
    return w


def l2svm_loss(X, y, w, reg) -> float:
    margin = 1 - y * (X @ w)
    return float(((margin > 0) * margin * margin).sum() + reg * (w * w).sum())


def multilogreg(X, y, reg, step, max_iter):
    n, m = X.shape
    k = int(y.max())
    Y = np.zeros((n, k))
    Y[np.arange(n), y.reshape(-1).astype(int) - 1] = 1.0
    W = np.zeros((m, k))
    last = 1e300
    for _ in range(max_iter):
        scores = X @ W
        scores = scores - scores.max(axis=1, keepdims=True)
        E = np.exp(scores)
        P = E / E.sum(axis=1, keepdims=True)
        W = W - step * ((X.T @ (P - Y)) / n + reg * W)
        loss = float(-(Y * np.log(P + 1e-10)).sum() / n + 0.5 * reg * (W * W).sum())
        if loss > last:
            step = step / 2
        last = loss
    return W


def softmax_loss(X, y, W, reg) -> float:
    n = X.shape[0]
    scores = X @ W
    E = np.exp(scores - scores.max(axis=1, keepdims=True))
    P = E / E.sum(axis=1, keepdims=True)
    picked = P[np.arange(n), y.reshape(-1).astype(int) - 1]
    return float(-np.log(picked + 1e-10).sum() / n + 0.5 * reg * (W * W).sum())


def minibatch_sgd(X, y, epochs, batch, rate):
    w = np.zeros((X.shape[1], 1))
    for _ in range(epochs):
        for b in range(X.shape[0] // batch):
            Xb, yb = X[b * batch:(b + 1) * batch], y[b * batch:(b + 1) * batch]
            w = w - rate * (Xb.T @ (Xb @ w - yb) / batch)
    r = X @ w - y
    return w, float((r * r).sum() / X.shape[0])


def kmeans(X, C, iters):
    """Lloyd's iteration from given centroids, with the distance expansion
    ``|x|^2 - 2 x.c + |c|^2`` the script uses."""
    n, k = X.shape[0], C.shape[0]
    norms = (X * X).sum(axis=1)
    wcss = 0.0
    for _ in range(iters):
        D = -2 * (X @ C.T) + (C * C).sum(axis=1)
        labels = D.argmin(axis=1)
        P = np.zeros((n, k))
        P[np.arange(n), labels] = 1.0
        counts = P.sum(axis=0).reshape(-1, 1)
        counts[counts == 0] = 1.0
        C = (P.T @ X) / counts
        wcss = float((D.min(axis=1) + norms).sum())
    return C, wcss


def expect_train(data: Dict, params: Dict) -> Dict:
    X = data["X"]
    svm_w = l2svm(X, data["y_svm"], params["svm_reg"], params["svm_iters"])
    mlr_W = multilogreg(X, data["y_cls"], params["mlr_reg"], 1.0, params["mlr_iters"])
    sgd_w, sgd_obj = minibatch_sgd(X, data["y_reg"], params["sgd_epochs"],
                                   params["sgd_batch"], params["sgd_rate"])
    km_C, km_wcss = kmeans(X, data["C0"], params["km_iters"])
    return {
        "km_C": km_C, "km_wcss": km_wcss, "svm_w": svm_w,
        "svm_loss": l2svm_loss(X, data["y_svm"], svm_w, params["svm_reg"]),
        "mlr_W": mlr_W,
        "mlr_loss": softmax_loss(X, data["y_cls"], mlr_W, params["mlr_reg"]),
        "sgd_w": sgd_w, "sgd_obj": sgd_obj,
    }


def check_train(want: Dict, outputs: Dict) -> List[str]:
    problems: List[str] = []
    for key in ("svm_loss", "km_wcss", "mlr_loss", "sgd_obj"):
        problems += mismatch(key, outputs[key], want[key])
    for key in ("svm_w", "km_C", "mlr_W", "sgd_w"):
        problems += mismatch(key, outputs[key], want[key], rtol=1e-8)
    return problems


# --- ooc_lowcard / dist_tcp ---------------------------------------------------


def fixed_step_l2svm(X, y, lam: float, sweeps: int, rate: float) -> np.ndarray:
    w = np.zeros((X.shape[1], 1))
    n = X.shape[0]
    for _ in range(sweeps):
        margin = 1 - y * (X @ w)
        active = margin > 0
        g = -2 * (X.T @ (y * (active * margin))) / n + 2 * lam * w
        w = w - rate * g
    return w


def expect_ooc(data: Dict, lambdas, sweeps: int, rate: float) -> Dict:
    return {"W": np.hstack([fixed_step_l2svm(data["X"], data["y"], lam, sweeps, rate)
                            for lam in lambdas])}


def check_ooc(want: Dict, outputs: Dict, side_sum: float) -> List[str]:
    return (mismatch("W", outputs["W"], want["W"], rtol=1e-8)
            + mismatch("side", outputs["chk"], side_sum))


def expect_dist(data: Dict, lam: float, sweeps: int, rate: float) -> Dict:
    Xb, V = data["Xb"], data["V"]
    return {"w": fixed_step_l2svm(data["X"], data["y"], lam, sweeps, rate),
            "G": Xb.T @ Xb, "H": Xb @ V}


def check_dist(want: Dict, outputs: Dict) -> List[str]:
    return (mismatch("w", outputs["w"], want["w"], rtol=1e-8)
            + mismatch("G", outputs["G"], want["G"])
            + mismatch("H", outputs["H"], want["H"]))


# --- serve_zipf ---------------------------------------------------------------


def score(kind: str, weights: Dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    if kind == "lm":
        return X @ weights["B"]
    if kind == "softmax":
        scores = X @ weights["W"]
        E = np.exp(scores - scores.max(axis=1, keepdims=True))
        return E / E.sum(axis=1, keepdims=True)
    hidden = np.maximum(X @ weights["W1"] + weights["b1"], 0.0)
    return hidden @ weights["W2"] + weights["b2"]
