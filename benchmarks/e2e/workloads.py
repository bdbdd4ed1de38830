"""The five batch workloads (``serve_zipf`` lives in ``serving_load.py``).

Every workload fixes ``ReproConfig.parallelism=2`` and runs each pass on
fresh ``MLContext`` objects, so a pass pays compile + execute + I/O the
way a user's script run does.  Set-up (input generation, file writes,
worker spawn and one warm-up pass) is timed separately by the runner.

Sizes are the issue's proportions scaled so one pass takes about a
second on two cores: the benchmark contract caps the whole matrix of
runs, which leaves ~25 s per run including set-up.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib
from typing import Dict, List

import numpy as np

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.io.mtd import write_mtd

from benchmarks.e2e import generators, oracles

PARALLELISM = 2

#: Input sizes per scale.  ``smoke`` is the self-test's quick scale.
SIZES = {
    "full": {
        "modelsel_reuse": {"rows": 8000, "cols": 128, "lambdas": 40, "step_cols": 12},
        "prep_frame": {"rows": 200_000},
        "train_loops": {"rows": 4000, "cols": 32, "clusters": 8, "classes": 4,
                        "svm_iters": 60, "km_iters": 25, "mlr_iters": 120,
                        "sgd_epochs": 40},
        "ooc_lowcard": {"rows": 8_000, "cols": 128, "levels": 16, "lambdas": 8,
                        "sweeps": 15, "side_blocks": 40, "side": 128},
        "dist_tcp": {"rows": 40_000, "cols": 64, "sweeps": 100, "block_rows": 16_384,
                     "block_size": 512, "rhs_cols": 48},
    },
    "smoke": {
        "modelsel_reuse": {"rows": 1000, "cols": 32, "lambdas": 8, "step_cols": 4},
        "prep_frame": {"rows": 10_000},
        "train_loops": {"rows": 512, "cols": 16, "clusters": 4, "classes": 3,
                        "svm_iters": 12, "km_iters": 12, "mlr_iters": 12,
                        "sgd_epochs": 3},
        "ooc_lowcard": {"rows": 2000, "cols": 64, "levels": 8, "lambdas": 2,
                        "sweeps": 4, "side_blocks": 8, "side": 64},
        "dist_tcp": {"rows": 4000, "cols": 32, "sweeps": 6, "block_rows": 1024,
                     "block_size": 256, "rhs_cols": 16},
    },
}


class BatchWorkload:
    """Set-up, one pass, its oracle check, tear-down."""

    name = ""
    #: Config overrides of the workload (recorded in the README table).
    overrides: Dict = {}

    def __init__(self, scale: str = "full"):
        self.size = SIZES[scale][self.name]
        self.data: Dict = {}
        self.workdir = ""

    #: Rows of the primary input; ``throughput_rps`` is this over ``run_s``.
    @property
    def rows(self) -> int:
        return self.size["rows"]

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.data = self.generate(generators.rng_for(seed, self.name))
        self.prepare()
        self.release(self.run_pass())

    def execute(self, script: str, inputs: Dict, outputs: List[str], **overrides):
        """One script on a fresh ``MLContext`` (compile + execute + I/O)."""
        config = ReproConfig(parallelism=PARALLELISM,
                             spill_dir=os.path.join(self.workdir, "spill"), **overrides)
        return MLContext(config).execute(script, inputs=inputs, outputs=outputs)

    def generate(self, rng) -> Dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Write files / spawn workers (part of set-up)."""

    def before_pass(self) -> None:
        """Untimed: put back whatever state a pass changes outside its own
        contexts, so that every timed pass starts from the same state."""

    def run_pass(self) -> Dict:
        raise NotImplementedError

    def expect(self) -> Dict:
        """Expected outputs from the oracle (computed once per run)."""
        raise NotImplementedError

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        raise NotImplementedError

    def release(self, outputs: Dict) -> None:
        for result in outputs.pop("_results", []):
            result.close()

    def teardown(self) -> None:
        self.data = {}

    def probes(self) -> Dict[str, float]:
        """Direct per-layer measurements (traced runs only)."""
        return {}

    def global_counters(self) -> Dict[str, float]:
        """Process-wide cumulative counters, read before and after a traced
        pass (counters that live on a pass's own contexts need no delta)."""
        return {}

    def layer_deltas(self, before: Dict, after: Dict) -> Dict[str, float]:
        """Per-layer metrics of one pass from two :meth:`global_counters`."""
        return {}

    def measure(self, seconds: float, traced: bool):
        from benchmarks.e2e.measure import measure_batch

        return measure_batch(self, seconds, traced)


# ---------------------------------------------------------------------------
# 1. modelsel_reuse
# ---------------------------------------------------------------------------


class ModelselReuse(BatchWorkload):
    name = "modelsel_reuse"
    overrides = {"enable_lineage": True, "reuse_policy": "full_partial"}

    SCRIPT = """
X = read(x_path)
y = read(y_path)
k = nrow(lambdas)
B = matrix(0, ncol(X), k)
for (i in 1:k) {
  B[, i] = lmDS(X, y, reg=as.scalar(lambdas[i, 1]))
}
write(B, out_path, format="csv")
Xs = X[, 1:step_cols]
[Bs, Ss] = steplm(Xs, y)
"""

    def generate(self, rng) -> Dict:
        return generators.modelsel(rng, self.size["rows"], self.size["cols"])

    @property
    def lambdas(self) -> np.ndarray:
        return np.logspace(-7, 2, self.size["lambdas"]).reshape(-1, 1)

    def prepare(self) -> None:
        for key in ("X", "y"):
            path = os.path.join(self.workdir, f"{key}.csv")
            np.savetxt(path, self.data[key], delimiter=",", fmt="%.17g")
            write_mtd(path, *self.data[key].shape)

    def run_pass(self) -> Dict:
        out_path = os.path.join(self.workdir, "models.csv")
        result = self.execute(
            self.SCRIPT,
            {"x_path": os.path.join(self.workdir, "X.csv"),
             "y_path": os.path.join(self.workdir, "y.csv"),
             "out_path": out_path, "lambdas": self.lambdas,
             "step_cols": self.size["step_cols"]},
            ["Bs", "Ss"], **self.overrides,
        )
        outputs = {"Bs": result.matrix("Bs"), "S": result.matrix("Ss"),
                   "B": np.loadtxt(out_path, delimiter=",", ndmin=2),
                   "_results": [result]}
        os.unlink(out_path)
        return outputs

    def expect(self) -> Dict:
        return oracles.expect_modelsel(self.data, self.lambdas.reshape(-1),
                                       self.size["step_cols"])

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        return oracles.check_modelsel(want, outputs)

    def probes(self) -> Dict[str, float]:
        from benchmarks.e2e import layers

        return {**layers.probe_dense_kernels(self.data["X"]),
                **layers.probe_csv(self.data["X"], self.workdir)}


# ---------------------------------------------------------------------------
# 2. prep_frame
# ---------------------------------------------------------------------------


class PrepFrame(BatchWorkload):
    name = "prep_frame"

    SCRIPT = """
F = read(data_path, data_type="frame", header=TRUE)
schema = detectSchema(F)
G = F[, 1:4]
y = as.matrix(F[, 5])
spec = "{\\"recode\\": [\\"segment\\", \\"region\\"], \\"dummycode\\": [\\"segment\\", \\"region\\"], \\"bin\\": [{\\"name\\": \\"tenure\\", \\"method\\": \\"equi-width\\", \\"numbins\\": 6}]}"
[X0, M] = transformencode(G, spec)
counts = colSums(X0[, 1:7])
[X1, colmeans] = imputeByMean(X0)
[X2, lo, hi] = outlierByIQR(X1, 1.5)
[X, centering, scaling] = scale(X2)
B = lmDS(X, y, icpt=1, reg=0.001)
k = nrow(B) - 1
yhat = X %*% B[1:k, ] + as.scalar(B[k + 1, 1])
e = abs(y - yhat)
mse = sum(e * e) / nrow(X)
Xcat = cbind(rowIndexMax(X0[, 1:3]), rowIndexMax(X0[, 4:7]))
S = sliceFinder(Xcat, e, k=3, minSup=50)
"""

    def generate(self, rng) -> Dict:
        return generators.raw_frame(rng, self.size["rows"])

    @property
    def data_path(self) -> str:
        return os.path.join(self.workdir, "raw.csv")

    def prepare(self) -> None:
        with open(self.data_path, "w", encoding="utf-8") as handle:
            handle.write(generators.frame_csv_text(self.data))

    def run_pass(self) -> Dict:
        result = self.execute(
            self.SCRIPT, {"data_path": self.data_path},
            ["schema", "counts", "colmeans", "mse", "S"],
        )
        return {"schema": result.frame("schema").row(0),
                "counts": result.matrix("counts"),
                "colmeans": result.matrix("colmeans"),
                "mse": result.scalar("mse"), "S": result.matrix("S"),
                "_results": [result]}

    def expect(self) -> Dict:
        return oracles.expect_prep(self.data)

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        return oracles.check_prep(want, outputs)

    def probes(self) -> Dict[str, float]:
        from benchmarks.e2e import layers

        return layers.probe_prep(self.data_path)


# ---------------------------------------------------------------------------
# 3. train_loops
# ---------------------------------------------------------------------------


class TrainLoops(BatchWorkload):
    name = "train_loops"
    PARAMS = {"svm_reg": 0.01, "mlr_reg": 0.001, "sgd_batch": 64, "sgd_rate": 0.01}

    L2SVM = """
w = l2svm(X, y, reg=reg, tol=0.0, max_iter=iters)
margin = 1 - y * (X %*% w)
loss = sum((margin > 0) * margin * margin) + reg * sum(w * w)
"""
    # Lloyd's iteration as in the kmeans builtin, but from centroids the
    # generator picked: the builtin draws them with the engine's own RNG,
    # which no independent oracle can follow
    KMEANS = """
C = C0
n = nrow(X)
k = nrow(C0)
wcss = 0.0
for (it in 1:iters) {
  D = -2 * (X %*% t(C)) + t(rowSums(C * C))
  assignments = rowIndexMin(D)
  P = table(seq(1, n), assignments, n, k)
  counts = t(colSums(P))
  counts = replace(target=counts, pattern=0, replacement=1)
  C = (t(P) %*% X) / counts
  wcss = sum(rowMins(D) + rowSums(X * X))
}
"""
    MLR = """
W = multiLogReg(X, y, reg=reg, step=1.0, max_iter=iters, tol=0.0)
n = nrow(X)
Y = table(seq(1, n), y, n, ncol(W))
scores = X %*% W
scores = scores - rowMaxs(scores)
E = exp(scores)
P = E / rowSums(E)
loss = -sum(log(rowSums(Y * P) + 0.0000000001)) / n + 0.5 * reg * sum(W * W)
"""
    SGD = """
w = matrix(0, ncol(X), 1)
n = nrow(X)
nb = n / bs
for (ep in 1:epochs) {
  for (b in 1:nb) {
    lo = (b - 1) * bs + 1
    hi = b * bs
    Xb = X[lo:hi, ]
    yb = y[lo:hi, ]
    g = t(Xb) %*% (Xb %*% w - yb) / bs
    w = w - rate * g
  }
}
r = X %*% w - y
obj = sum(r * r) / n
"""

    def generate(self, rng) -> Dict:
        s = self.size
        return generators.train(rng, s["rows"], s["cols"], s["clusters"], s["classes"])

    def run_pass(self) -> Dict:
        d, s, p = self.data, self.size, self.PARAMS
        svm = self.execute(self.L2SVM, {"X": d["X"], "y": d["y_svm"], "reg": p["svm_reg"],
                                          "iters": s["svm_iters"]}, ["w", "loss"])
        km = self.execute(self.KMEANS, {"X": d["X"], "C0": d["C0"],
                                        "iters": s["km_iters"]}, ["C", "wcss"])
        mlr = self.execute(self.MLR, {"X": d["X"], "y": d["y_cls"], "reg": p["mlr_reg"],
                                        "iters": s["mlr_iters"]}, ["W", "loss"])
        sgd = self.execute(self.SGD, {"X": d["X"], "y": d["y_reg"], "bs": p["sgd_batch"],
                                        "epochs": s["sgd_epochs"], "rate": p["sgd_rate"]},
                             ["w", "obj"])
        return {
            "svm_w": svm.matrix("w"), "svm_loss": svm.scalar("loss"),
            "km_C": km.matrix("C"), "km_wcss": km.scalar("wcss"),
            "mlr_W": mlr.matrix("W"), "mlr_loss": mlr.scalar("loss"),
            "sgd_w": sgd.matrix("w"), "sgd_obj": sgd.scalar("obj"),
            "_results": [svm, km, mlr, sgd],
        }

    def expect(self) -> Dict:
        return oracles.expect_train(self.data, {**self.PARAMS, **self.size})

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        return oracles.check_train(want, outputs)


# ---------------------------------------------------------------------------
# 4. ooc_lowcard
# ---------------------------------------------------------------------------


class OocLowcard(BatchWorkload):
    name = "ooc_lowcard"
    RATE = 0.05

    def generate(self, rng) -> Dict:
        s = self.size
        return generators.lowcard(rng, s["rows"], s["cols"], s["levels"])

    @property
    def lambdas(self) -> np.ndarray:
        return np.logspace(-4, 1, self.size["lambdas"]).reshape(-1, 1)

    @property
    def working_set(self) -> int:
        s = self.size
        return (s["rows"] * s["cols"] + (s["side_blocks"] + 1) * s["side"] ** 2) * 8

    @property
    def overrides(self) -> Dict:
        return {"bufferpool_budget_override": self.working_set // 4,
                "spill_compress": True, "compressed_exec": True}

    def _side_value(self, i: int) -> float:
        return 0.5 + i * 0.001

    def script(self) -> str:
        s = self.size
        # every fill value distinct, or CSE collapses the side blocks into one
        lines = [f"S{i:02d} = matrix({self._side_value(i)}, rows={s['side']}, cols={s['side']})"
                 for i in range(s["side_blocks"])]
        lines += [
            "X = read(x_path)",
            "k = nrow(lambdas)",
            "W = matrix(0, ncol(X), k)",
            f"acc = matrix(0, rows={s['side']}, cols={s['side']})",
            "for (j in 1:k) {",
            "  lam = as.scalar(lambdas[j, 1])",
            "  w = matrix(0, ncol(X), 1)",
            "  for (it in 1:sweeps) {",
            "    margin = 1 - y * (X %*% w)",
            "    active = margin > 0",
            "    g = -2 * (t(X) %*% (y * (active * margin))) / nrow(X) + 2 * lam * w",
            "    w = w - rate * g",
            "  }",
            "  W[, j] = w",
        ]
        lines += [f"  acc = acc + S{j:02d} %*% S{j + 1:02d}"
                  for j in range(0, s["side_blocks"], 2)]
        lines += ["}", "chk = sum(acc)"]
        return "\n".join(lines) + "\n"

    @property
    def x_path(self) -> str:
        return os.path.join(self.workdir, "X.bin")

    def prepare(self) -> None:
        from repro.io.binary import write_binary_matrix
        from repro.tensor import BasicTensorBlock

        write_binary_matrix(BasicTensorBlock.from_numpy(self.data["X"]), self.x_path)
        write_mtd(self.x_path, *self.data["X"].shape, format_name="binary")

    def run_pass(self) -> Dict:
        # X is read inside the script: only data the script materialises is
        # buffer-pool managed, caller-bound inputs never page
        result = self.execute(
            self.script(),
            {"x_path": self.x_path, "y": self.data["y"], "lambdas": self.lambdas,
             "sweeps": self.size["sweeps"], "rate": self.RATE},
            ["W", "chk"], **self.overrides,
        )
        return {"W": result.matrix("W"), "chk": result.scalar("chk"),
                "_results": [result]}

    def expect(self) -> Dict:
        return oracles.expect_ooc(self.data, self.lambdas.reshape(-1),
                                  self.size["sweeps"], self.RATE)

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        s = self.size
        side_sum = s["lambdas"] * s["side"] ** 3 * sum(
            self._side_value(j) * self._side_value(j + 1)
            for j in range(0, s["side_blocks"], 2))
        return oracles.check_ooc(want, outputs, side_sum)

    def probes(self) -> Dict[str, float]:
        from benchmarks.e2e import layers

        return layers.probe_compressed(self.data["X"])


# ---------------------------------------------------------------------------
# 5. dist_tcp
# ---------------------------------------------------------------------------


def _addresses_on_distinct_workers(workers: int = 2) -> List[str]:
    """Site addresses the transport's ``crc32 % workers`` routing spreads
    over different worker processes (one site per worker)."""
    chosen: Dict[int, str] = {}
    index = 0
    while len(chosen) < workers:
        address = f"site-{index}:9001"
        chosen.setdefault(zlib.crc32(address.encode()) % workers, address)
        index += 1
    return [chosen[slot] for slot in sorted(chosen)]


class DistTcp(BatchWorkload):
    name = "dist_tcp"
    TRANSPORT = "tcp"
    LAMBDA, RATE = 0.01, 0.05
    SITES = _addresses_on_distinct_workers()

    PHASE_A = """
Xf = federated(addresses=list("%s/X", "%s/X"), ranges=list(R1, R2))
w = matrix(0, ncol(Xf), 1)
for (i in 1:sweeps) {
  margin = 1 - y * (Xf %%*%% w)
  active = margin > 0
  g = -2 * (t(Xf) %%*%% (y * (active * margin))) / nrow(Xf) + 2 * lam * w
  w = w - rate * g
}
""" % tuple(SITES)
    PHASE_B = """
G = t(X) %*% X
H = X %*% V
"""

    def __init__(self, scale: str = "full"):
        super().__init__(scale)
        #: (phase A, phase B) seconds of every tcp pass, and of the inproc one
        self.phase_seconds: List[tuple] = []
        self.inproc_seconds = (0.0, 0.0)

    def generate(self, rng) -> Dict:
        s = self.size
        return generators.federated(rng, s["rows"], s["cols"], s["block_rows"], s["rhs_cols"])

    def transport_config(self, transport: str) -> ReproConfig:
        return ReproConfig(parallelism=PARALLELISM, transport=transport)

    def publish(self, transport: str) -> None:
        from repro.net import registry_for
        from repro.tensor import BasicTensorBlock

        registry = registry_for(self.transport_config(transport))
        registry.clear()
        split = self.size["rows"] // 2
        for address, part in zip(self.SITES, (self.data["X"][:split], self.data["X"][split:])):
            registry.start_site(address).put("X", BasicTensorBlock.from_numpy(part))

    def prepare(self) -> None:
        self.publish(self.TRANSPORT)

    def before_pass(self) -> None:
        # the sites keep every intermediate a script ever stored (16 MB per
        # pass here), and a worker grown by ten passes serves the eleventh a
        # quarter slower: publish afresh, so the pass index does not matter
        self.publish(self.TRANSPORT)

    def phase_a(self, transport: str):
        s = self.size
        split = s["rows"] // 2
        return self.execute(
            self.PHASE_A,
            {"y": self.data["y"], "sweeps": s["sweeps"], "lam": self.LAMBDA,
             "rate": self.RATE,
             "R1": np.asarray([[0.0, 0.0, split, s["cols"]]]),
             "R2": np.asarray([[float(split), 0.0, s["rows"], s["cols"]]])},
            ["w"], transport=transport,
        )

    def phase_b(self, transport: str):
        # a tiny operator budget forces the blocked (spark) operators, as the
        # qa lattice's proc_spark config does
        return self.execute(
            self.PHASE_B, {"X": self.data["Xb"], "V": self.data["V"]}, ["G", "H"],
            transport=transport, operator_memory_fraction=1e-7,
            block_size=self.size["block_size"],
        )

    def run_pass(self, transport: str = TRANSPORT) -> Dict:
        start = time.perf_counter()
        a = self.phase_a(transport)
        w = a.matrix("w")
        middle = time.perf_counter()
        b = self.phase_b(transport)
        outputs = {"w": w, "G": b.matrix("G"), "H": b.matrix("H"), "_results": [a, b]}
        self.phase_seconds.append((middle - start, time.perf_counter() - middle))
        return outputs

    def expect(self) -> Dict:
        """The NumPy reference plus the same pass over ``transport="inproc"``,
        which the tcp result must equal bit for bit."""
        want = oracles.expect_dist(self.data, self.LAMBDA, self.size["sweeps"], self.RATE)
        self.publish("inproc")
        inproc = self.run_pass("inproc")
        self.inproc_seconds = self.phase_seconds.pop()
        self.release(inproc)
        want["inproc"] = inproc
        return want

    def check(self, want: Dict, outputs: Dict) -> List[str]:
        problems = oracles.check_dist(want, outputs)
        for key in ("w", "G", "H"):
            if not np.array_equal(outputs[key], want["inproc"][key]):
                problems.append(f"{key}: tcp result is not bit-identical to inproc")
        return problems

    def teardown(self) -> None:
        from repro.net import for_config, registry_for

        for transport in ("inproc", self.TRANSPORT):
            registry_for(self.transport_config(transport)).clear()
        remote = for_config(self.transport_config(self.TRANSPORT))
        if remote is not None:
            remote.close()
        super().teardown()

    def probes(self) -> Dict[str, float]:
        from benchmarks.e2e import layers

        tcp_a = statistics.median(a for a, _b in self.phase_seconds)
        return {**layers.probe_net(self.transport_config(self.TRANSPORT), self.SITES[0],
                                   self.data["y"]),
                "harness.tcp_over_inproc": tcp_a / self.inproc_seconds[0]}

    def global_counters(self) -> Dict[str, float]:
        from benchmarks.e2e import layers

        return layers.transport_counters(self.transport_config(self.TRANSPORT), self.SITES)

    def layer_deltas(self, before: Dict, after: Dict) -> Dict[str, float]:
        from benchmarks.e2e import layers

        return layers.transport_delta(before, after, self.size["sweeps"])


BATCH_WORKLOADS = {cls.name: cls for cls in
                   (ModelselReuse, PrepFrame, TrainLoops, OocLowcard, DistTcp)}
