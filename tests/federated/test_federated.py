"""Tests for the federated backend: sites, tensors, push-down, privacy."""

import threading
import time

import numpy as np
import pytest

from repro.api.mlcontext import MLContext
from repro.config import ReproConfig
from repro.errors import FederatedError, PrivacyError
from repro.federated import (
    FederatedRange,
    FederatedSite,
    FederatedTensor,
    FederatedWorkerRegistry,
    PrivacyConstraint,
    PrivacyLevel,
)
from repro.federated.tensor import FederatedPartition
from repro.federated import instructions as fed_ops
from repro.tensor import BasicTensorBlock
from repro.types import Direction


@pytest.fixture
def registry():
    reg = FederatedWorkerRegistry.default()
    reg.clear()
    yield reg
    reg.clear()


@pytest.fixture
def row_federated(registry):
    """X split row-wise over two sites."""
    rng = np.random.default_rng(4)
    data = rng.random((100, 6))
    s1 = registry.start_site("host1:8001")
    s2 = registry.start_site("host2:8001")
    s1.put("X", BasicTensorBlock.from_numpy(data[:60]))
    s2.put("X", BasicTensorBlock.from_numpy(data[60:]))
    fed = FederatedTensor([
        FederatedPartition(s1, "X", FederatedRange((0, 0), (60, 6))),
        FederatedPartition(s2, "X", FederatedRange((60, 0), (100, 6))),
    ])
    return data, fed, (s1, s2)


class TestFederatedTensor:
    def test_shape_from_ranges(self, row_federated):
        __, fed, ___ = row_federated
        assert fed.shape == (100, 6)
        assert fed.is_row_partitioned

    def test_overlapping_ranges_rejected(self, registry):
        site = registry.start_site("h:1")
        site.put("X", BasicTensorBlock.from_numpy(np.ones((4, 4))))
        with pytest.raises(FederatedError, match="overlap"):
            FederatedTensor([
                FederatedPartition(site, "X", FederatedRange((0, 0), (3, 4))),
                FederatedPartition(site, "X", FederatedRange((2, 0), (4, 4))),
            ])

    def test_collect(self, row_federated):
        data, fed, __ = row_federated
        np.testing.assert_array_equal(
            fed_ops.collect_federated(fed).to_numpy(), data
        )


class TestPushDown:
    def test_tsmm(self, row_federated):
        data, fed, __ = row_federated
        np.testing.assert_allclose(
            fed_ops.fed_tsmm(fed).to_numpy(), data.T @ data, atol=1e-10
        )

    def test_tsmm_only_aggregates_leave_sites(self, row_federated):
        data, fed, (s1, s2) = row_federated
        before = s1.metrics["bytes_sent"]
        fed_ops.fed_tsmm(fed)
        sent = s1.metrics["bytes_sent"] - before
        assert sent == 6 * 6 * 8  # one k x k aggregate, not the raw rows

    def test_tmm(self, row_federated):
        data, fed, __ = row_federated
        y = np.random.default_rng(0).random((100, 1))
        result = fed_ops.fed_tmm(fed, BasicTensorBlock.from_numpy(y))
        np.testing.assert_allclose(result.to_numpy(), data.T @ y, atol=1e-10)

    def test_matmult_result_stays_federated(self, row_federated):
        data, fed, __ = row_federated
        b = np.random.default_rng(1).random((6, 2))
        result = fed_ops.fed_matmult(fed, BasicTensorBlock.from_numpy(b))
        assert isinstance(result, FederatedTensor)
        np.testing.assert_allclose(
            fed_ops.collect_federated(result).to_numpy(), data @ b, atol=1e-10
        )

    def test_elementwise_scalar(self, row_federated):
        data, fed, __ = row_federated
        result = fed_ops.fed_elementwise_scalar("*", fed, 3.0)
        np.testing.assert_allclose(
            fed_ops.collect_federated(result).to_numpy(), data * 3.0
        )

    def test_binary_rowsliced(self, row_federated):
        data, fed, __ = row_federated
        means = data.mean(axis=0, keepdims=True)
        result = fed_ops.fed_binary_rowsliced("-", fed, BasicTensorBlock.from_numpy(means))
        np.testing.assert_allclose(
            fed_ops.collect_federated(result).to_numpy(), data - means
        )

    @pytest.mark.parametrize("op", ["sum", "mean", "min", "max"])
    def test_full_aggregates(self, row_federated, op):
        data, fed, __ = row_federated
        expected = {"sum": data.sum(), "mean": data.mean(),
                    "min": data.min(), "max": data.max()}[op]
        assert fed_ops.fed_aggregate(op, fed, Direction.FULL) == pytest.approx(expected)

    def test_col_aggregate(self, row_federated):
        data, fed, __ = row_federated
        result = fed_ops.fed_aggregate("sum", fed, Direction.COL)
        np.testing.assert_allclose(result.to_numpy()[0], data.sum(axis=0))

    def test_row_aggregate(self, row_federated):
        data, fed, __ = row_federated
        result = fed_ops.fed_aggregate("sum", fed, Direction.ROW)
        np.testing.assert_allclose(result.to_numpy()[:, 0], data.sum(axis=1))


class TestPrivacy:
    def test_private_aggregate_blocks_raw_fetch(self, registry):
        site = registry.start_site("h:1")
        site.put("X", BasicTensorBlock.from_numpy(np.ones((4, 4))),
                 PrivacyConstraint(PrivacyLevel.PRIVATE_AGGREGATE))
        with pytest.raises(PrivacyError, match="raw"):
            site.fetch("X")

    def test_private_aggregate_allows_tsmm(self, registry):
        site = registry.start_site("h:1")
        data = np.random.default_rng(0).random((20, 3))
        site.put("X", BasicTensorBlock.from_numpy(data),
                 PrivacyConstraint(PrivacyLevel.PRIVATE_AGGREGATE))
        fed = FederatedTensor([
            FederatedPartition(site, "X", FederatedRange((0, 0), (20, 3)))
        ])
        np.testing.assert_allclose(fed_ops.fed_tsmm(fed).to_numpy(), data.T @ data)

    def test_private_blocks_aggregates_too(self, registry):
        site = registry.start_site("h:1")
        site.put("X", BasicTensorBlock.from_numpy(np.ones((4, 4))),
                 PrivacyConstraint(PrivacyLevel.PRIVATE))
        fed = FederatedTensor([
            FederatedPartition(site, "X", FederatedRange((0, 0), (4, 4)))
        ])
        with pytest.raises(PrivacyError, match="derived"):
            fed_ops.fed_tsmm(fed)

    def test_public_allows_everything(self, registry):
        site = registry.start_site("h:1")
        site.put("X", BasicTensorBlock.from_numpy(np.ones((4, 4))))
        assert site.fetch("X") is not None


class TestDMLIntegration:
    def _setup_sites(self, registry, data, split=60):
        s1 = registry.start_site("localhost:7001")
        s2 = registry.start_site("localhost:7002")
        constraint = PrivacyConstraint(PrivacyLevel.PRIVATE_AGGREGATE)
        s1.put("X", BasicTensorBlock.from_numpy(data[:split]), constraint)
        s2.put("X", BasicTensorBlock.from_numpy(data[split:]), constraint)

    def test_federated_lmds_matches_local(self, registry):
        rng = np.random.default_rng(8)
        data = rng.random((100, 5))
        y = data @ rng.random((5, 1))
        self._setup_sites(registry, data)
        source = """
        Xf = federated(addresses=list("localhost:7001/X", "localhost:7002/X"),
                       ranges=list(R1, R2))
        A = t(Xf) %*% Xf + diag(matrix(0.0000001, ncol(Xf), 1))
        b = t(Xf) %*% y
        B = solve(A, b)
        """
        ml = MLContext(ReproConfig())
        result = ml.execute(
            source,
            inputs={
                "y": y,
                "R1": np.asarray([[0.0, 0.0, 60.0, 5.0]]),
                "R2": np.asarray([[60.0, 0.0, 100.0, 5.0]]),
            },
            outputs=["B"],
        )
        expected = np.linalg.solve(data.T @ data + 1e-7 * np.eye(5), data.T @ y)
        np.testing.assert_allclose(result.matrix("B"), expected, atol=1e-9)

    @pytest.mark.parametrize("keep, hosted_after", [((), 1), (("Z",), 3)])
    def test_close_drops_the_scripts_site_intermediates(
        self, registry, keep, hosted_after
    ):
        self._setup_sites(registry, np.random.default_rng(9).random((100, 5)))
        source = """
        Xf = federated(addresses=list("localhost:7001/X", "localhost:7002/X"),
                       ranges=list(R1, R2))
        Z = (Xf %*% B) * 2
        """
        result = MLContext(ReproConfig()).execute(
            source,
            inputs={"B": np.ones((5, 2)),
                    "R1": np.asarray([[0.0, 0.0, 60.0, 5.0]]),
                    "R2": np.asarray([[60.0, 0.0, 100.0, 5.0]])},
            outputs=["Z"],
        )
        sites = [registry.site(f"localhost:{port}") for port in (7001, 7002)]
        assert [len(site._data) for site in sites] == [3, 3]  # X + 2 temps
        # a kept binding that still points at an intermediate keeps its
        # site's intermediates; the published X is never dropped
        result._ctx.close(keep=keep)
        assert [len(site._data) for site in sites] == [hosted_after] * 2
        assert all(site.has("X") for site in sites)

    def test_unknown_site_rejected(self, registry):
        source = """
        Xf = federated(addresses=list("nowhere:1/X"), ranges=list(R1))
        s = sum(Xf)
        """
        with pytest.raises(FederatedError, match="no federated worker"):
            MLContext().execute(
                source, inputs={"R1": np.asarray([[0.0, 0.0, 5.0, 5.0]])},
                outputs=["s"],
            )


class TestSiteConcurrencyAndIsolation:
    def test_fetch_returns_a_defensive_copy(self, registry):
        """Regression: fetch() returned the hosted block itself, so a
        caller mutating the "transferred" tensor corrupted the site."""
        site = registry.start_site("host1:9001")
        original = np.arange(12, dtype=float).reshape(3, 4)
        site.put("X", BasicTensorBlock.from_numpy(original.copy()))
        fetched = site.fetch("X")
        fetched.to_numpy()[:] = -1.0
        hosted = site.fetch("X").to_numpy()
        np.testing.assert_array_equal(hosted, original)

    def test_has_and_constraint_are_locked_and_consistent(self, registry):
        site = registry.start_site("host1:9002")
        errors = []
        stop = threading.Event()

        def writer():
            # a fixed amount of work (not wall-clock) bounds the stress run
            for index in range(400):
                site.put(f"T{index % 8}", BasicTensorBlock.from_numpy(np.ones((2, 2))))
            stop.set()

        def reader():
            try:
                while not stop.is_set():
                    for index in range(8):
                        name = f"T{index}"
                        if site.has(name):
                            constraint = site.constraint(name)
                            assert constraint is not None
            except FederatedError:
                pass  # name vanished between has() and constraint(): fine
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for __ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_constraint_unknown_name_raises(self, registry):
        site = registry.start_site("host1:9003")
        with pytest.raises(FederatedError, match="unknown tensor"):
            site.constraint("missing")
