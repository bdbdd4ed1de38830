"""Repo-wide test fixtures.

Every test starts from the same global RNG state so suites cannot leak
nondeterminism into each other through the module-level ``random`` /
``numpy.random`` generators (tests that want their own streams should use
``np.random.default_rng(seed)`` locally, which is unaffected).

Every test also starts with an empty process-wide lineage reuse cache, so
no test can be served (or starved) by entries an earlier test left behind,
and test order cannot matter.

``wait_until`` is the repo-wide replacement for fixed ``time.sleep`` in
tests that coordinate with background threads (the serving batcher's
takers): it polls a predicate with a bounded deadline, so tests pass as
fast as the thread allows and fail loudly instead of flaking when it
stalls.
"""

import random
import time

import numpy as np
import pytest

from repro.lineage import clear_reuse_caches


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    random.seed(0xC0FFEE)
    np.random.seed(0xC0FFEE)
    yield


@pytest.fixture(autouse=True)
def _empty_reuse_cache():
    clear_reuse_caches()
    yield


def wait_until(predicate, timeout=5.0, message="condition never became true"):
    """Poll ``predicate`` until true (bounded); replaces fixed sleeps."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.001)


@pytest.fixture(name="wait_until")
def _wait_until_fixture():
    return wait_until
