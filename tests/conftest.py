"""Repo-wide test fixtures.

Every test starts from the same global RNG state so suites cannot leak
nondeterminism into each other through the module-level ``random`` /
``numpy.random`` generators (tests that want their own streams should use
``np.random.default_rng(seed)`` locally, which is unaffected).

Every test also starts with an empty process-wide lineage reuse cache, so
no test can be served (or starved) by entries an earlier test left behind,
and test order cannot matter.

The session ends with a leak check: once the process-global transports
are closed and garbage is collected, no ``multiprocessing`` child may be
alive, and no ``rshm-*`` segment this process published and no
``repro-spill-*`` directory that is empty or holds only this process's
pid marker may have appeared since the session started (a pool removes
its spill directory at ``close()``, or when it is collected unclosed).
Cached programs hold no pool, so the check holds with the program cache
warm.  A leak fails the run.

``wait_until`` is the repo-wide replacement for fixed ``time.sleep`` in
tests that coordinate with background threads (the serving batcher's
takers): it polls a predicate with a bounded deadline, so tests pass as
fast as the thread allows and fail loudly instead of flaking when it
stalls.
"""

import gc
import multiprocessing
import os
import random
import tempfile
import time

import numpy as np
import pytest

from repro.io.shm import HEADER_SIZE, SHM_DIR, SHM_PREFIX, _read_header
from repro.lineage import clear_reuse_caches
from repro.runtime.bufferpool import PID_FILE, SPILL_PREFIX


def _published_here(path: str) -> bool:
    """Whether a segment's header names this process as its publisher."""
    try:
        with open(path, "rb") as handle:
            header = _read_header(handle.read(HEADER_SIZE))
    except OSError:
        return False
    return header is not None and header["pid"] == os.getpid()


def _abandoned_spill_dir(path: str) -> bool:
    """Empty, or holding nothing but this process's pid marker."""
    try:
        names = os.listdir(path)
        if names == [PID_FILE]:
            with open(os.path.join(path, PID_FILE), encoding="utf-8") as handle:
                return handle.read().strip() == str(os.getpid())
    except OSError:
        return False
    return not names


def _leftovers() -> set:
    """Segments this process published and abandoned spill directories."""
    found = set()
    for root, prefix, left in ((SHM_DIR, SHM_PREFIX, _published_here),
                               (tempfile.gettempdir(), SPILL_PREFIX,
                                _abandoned_spill_dir)):
        try:
            names = os.listdir(root)
        except OSError:
            continue
        found.update(os.path.join(root, name) for name in names
                     if name.startswith(prefix) and left(os.path.join(root, name)))
    return found


def pytest_sessionstart(session):
    session.config._leftovers_at_start = _leftovers()


def pytest_sessionfinish(session, exitstatus):
    from repro.net.chaos import ChaosTransport
    from repro.net.proc import ProcTransport

    for cls in (ProcTransport, ChaosTransport):
        instance = cls.__dict__.get("_instance")
        if instance is not None:
            instance.close()
    gc.collect()  # an unclosed pool's finalizer removes its spill directory
    leaks = sorted(_leftovers() - session.config._leftovers_at_start)
    leaks += [f"live child process {child.name} (pid {child.pid})"
              for child in multiprocessing.active_children()]
    if leaks:
        print("\nleaked by the test session:\n  " + "\n  ".join(leaks))
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
