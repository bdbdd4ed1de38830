"""repro.net: the process-boundary layer (DESIGN.md §13).

:class:`~repro.net.pool.WorkerPool` is the one supervisor of spawned OS
worker processes: role-agnostic slots speaking the length-prefixed,
checksummed, request-id-tagged frame protocol of :mod:`repro.net.frames`,
with heartbeat liveness, idempotent retry by request-id dedup, and
worker respawn that replays published state.  Three roles ride it —
``fed`` and ``rdd`` through the transports below, ``score`` through
:class:`repro.serving.ShardedScoringService`.

The transports select *where* federated sites and RDD tasks execute:

* :class:`InProcTransport` — thread simulations, zero overhead, the
  tier-1 default;
* :class:`ProcTransport` — the ``tcp`` transport: site hosts and task
  executors as pool workers on dialable ``host:port`` addresses, with
  per-address publication topics and round-robin tasks;
* :class:`ChaosTransport` — the tcp transport under seeded wire-level
  fault injection (``net.drop``/``net.delay_ms``/``net.dup``/
  ``net.corrupt``/``net.partition``).

Every pool worker — ``fed``, ``rdd`` and ``score`` alike — listens and
is dialled, so all three get the same partition semantics: peer dead =
respawn + replay; link down = reconnect + same-id resend answered from
the dedup cache.  ``for_config``/``registry_for`` resolve the mode from
a :class:`~repro.config.ReproConfig` (``transport="inproc"|"tcp"``).
"""

from repro.net.transport import (
    InProcTransport,
    Transport,
    for_config,
    registry_for,
)

__all__ = [
    "ChaosTransport",
    "InProcTransport",
    "ProcTransport",
    "Transport",
    "WorkerPool",
    "for_config",
    "registry_for",
]


def __getattr__(name):
    # The pool and process transports pull in multiprocessing; import
    # them lazily.
    if name == "WorkerPool":
        from repro.net.pool import WorkerPool

        return WorkerPool
    if name == "ProcTransport":
        from repro.net.proc import ProcTransport

        return ProcTransport
    if name == "ChaosTransport":
        from repro.net.chaos import ChaosTransport

        return ChaosTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
