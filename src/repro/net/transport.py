"""The transport interface: where federated sites and RDD tasks execute.

A :class:`Transport` answers two questions for the runtime:

* *where do federated sites live?* — :meth:`Transport.registry` returns
  the :class:`~repro.federated.site.FederatedWorkerRegistry` (or a
  registry of site *proxies*) that hosts them;
* *where do RDD tasks run?* — :meth:`Transport.run_task` executes one
  per-partition task callable.

:class:`InProcTransport` keeps today's behaviour bit-for-bit: sites are
in-process objects in the default registry and tasks run directly on the
calling thread (the Spark context's thread pool).  It is the tier-1
default because it adds zero overhead.  :class:`~repro.net.proc.
ProcTransport` (``tcp``) moves both behind real OS processes on dialable
addresses and a frame protocol, so the resilience and checkpoint layers
face genuine process deaths and severed links.
"""

from __future__ import annotations

from typing import Callable, List, Optional

#: Stable key set of every transport's stats snapshot, so obs reports and
#: CI assertions can rely on the keys existing in both modes.
STAT_KEYS = (
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "heartbeats_seen",
    "heartbeats_missed",
    "worker_deaths",
    "worker_respawns",
    "resent_requests",
    "dedup_hits",
    "replayed_publications",
    # requests sent while another slot's reply was still outstanding
    "scattered_requests",
    # link lifecycle (always zero under inproc)
    "reconnects",
    "partitions",
    "frames_dropped",
    "frames_duplicated",
    "frames_corrupt_rejected",
)


class Transport:
    """Strategy interface for remote execution (see module docstring)."""

    name = "abstract"

    def registry(self):
        """The federated worker registry this transport hosts sites in."""
        raise NotImplementedError

    def run_task(self, task: Callable[[], List]) -> List:
        """Execute one RDD per-partition task and return its records."""
        raise NotImplementedError

    def bind_resilience(self, resilience) -> None:
        """Attach the run's :class:`~repro.resilience.ResilienceManager`.

        Gives the transport the fault injector (for the ``fed.worker`` /
        ``rdd.worker`` SIGKILL points) and the shared stats so worker
        deaths/respawns are counted in the resilience section too.
        """

    def unbind_resilience(self, resilience) -> None:
        """Detach ``resilience`` if it is still the bound manager."""

    def snapshot(self) -> dict:
        """The obs ``transport`` section (stable keys: ``STAT_KEYS``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (workers, sockets)."""


class InProcTransport(Transport):
    """Thread-simulation transport: the zero-overhead tier-1 default."""

    name = "inproc"

    def registry(self):
        from repro.federated.site import FederatedWorkerRegistry

        return FederatedWorkerRegistry.default()

    def run_task(self, task: Callable[[], List]) -> List:
        return task()

    def snapshot(self) -> dict:
        snap = {key: 0 for key in STAT_KEYS}
        snap["mode"] = self.name
        return snap


def for_config(config) -> Optional[Transport]:
    """The transport a :class:`~repro.config.ReproConfig` selects.

    Returns ``None`` for ``inproc`` — the runtime treats a missing
    transport as the direct in-process path, keeping every hot-path check
    a single ``is None`` like the other optional subsystems.
    """
    if getattr(config, "transport", "inproc") != "tcp":
        return None
    from repro.net.chaos import ChaosTransport, spec_targets_network
    from repro.net.proc import ProcTransport

    if spec_targets_network(getattr(config, "fault_spec", None)):
        # wire faults requested: interpose the chaos layer
        return ChaosTransport.default(config)
    return ProcTransport.default(config)


def registry_for(config):
    """The federated registry for a config's transport mode."""
    transport = for_config(config)
    if transport is not None:
        return transport.registry()
    from repro.federated.site import FederatedWorkerRegistry

    return FederatedWorkerRegistry.default()
