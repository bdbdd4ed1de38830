"""ProcTransport: federated sites and RDD executors as real OS processes.

The ``tcp`` transport.  The coordinator keeps two small fixed pools of
supervised workers — site hosts (role ``fed``, the federated data plane)
and task executors (role ``rdd``) — on the shared :class:`~repro.net.
pool.WorkerPool`, which owns spawning, dialling the workers' addresses,
liveness, link repair, respawn + publication-log replay, same-id resend
and the kill points (see its module docstring for the failure model).  Pools
are deliberately small and shared: a qa fuzz sweep hosts hundreds of site
addresses, so addresses hash onto site workers by ``crc32(address) % n``
instead of mapping one process per address.

This module adds what is specific to the two compute roles: the
:class:`RemoteSiteProxy`/:class:`ProxyRegistry` RPC surface, the
per-address publication topics (every ``put``, ``update``,
``execute_and_store``, ``stop``/``start``, in order, until a ``drop``
prunes the stores it undoes; task executors are stateless and respawn
bare), batched site calls (:meth:`ProcTransport.site_calls`: one request
on every site worker at once), and round-robin task placement.

The transport is a process-global singleton (:meth:`ProcTransport.default`)
so repeated runs — the qa lattice, benches — reuse warm workers instead
of paying a Python+numpy spawn per run.
"""

from __future__ import annotations

import atexit
import itertools
import threading
import zlib
from typing import List, Optional, Sequence, Tuple

from repro.errors import FederatedError, TransportError
from repro.federated.site import FederatedWorkerRegistry
from repro.net.pool import WorkerPool
from repro.net.transport import Transport


#: Site methods whose requests are logged for replay into a respawn.
#: ``drop`` is not: it *prunes* the log instead (:meth:`ProcTransport.
#: site_calls`).
_MUTATING = frozenset(
    ("put", "execute_and_store", "update", "stop", "start")
)


class RemoteSiteProxy:
    """The :class:`~repro.federated.site.FederatedSite` surface over RPC.

    Federated instructions and the resilient channel only see this
    surface, so the push-down semantics, privacy checks, and byte
    accounting all run *worker-side*, unchanged.  Mutating calls are
    recorded in the transport's publication log after they succeed.
    """

    def __init__(self, transport: "ProcTransport", address: str):
        #: The transport hosting the site; requests to proxies that share
        #: one can be batched through :meth:`ProcTransport.site_calls`.
        self.transport = transport
        self.address = address

    def request(self, method: str, args: Tuple = ()) -> Tuple:
        """One :meth:`ProcTransport.site_calls` entry for this site."""
        return (self.address, method, args, {}, method in _MUTATING)

    def _call(self, method: str, *args):
        return self.transport.site_call(*self.request(method, args))

    # hosting / reads
    def put(self, name, block, constraint=None) -> None:
        self._call("put", name, block, constraint)

    def has(self, name) -> bool:
        return self._call("has", name)

    def constraint(self, name):
        return self._call("constraint", name)

    def metadata(self, name):
        return self._call("metadata", name)

    def fetch(self, name):
        return self._call("fetch", name)

    # execution
    def execute_local(self, name, operation, payload_bytes=0, flops=0):
        return self._call("execute_local", name, operation, payload_bytes, flops)

    def execute_and_return(self, name, operation, payload_bytes=0, flops=0):
        return self._call(
            "execute_and_return", name, operation, payload_bytes, flops
        )

    def execute_and_store(self, name, out, operation, payload_bytes=0, flops=0):
        return self._call(
            "execute_and_store", name, out, operation, payload_bytes, flops
        )

    def update(self, name, block) -> None:
        self._call("update", name, block)

    def drop(self, names) -> int:
        return self._call("drop", names)

    # lifecycle (logged so a respawned incarnation lands in the same state)
    def stop(self) -> None:
        self._call("stop")

    def start(self) -> None:
        self._call("start")

    @property
    def is_down(self) -> bool:
        return self._call("get_is_down")

    @property
    def metrics(self) -> dict:
        """A fresh snapshot of the worker-side site's transfer accounting."""
        return self._call("get_metrics")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteSiteProxy({self.address})"


def _stores_into(request: Tuple, names) -> bool:
    """Whether a logged request is an ``execute_and_store`` into ``names``."""
    return (
        request[0] == "site" and request[2] == "execute_and_store"
        and request[3][1] in names
    )


class ProxyRegistry(FederatedWorkerRegistry):
    """An address book of :class:`RemoteSiteProxy` objects.

    Subclasses the in-process registry so the coordinator-side health
    machinery — blacklists, cooldowns, replica chains, used verbatim by
    :class:`~repro.resilience.channel.ResilientChannel` — is inherited
    unchanged; only site creation/lookup crosses the process boundary.
    """

    def __init__(self, transport: "ProcTransport"):
        super().__init__()
        self._transport = transport

    def start_site(self, address: str) -> RemoteSiteProxy:
        with self._lock:
            proxy = self._sites.get(address)
        if proxy is not None:
            return proxy
        self._transport.registry_call(address, "start_site")
        with self._lock:
            proxy = self._sites.get(address)
            if proxy is None:
                proxy = self._sites[address] = RemoteSiteProxy(
                    self._transport, address
                )
        return proxy

    def site(self, address: str) -> RemoteSiteProxy:
        with self._lock:
            proxy = self._sites.get(address)
        if proxy is None:
            raise FederatedError(f"no federated worker at {address!r}")
        return proxy

    def stop_site(self, address: str) -> None:
        self._transport.registry_call(address, "stop_site", log=False)
        self._transport.forget_address(address)
        with self._lock:
            self._sites.pop(address, None)

    def clear(self) -> None:
        self._transport.clear_sites()
        super().clear()

    def total_bytes_transferred(self) -> int:
        with self._lock:
            proxies = list(self._sites.values())
        return sum(
            proxy.metrics["bytes_sent"] + proxy.metrics["bytes_received"]
            for proxy in proxies
        )


class ProcTransport(WorkerPool, Transport):
    """Process-boundary transport (see module docstring)."""

    name = "tcp"

    _instance: Optional["ProcTransport"] = None
    _instance_lock = threading.Lock()

    def __init__(self, site_workers: int = 2, task_workers: int = 2, **pool):
        """``pool``: the :class:`WorkerPool` knobs (heartbeat, timeouts,
        respawn limit, host, reconnect backoff)."""
        super().__init__({"fed": site_workers, "rdd": task_workers}, **pool)
        self._task_rr = itertools.count()
        self._registry = ProxyRegistry(self)

    @classmethod
    def default(cls, config=None) -> "ProcTransport":
        """The process-global transport for this class (created on first
        use, recreated only when the config-derived knobs change)."""
        params = cls.params_from(config)
        with cls._instance_lock:
            instance = cls.__dict__.get("_instance")
            stale = (
                instance is None or instance._closed
                or getattr(instance, "_build_params", None) != params
            )
            if stale:
                if instance is not None and not instance._closed:
                    instance.close()
                instance = cls(**params)
                instance._build_params = params
                atexit.register(instance.close)
                cls._instance = instance
            return instance

    # --- Transport interface -------------------------------------------------

    def registry(self) -> ProxyRegistry:
        return self._registry

    def run_task(self, task) -> List:
        index = next(self._task_rr) % len(self._pools["rdd"])
        return self.round_trip("rdd", index, ("task", task), "rdd.worker")

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["mode"] = self.name
        snap["site_workers"] = len(self._pools["fed"])
        snap["task_workers"] = len(self._pools["rdd"])
        return snap

    # --- site requests -------------------------------------------------------

    def site_call(self, address: str, method: str, args: Tuple = (),
                  kwargs: Optional[dict] = None, mutate: bool = False):
        """One RPC to the worker hosting ``address``; log mutations."""
        return self.site_calls([(address, method, args, kwargs, mutate)])[0]

    def site_calls(self, calls: Sequence[Tuple]) -> List:
        """Scatter ``(address, method, args, kwargs, mutate)`` site RPCs
        (:meth:`WorkerPool.scatter`); replies in call order.

        A ``drop`` first prunes the address's topic of the
        ``execute_and_store`` requests that created the dropped names —
        closure and payload included, they would otherwise be replayed
        into every respawn.  Pruning before sending keeps a death during
        the drop consistent: the replay no longer creates the names.
        """
        scattered = []
        for address, method, args, kwargs, mutate in calls:
            owner = self._owner(address)
            if method == "drop":
                names = frozenset(args[0])
                self.prune(
                    "fed", owner, address,
                    lambda request, names=names: not _stores_into(request, names),
                )
            scattered.append((
                "fed", owner, ("site", address, method, args, kwargs or {}),
                "fed.worker", address if mutate else None,
            ))
        return self.scatter(scattered)

    def registry_call(self, address: str, method: str, log: bool = True) -> None:
        """A registry-level RPC (site creation/removal) for one address."""
        self.round_trip(
            "fed", self._owner(address), ("reg", method, (address,)),
            "fed.worker", topic=address if log else None,
        )

    def forget_address(self, address: str) -> None:
        self.forget("fed", self._owner(address), address)

    def clear_sites(self) -> None:
        """Wipe hosted state on every live site worker and drop the log."""
        for index, handle in enumerate(self._pools["fed"]):
            self.forget("fed", index)
            if handle is None:
                continue
            try:
                self.round_trip("fed", index, ("reg", "clear", ()))
            except (TransportError, OSError):  # pragma: no cover - dying pool
                pass

    def _owner(self, address: str) -> int:
        return zlib.crc32(address.encode()) % len(self._pools["fed"])
