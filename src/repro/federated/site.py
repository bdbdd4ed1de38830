"""Federated sites: worker control programs holding local data.

A :class:`FederatedSite` models one federated worker — its own symbol
table of hosted tensors, privacy constraints, and a small request protocol
(get metadata, execute an operation locally, retrieve a result).  All
communication goes through ``request``/``respond`` so bytes in/out are
accounted per site; the :class:`FederatedWorkerRegistry` plays the role of
the address book (host:port -> site).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import FederatedError, SiteDownError
from repro.federated.privacy import PrivacyConstraint, PrivacyLevel
from repro.tensor import BasicTensorBlock
from repro.tensor import ops as local_ops


class FederatedSite:
    """One federated worker with local data and transfer accounting."""

    #: In-process sites have no transport; a remote proxy names the one
    #: that hosts it (:class:`repro.net.proc.RemoteSiteProxy`).
    transport = None

    def __init__(self, address: str):
        self.address = address
        self._data: Dict[str, BasicTensorBlock] = {}
        self._constraints: Dict[str, PrivacyConstraint] = {}
        self._lock = threading.RLock()
        self._down = False
        self.metrics = {
            "requests": 0,
            "bytes_received": 0,
            "bytes_sent": 0,
            "local_flops": 0,
        }

    # --- lifecycle (dead-site modelling for the resilience layer) -----------

    def stop(self) -> None:
        """Kill the worker: data-plane requests raise :class:`SiteDownError`."""
        with self._lock:
            self._down = True

    def start(self) -> None:
        """Bring a stopped worker back up (hosted data survived)."""
        with self._lock:
            self._down = False

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._down

    def _check_up(self) -> None:
        if self._down:
            raise SiteDownError(self.address)

    # --- hosting -------------------------------------------------------------

    def put(
        self,
        name: str,
        block: BasicTensorBlock,
        constraint: Optional[PrivacyConstraint] = None,
    ) -> None:
        with self._lock:
            self._data[name] = block
            self._constraints[name] = constraint or PrivacyConstraint()

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._data

    def constraint(self, name: str) -> PrivacyConstraint:
        with self._lock:
            entry = self._constraints.get(name)
        if entry is None:
            raise FederatedError(f"site {self.address}: unknown tensor {name!r}")
        return entry

    def metadata(self, name: str):
        with self._lock:
            self._check_up()
            block = self._require(name)
            self.metrics["requests"] += 1
            return {"shape": block.shape, "nnz": block.nnz}

    def _require(self, name: str) -> BasicTensorBlock:
        block = self._data.get(name)
        if block is None:
            raise FederatedError(f"site {self.address}: unknown tensor {name!r}")
        return block

    # --- request protocol ---------------------------------------------------------

    def fetch(self, name: str) -> BasicTensorBlock:
        """Ship a copy of the hosted tensor (checked against its constraint).

        The copy models the serialisation boundary of a real transfer:
        callers can never mutate the tensor the site keeps hosting.
        """
        with self._lock:
            self._check_up()
            block = self._require(name)
            self.constraint(name).check_raw_transfer(name)
            self.metrics["requests"] += 1
            self.metrics["bytes_sent"] += block.memory_size()
            return block.copy()

    def execute_local(
        self,
        name: str,
        operation: Callable[[BasicTensorBlock], BasicTensorBlock],
        payload_bytes: int = 0,
        flops: int = 0,
    ) -> BasicTensorBlock:
        """Run an operation on the hosted tensor; result stays at the site.

        The hosted block is snapshotted under the site lock, but the user
        operation runs *outside* it — a long local computation must not
        block concurrent ``has``/``metadata``/``fetch`` on the same site.
        Metrics commit after the operation succeeds.
        """
        with self._lock:
            self._check_up()
            block = self._require(name)
        result = operation(block)
        with self._lock:
            self.metrics["requests"] += 1
            self.metrics["bytes_received"] += payload_bytes
            self.metrics["local_flops"] += flops
        return result

    def execute_and_return(
        self,
        name: str,
        operation: Callable[[BasicTensorBlock], BasicTensorBlock],
        payload_bytes: int = 0,
        flops: int = 0,
    ) -> BasicTensorBlock:
        """Run an operation and ship the (aggregate) result to the caller."""
        result = self.execute_local(name, operation, payload_bytes, flops)
        self.constraint(name).check_aggregate_transfer(name)
        with self._lock:
            self.metrics["bytes_sent"] += result.memory_size()
        return result

    def execute_and_store(
        self,
        name: str,
        out: str,
        operation: Callable[[BasicTensorBlock], BasicTensorBlock],
        payload_bytes: int = 0,
        flops: int = 0,
    ) -> dict:
        """Run an operation and host the result at the site under ``out``.

        The fused push-down write path: compute + store is one request, so
        the result never ships to the coordinator (only its metadata does)
        and a process-boundary transport pays a single round trip.  The
        output inherits the input's privacy constraint.
        """
        result = self.execute_local(name, operation, payload_bytes, flops)
        self.put(out, result, self.constraint(name))
        return {"shape": result.shape, "nnz": result.nnz}

    def update(self, name: str, block: BasicTensorBlock) -> None:
        """Replace the hosted tensor (e.g. with a locally computed update)."""
        with self._lock:
            self._check_up()
            if name not in self._data:
                raise FederatedError(f"site {self.address}: unknown tensor {name!r}")
            self._data[name] = block

    def drop(self, names) -> int:
        """Stop hosting ``names`` (unknown ones are skipped); returns how
        many tensors were dropped.

        Housekeeping, not a data-plane request: it counts no request and
        works on a stopped site.
        """
        with self._lock:
            hosted = [name for name in names if name in self._data]
            for name in hosted:
                del self._data[name]
                del self._constraints[name]
        return len(hosted)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FederatedSite({self.address}, tensors={sorted(self._data)})"


class FederatedWorkerRegistry:
    """Address book mapping 'host:port/name' style addresses to sites.

    In a real deployment these would be network endpoints; here sites are
    in-process workers, which preserves the push-down semantics and the
    transfer accounting (see DESIGN.md substitutions).
    """

    _instance: Optional["FederatedWorkerRegistry"] = None
    _instance_lock = threading.Lock()

    def __init__(self):
        self._sites: Dict[str, FederatedSite] = {}
        self._lock = threading.RLock()
        self._unhealthy: Dict[str, float] = {}  # address -> blacklisted-until
        self._replicas: Dict[str, str] = {}  # primary address -> replica address

    @classmethod
    def default(cls) -> "FederatedWorkerRegistry":
        with cls._instance_lock:
            if cls._instance is None:
                cls._instance = cls()
            return cls._instance

    def start_site(self, address: str) -> FederatedSite:
        with self._lock:
            site = self._sites.get(address)
            if site is None:
                site = FederatedSite(address)
                self._sites[address] = site
            return site

    def site(self, address: str) -> FederatedSite:
        with self._lock:
            site = self._sites.get(address)
            if site is None:
                raise FederatedError(f"no federated worker at {address!r}")
            return site

    def stop_site(self, address: str) -> None:
        with self._lock:
            self._sites.pop(address, None)

    def clear(self) -> None:
        with self._lock:
            self._sites.clear()
            self._unhealthy.clear()
            self._replicas.clear()

    # --- health / failover (used by repro.resilience.ResilientChannel) -------

    def set_replica(self, primary: str, replica: str) -> None:
        """Declare a failover target: requests to ``primary`` may be served
        by ``replica`` when the primary is blacklisted or keeps failing."""
        with self._lock:
            self._replicas[primary] = replica

    def replica_of(self, address: str) -> Optional[str]:
        with self._lock:
            return self._replicas.get(address)

    def mark_unhealthy(self, address: str, until: float) -> None:
        """Blacklist a site until the given monotonic-clock instant."""
        with self._lock:
            self._unhealthy[address] = until

    def is_healthy(self, address: str, now: Optional[float] = None) -> bool:
        """True unless the site is inside a blacklist cooldown window."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            until = self._unhealthy.get(address)
            if until is None:
                return True
            if now >= until:
                del self._unhealthy[address]  # cooldown elapsed: rehabilitate
                return True
            return False

    def blacklisted(self, now: Optional[float] = None) -> Dict[str, float]:
        """Currently blacklisted addresses -> remaining cooldown seconds."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            return {
                address: until - now
                for address, until in self._unhealthy.items()
                if until > now
            }

    def total_bytes_transferred(self) -> int:
        with self._lock:
            return sum(
                site.metrics["bytes_sent"] + site.metrics["bytes_received"]
                for site in self._sites.values()
            )
