"""TcpTransport: workers on real TCP addresses, links that can die.

The proc transport (:mod:`repro.net.proc`) reaches workers through
pipes-in-spirit: the coordinator listens, each spawned worker dials back
once, and that single connection *is* the worker — losing it means the
worker is gone.  This module inverts the direction to make the link a
first-class, failable resource, the way it is between real machines:

* each worker **listens** on its own ``host:port`` (loopback by default,
  a LAN address via ``transport_host``) and registers the address with
  the coordinator through a one-shot bootstrap connection;
* the coordinator keeps that **address book** (``(role, index) ->
  (host, port)``, surfaced in the stats snapshot) and **dials** workers
  with a connect timeout, verifying the greeting pid so a half-open or
  recycled port can never be mistaken for the right peer;
* a severed link is repaired by **reconnect + same-id resend**, and only
  an actually-dead peer falls back to the proc-style respawn +
  publication-log replay.

Partition semantics
-------------------
The two failure modes the coordinator must distinguish:

==============  =========================================================
peer dead       process gone: respawn a fresh incarnation at a fresh
                address, replay the publication log (state rebuild)
link down       process alive, connection severed: redial with
                :class:`~repro.resilience.retry.RetryPolicy` capped-expo
                backoff + jitter, then resend the in-flight request with
                the SAME id — if the worker executed it during the
                partition, its dedup cache answers STATUS_REPLAY, so the
                request is never executed twice
==============  =========================================================

:meth:`TcpTransport._repair_link` implements the link-down path around
both phases of a request (:meth:`_send_request`, :meth:`_await_reply`):
every EOF/torn-frame failure first tries :meth:`_reconnect`; only when
the peer is provably dead (process exited, redial budget exhausted, or a
different pid answered) does the error propagate to the pool's death
loop, which respawns and replays.  During a scatter the repair of one
link leaves the other slots' replies waiting in their sockets.  Worker
state survives partitions because the tcp worker's registry and dedup
cache live across connections (:func:`repro.net.worker.tcp_worker_main`).

Everything above the socket — pools, publication log, heartbeat-based
liveness, request timeouts, the dedup protocol — is inherited from
:class:`~repro.net.proc.ProcTransport` unchanged.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import FrameProtocolError, TransportClosedError, TransportError
from repro.net.pool import _Handle, recv_ready
from repro.net.proc import ProcTransport
from repro.net.worker import tcp_worker_main
from repro.resilience.retry import RetryPolicy

#: Connect + READY-greeting deadline (s) when dialing a tcp worker
#: (bounds half-open connection detection).
CONNECT_TIMEOUT_S = 5.0

#: Redial attempts after a severed tcp link before the peer is declared
#: dead (escalating to respawn + publication replay).
RECONNECT_RETRIES = 4


class _TcpHandle(_Handle):
    """A worker incarnation plus the address it listens on."""

    __slots__ = ("host", "port", "repairs")

    def __init__(self, role: str, index: int, incarnation: int, process,
                 sock: socket.socket, pid: int, host: str, port: int):
        super().__init__(role, index, incarnation, process, sock, pid)
        self.host = host
        self.port = port
        #: Link repairs since the last reply arrived on this incarnation.
        self.repairs = 0


class TcpTransport(ProcTransport):
    """Process transport over dialable TCP addresses (see module docstring)."""

    name = "tcp"

    _instance: Optional["TcpTransport"] = None

    #: Ceiling on link repairs for ONE request, so a link that dies
    #: instantly every time cannot spin forever (each repair already
    #: burned a full reconnect budget).
    MAX_LINK_REPAIRS = 8

    def __init__(self, site_workers: int = 2, task_workers: int = 2,
                 heartbeat_s: float = 0.25, request_timeout_s: float = 60.0,
                 respawn_limit: int = 3, miss_grace: float = 3.0,
                 host: str = "127.0.0.1",
                 reconnect_backoff_ms: float = 20.0,
                 reconnect_backoff_max_ms: float = 500.0):
        super().__init__(site_workers, task_workers, heartbeat_s,
                         request_timeout_s, respawn_limit,
                         miss_grace=miss_grace)
        self.host = host
        self.reconnect_policy = RetryPolicy(
            max_retries=RECONNECT_RETRIES,
            backoff_ms=reconnect_backoff_ms,
            max_backoff_ms=reconnect_backoff_max_ms,
        )
        # deterministic jitter stream for reconnect backoff
        self._reconnect_rng = random.Random(0x7C9D1EB3)
        #: The remote-addressable registry: (role, index) -> (host, port).
        self._addresses: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._addresses_lock = threading.Lock()

    @classmethod
    def params_from(cls, config) -> dict:
        if config is None:
            from repro.config import ReproConfig
            config = ReproConfig()
        params = super().params_from(config)
        params["host"] = config.transport_host
        return params

    # --- connection lifecycle ------------------------------------------------

    def _dial(self, host: str, port: int) -> Tuple[socket.socket, int]:
        """Connect to a worker's service address and read its greeting.

        Returns ``(socket, pid)``.  The greeting is what detects half-open
        connections: a listener that accepts but whose process is wedged
        (or a recycled port owned by a stranger) fails the READY exchange
        within :data:`CONNECT_TIMEOUT_S` instead of wedging the coordinator.
        """
        sock = socket.create_connection(
            (host, port), timeout=CONNECT_TIMEOUT_S
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(CONNECT_TIMEOUT_S)
            hello = recv_ready(sock, f"worker at {host}:{port}")
        except BaseException:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise
        sock.settimeout(self.heartbeat_s)
        return sock, hello["pid"]

    def _spawn(self, role: str, index: int, incarnation: int) -> _TcpHandle:
        # the bootstrap connection only carries the registration
        process, boot, hello = self._bootstrap(
            self.host, tcp_worker_main,
            (self.host, role, index, self.heartbeat_s),
            f"net-tcp-{role}-{index}.{incarnation}",
        )
        boot.close()
        host, port = hello["host"], hello["port"]
        with self._addresses_lock:
            self._addresses[(role, index)] = (host, port)
        sock, pid = self._dial(host, port)
        if pid != hello["pid"]:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            raise TransportError(
                f"tcp {role} worker {index} at {host}:{port} answered with "
                f"pid {pid}, expected {hello['pid']}"
            )
        return _TcpHandle(role, index, incarnation, process, sock,
                          hello["pid"], host, port)

    def _reconnect(self, handle: _TcpHandle) -> bool:
        """Repair a severed link to a live worker.

        Redials the worker's registered address under the reconnect
        policy's capped-expo backoff + deterministic jitter.  Returns
        ``False`` when the peer is dead (process gone, budget exhausted,
        or a different pid greeted us) — the caller then escalates to
        respawn + replay.
        """
        try:
            handle.sock.close()
        except OSError:  # pragma: no cover
            pass
        attempt = 0
        while True:
            if not handle.alive():
                return False
            try:
                sock, pid = self._dial(handle.host, handle.port)
            except (OSError, TransportError, FrameProtocolError):
                if attempt >= self.reconnect_policy.max_retries:
                    return False
                delay = self.reconnect_policy.delay_s(
                    attempt, self._reconnect_rng
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if pid != handle.pid:
                # a stranger on a recycled port, or a raced incarnation:
                # either way this is not the peer we were talking to
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
                return False
            handle.sock = sock
            self._bump("reconnects")
            return True

    # --- both phases of a request, wrapped in link repair ---------------------

    def _send_request(self, handle: _TcpHandle, request_id: int, body: bytes,
                      point: Optional[str] = None) -> None:
        try:
            super()._send_request(handle, request_id, body, point)
        except (TransportClosedError, FrameProtocolError) as exc:
            self._repair_link(handle, request_id, body, exc)

    def _await_reply(self, handle: _TcpHandle, request_id: int, body: bytes):
        while True:
            try:
                reply = super()._await_reply(handle, request_id, body)
            except (TransportClosedError, FrameProtocolError) as exc:
                self._repair_link(handle, request_id, body, exc)
                continue
            handle.repairs = 0
            return reply

    def _repair_link(self, handle: _TcpHandle, request_id: int, body: bytes,
                     error: Exception) -> None:
        """Reconnect, then resend the SAME id; a request that executed
        during the partition is answered from the worker's dedup cache
        (STATUS_REPLAY), never re-executed.

        Raises ``error`` when the peer is dead or the request's repair
        budget is spent: the pool's death loop respawns + replays.  The
        resend carries no fault point — a kill fault gets one shot per
        request.
        """
        while True:
            handle.repairs += 1
            if handle.repairs > self.MAX_LINK_REPAIRS \
                    or not self._reconnect(handle):
                raise error
            try:
                return super()._send_request(handle, request_id, body)
            except (TransportClosedError, FrameProtocolError) as exc:
                error = exc

    def snapshot(self) -> dict:
        snap = super().snapshot()
        with self._addresses_lock:
            snap["addresses"] = {
                f"{role}-{index}": f"{host}:{port}"
                for (role, index), (host, port) in sorted(self._addresses.items())
            }
        return snap
