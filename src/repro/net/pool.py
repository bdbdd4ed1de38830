"""WorkerPool: the one supervisor of spawned OS worker processes.

A pool keeps a fixed number of spawn-context worker slots per *role* and
knows nothing about what a role does — the request payload carries its
own dispatch tag (:mod:`repro.net.worker`).  Three roles ride it:
federated site hosts and RDD task executors (:class:`~repro.net.proc.
ProcTransport`) and the scoring workers of :class:`~repro.serving.
workers.ShardedScoringService`.  Every worker runs the one worker main:
it listens on its own ``host:port`` (``transport_host``), registers the
address through a one-shot bootstrap connection, and the pool *dials* it
with a connect timeout and a pid check (:meth:`WorkerPool._spawn`).  The
session speaks the :mod:`repro.net.frames` protocol, with one request in
flight per slot (the slot lock).

Scatter/gather
--------------
A round trip is two phases — send a request (:meth:`WorkerPool.
_send_request`), await its reply (:meth:`WorkerPool._await_reply`) — and
:meth:`WorkerPool.scatter` runs a list of calls on top of them: it takes
the slot locks in sorted order, sends to every distinct slot before it
awaits any reply, and returns each call's reply or exception in call
order.  Calls that share a slot run one after the other.
:meth:`WorkerPool.round_trip` is the one-call case, which raises.

Failure model
-------------
* **Liveness** — workers heartbeat on their socket; while awaiting a
  response the coordinator counts silent grace windows
  (``heartbeats_missed``) and probes the process.  A dead-and-silent
  process is a dead worker.
* **Link down vs peer dead** — EOF or a torn frame means the *link*
  died, not necessarily the worker.  :meth:`WorkerPool._repair_link`
  redials the registered address (capped-expo backoff + jitter, pid
  checked) and resends the in-flight request with the SAME id; a worker
  that executed it during the outage answers from its dedup cache.  Only
  when the peer is provably dead (process gone, redial budget spent, a
  different pid answered) does the error reach the death loop.
* **Respawn + replay** — a dead worker loses its state.  The pool keeps
  a per-slot *publication log* (every request sent with a ``topic``, in
  order) and replays it into the fresh incarnation — lineage-style
  recovery: the requests are deterministic, so the rebuilt state is
  bit-identical.  Slots with an empty log respawn bare.
* **Idempotent resend** — the in-flight request is resent with the SAME
  request id (to the dead slot only: the other slots of a scatter keep
  their requests, and their replies wait in their sockets meanwhile).
  If the old incarnation had executed it and only the ACK was lost
  (wedged worker, resend-on-timeout), the worker's dedup cache replays
  the recorded response instead of double-executing (``dedup_hits``).
* **Wedge** — a worker that is alive but silent past
  ``request_timeout_s`` gets one same-id resend, then is killed and
  recovered like any other death.
* **Chaos** — with a resilience manager bound, a call's fault ``point``
  (``fed.worker`` / ``rdd.worker`` / ``serve.worker``) SIGKILLs the worker
  right after the request is sent, exercising exactly this recovery path
  on a seeded schedule.  The draws follow the sends, which run on the
  calling thread in sorted slot order, so a scatter replays too.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import signal
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    FrameProtocolError,
    TransportClosedError,
    TransportError,
    WorkerRespawnError,
)
from repro.net import frames, serde
from repro.net.transport import STAT_KEYS
from repro.net.worker import STATUS_REPLAY, worker_main
from repro.resilience.retry import RetryPolicy

#: How long one worker gets to spawn, import, and register its address.
READY_TIMEOUT_S = 60.0

#: Connect + READY-greeting deadline (s) when dialing a worker (bounds
#: half-open connection detection).
CONNECT_TIMEOUT_S = 5.0

#: Redials of a severed link before the peer is declared dead (escalating
#: to respawn + publication replay).
RECONNECT_RETRIES = 4

#: Ceiling on link repairs for ONE request, so a link that dies instantly
#: every time cannot spin forever (each repair already burned a full
#: redial budget).
MAX_LINK_REPAIRS = 8


def recv_ready(sock: socket.socket, who: str) -> dict:
    """Read a worker's READY frame; returns its hello payload."""
    ready = frames.recv_frame(sock)
    if ready.kind != frames.READY:
        raise FrameProtocolError(
            f"{who}: expected READY, got kind {ready.kind}"
        )
    return serde.loads(ready.payload)


class _Handle:
    """One worker incarnation: process, its address, the dialled socket."""

    __slots__ = ("role", "index", "incarnation", "process", "sock", "pid",
                 "host", "port", "repairs")

    def __init__(self, role: str, index: int, incarnation: int, process,
                 sock: socket.socket, pid: int, host: str, port: int):
        self.role = role
        self.index = index
        self.incarnation = incarnation
        self.process = process
        self.sock = sock
        self.pid = pid
        self.host = host
        self.port = port
        #: Link repairs since the last reply arrived on this incarnation.
        self.repairs = 0

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        if self.alive():
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced the death
                pass


class _Call:
    """One request of a scatter: where it goes, its wire form, its id."""

    __slots__ = ("position", "role", "index", "request", "body",
                 "request_id", "point", "topic", "send_error")

    def __init__(self, position: int, role: str, index: int, request: Tuple,
                 body: bytes, request_id: int, point: Optional[str],
                 topic: Optional[str]):
        self.position = position
        self.role = role
        self.index = index
        self.request = request
        self.body = body
        self.request_id = request_id
        self.point = point
        self.topic = topic
        #: A failed send or spawn, raised by the await phase.
        self.send_error: Optional[BaseException] = None


class WorkerPool:
    """Supervised worker slots per role (see module docstring)."""

    def __init__(self, roles: Dict[str, int], heartbeat_s: float = 0.25,
                 request_timeout_s: float = 60.0, respawn_limit: int = 3,
                 miss_grace: float = 3.0, host: str = "127.0.0.1",
                 reconnect_backoff_ms: float = 20.0,
                 reconnect_backoff_max_ms: float = 500.0):
        if not roles or min(roles.values()) < 1:
            raise TransportError("pool needs at least one worker per role")
        if heartbeat_s <= 0 or miss_grace < 1.0:
            raise TransportError(
                "heartbeat interval must be positive and the miss grace "
                "at least one heartbeat window"
            )
        import multiprocessing

        self._mp = multiprocessing.get_context("spawn")
        self.heartbeat_s = heartbeat_s
        self.request_timeout_s = request_timeout_s
        self.respawn_limit = respawn_limit
        #: Silent grace windows (multiples of the heartbeat interval)
        #: before a missed heartbeat is counted and the process probed.
        self.miss_grace = miss_grace
        #: The host workers bind and the pool dials (``transport_host``).
        self.host = host
        self.reconnect_policy = RetryPolicy(
            max_retries=RECONNECT_RETRIES, backoff_ms=reconnect_backoff_ms,
            max_backoff_ms=reconnect_backoff_max_ms,
        )
        # deterministic jitter stream for reconnect backoff
        self._reconnect_rng = random.Random(0x7C9D1EB3)
        self._pools: Dict[str, List[Optional[_Handle]]] = {
            role: [None] * count for role, count in roles.items()
        }
        self._slot_locks: Dict[str, List[threading.RLock]] = {
            role: [threading.RLock() for __ in pool]
            for role, pool in self._pools.items()
        }
        self._seq = itertools.count(1)
        self._seq_lock = threading.Lock()
        self._stats = {key: 0 for key in STAT_KEYS}
        self._stats_lock = threading.Lock()
        #: (role, index) -> topic -> ordered requests to replay into a
        #: respawn.
        self._log: Dict[Tuple[str, int], Dict[str, List[Tuple]]] = {}
        self._log_lock = threading.RLock()
        self._resilience = None
        self._closed = False

    @classmethod
    def params_from(cls, config) -> dict:
        """Constructor kwargs derived from a :class:`ReproConfig`.

        ``config=None`` resolves through a default config so a bare
        ``default()`` and a ``default(ReproConfig())`` agree on the same
        singleton instead of churning it.
        """
        if config is None:
            from repro.config import ReproConfig
            config = ReproConfig()
        return {
            "heartbeat_s": config.heartbeat_interval_s,
            "miss_grace": config.heartbeat_miss_grace,
            "request_timeout_s": config.transport_request_timeout_s,
            "host": config.transport_host,
        }

    def bind_resilience(self, resilience) -> None:
        """Attach the fault injector (kill points) and the shared stats."""
        self._resilience = resilience

    def snapshot(self) -> dict:
        with self._stats_lock:
            snap = dict(self._stats)
        handles = [(role, handle) for role, pool in sorted(self._pools.items())
                   for handle in pool if handle is not None]
        snap["live_workers"] = sum(1 for __, h in handles if h.alive())
        snap["addresses"] = {
            f"{role}-{h.index}": f"{h.host}:{h.port}" for role, h in handles
        }
        return snap

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for pool in self._pools.values():
            for index, handle in enumerate(pool):
                if handle is None:
                    continue
                try:
                    frames.send_frame(handle.sock, frames.BYE, 0)
                except (OSError, TransportError):
                    pass
                try:
                    handle.sock.close()
                except OSError:  # pragma: no cover
                    pass
                handle.process.join(timeout=2.0)
                if handle.alive():  # pragma: no cover - wedged worker
                    handle.kill()
                    handle.process.join(timeout=2.0)
                pool[index] = None

    # --- publication log -----------------------------------------------------

    def forget(self, role: str, index: int, topic: Optional[str] = None) -> None:
        """Drop one topic of a slot's log (``None``: the slot's whole log)."""
        with self._log_lock:
            if topic is None:
                self._log.pop((role, index), None)
            else:
                self._log.get((role, index), {}).pop(topic, None)

    def prune(self, role: str, index: int, topic: str,
              keep: Callable[[Tuple], bool]) -> None:
        """Drop the requests of one topic for which ``keep`` is false."""
        with self._log_lock:
            topics = self._log.get((role, index), {})
            if topic in topics:
                topics[topic] = [r for r in topics[topic] if keep(r)]

    def _next_id(self) -> int:
        with self._seq_lock:
            return next(self._seq)

    def _bump(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount
        if self._resilience is not None and key in (
            "worker_deaths", "worker_respawns", "resent_requests"
        ):
            self._resilience.stats.incr(key, amount)

    # --- worker lifecycle ----------------------------------------------------

    def _spawn(self, role: str, index: int, incarnation: int) -> _Handle:
        """Start one worker, take its address registration, dial it.

        The worker binds ``host``, sends ``{pid, host, port}`` over a
        one-shot connection to a listener of ours, and serves dialled
        sessions (:func:`repro.net.worker.worker_main`).  A worker that
        fails any step after its start is killed before the error leaves.
        """
        if self._closed:
            raise TransportError("transport is closed")
        name = f"net-{role}-{index}.{incarnation}"
        process = None
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind((self.host, 0))
            listener.listen(1)
            listener.settimeout(0.5)  # each slice probes the process
            process = self._mp.Process(
                target=worker_main, name=name, daemon=True,
                args=(self.host, listener.getsockname()[1], role, index,
                      self.heartbeat_s),
            )
            process.start()
            deadline = time.monotonic() + READY_TIMEOUT_S
            while True:
                try:
                    boot, __ = listener.accept()
                    break
                except socket.timeout:
                    if not process.is_alive() or time.monotonic() > deadline:
                        raise TransportError(
                            f"worker {name} died during startup or did not "
                            f"register within {READY_TIMEOUT_S:.0f}s"
                        ) from None
            with boot:
                boot.settimeout(READY_TIMEOUT_S)
                hello = recv_ready(boot, f"worker {name}")
            sock, pid = self._dial(hello["host"], hello["port"])
            if pid != hello["pid"]:
                sock.close()
                raise TransportError(
                    f"{role} worker {index} at {hello['host']}:"
                    f"{hello['port']} answered with pid {pid}, expected "
                    f"{hello['pid']}"
                )
        except BaseException:
            if process is not None and process.pid is not None:  # started
                process.kill()
                process.join(timeout=5.0)
            raise
        finally:
            listener.close()
        return _Handle(role, index, incarnation, process, sock, pid,
                       hello["host"], hello["port"])

    def _dial(self, host: str, port: int) -> Tuple[socket.socket, int]:
        """Connect to a worker's address and read its greeting.

        Returns ``(socket, pid)``.  The greeting is what detects half-open
        connections: a listener that accepts but whose process is wedged
        (or a recycled port owned by a stranger) fails the READY exchange
        within :data:`CONNECT_TIMEOUT_S` instead of wedging the coordinator.
        """
        sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = recv_ready(sock, f"worker at {host}:{port}")
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.heartbeat_s)
        return sock, hello["pid"]

    def _reconnect(self, handle: _Handle) -> bool:
        """Redial a live worker's address after its link was severed.

        Retries under :attr:`reconnect_policy`'s capped-expo backoff +
        deterministic jitter.  Returns ``False`` when the peer is dead
        (process gone, budget spent, or a different pid greeted us).
        """
        handle.sock.close()
        attempt = 0
        while handle.alive():
            try:
                sock, pid = self._dial(handle.host, handle.port)
            except (OSError, TransportError):
                if attempt >= self.reconnect_policy.max_retries:
                    return False
                time.sleep(self.reconnect_policy.delay_s(
                    attempt, self._reconnect_rng))
                attempt += 1
                continue
            if pid != handle.pid:
                # a stranger on a recycled port: not the peer we lost
                sock.close()
                return False
            handle.sock = sock
            self._bump("reconnects")
            return True
        return False

    def _ensure(self, role: str, index: int) -> _Handle:
        # caller holds the slot lock
        handle = self._pools[role][index]
        if handle is None:
            handle = self._spawn(role, index, incarnation=0)
            self._pools[role][index] = handle
        return handle

    def _respawn(self, role: str, index: int) -> List:
        """Fresh incarnation + publication replay; returns the replies
        of the replayed requests, in log order.

        Raises :class:`TransportClosedError` if the fresh worker dies mid
        replay; the dead handle stays in the slot, so the next round trip
        respawns again (replay restarts from scratch; puts overwrite, so
        it converges).
        """
        dead = self._pools[role][index]
        if dead is not None:  # None: the first spawn itself failed
            dead.sock.close()
        handle = self._spawn(role, index, incarnation=(
            0 if dead is None else dead.incarnation + 1))
        self._pools[role][index] = handle
        self._bump("worker_respawns")
        with self._log_lock:
            entries = [
                request
                for __, requests in sorted(self._log.get((role, index), {}).items())
                for request in requests
            ]
        replies = [
            self._attempt(handle, self._next_id(), serde.dumps(request))
            for request in entries
        ]
        if replies:
            self._bump("replayed_publications", len(replies))
        return replies

    # --- scatter / gather ----------------------------------------------------

    def round_trip(self, role: str, index: int, request: Tuple,
                   point: Optional[str] = None, topic: Optional[str] = None,
                   on_respawn: Optional[Callable[[List], None]] = None):
        """Send one request and await its reply: a one-call :meth:`scatter`
        that raises the call's failure."""
        (reply,) = self.scatter([(role, index, request, point, topic)], on_respawn)
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def scatter(self, calls: Sequence[Tuple],
                on_respawn: Optional[Callable[[List], None]] = None,
                on_reply: Optional[Callable[[int], None]] = None) -> List:
        """Run ``(role, index, request, point, topic)`` calls; each call's
        reply or exception, in call order.

        Every distinct slot gets its first request before any reply is
        awaited, so the workers compute at the same time.  Calls that land
        on one slot keep the one-in-flight rule and run in call order: the
        next goes out when the previous reply is in.  The slot locks are
        taken in sorted order, so concurrent scatters cannot deadlock.

        ``point`` names the fault point that may SIGKILL the worker mid
        request.  A ``topic`` appends the request, once it succeeded, to
        the slot's publication log.  A slot that dies is respawned and its
        request resent with the same id (:meth:`_await_call`) while the
        other slots' replies wait in their sockets; ``on_respawn`` is
        called with the replayed requests' replies after every respawn,
        and ``on_reply`` with each call's position once its outcome is in
        (both on the calling thread, under the slot locks).

        A failed call is that call's outcome and stops nothing: every
        request is sent and awaited — an abandoned mutation would be
        missing from the publication log.
        """
        queues: Dict[Tuple[str, int], List[_Call]] = {}
        for position, (role, index, request, point, topic) in enumerate(calls):
            queues.setdefault((role, index), []).append(_Call(
                position, role, index, request, serde.dumps(request),
                self._next_id(), point, topic,
            ))
        outcomes: List = [None] * len(calls)
        held: List[threading.RLock] = []
        slots = sorted(queues)
        try:
            for role, index in slots:
                lock = self._slot_locks[role][index]
                lock.acquire()
                held.append(lock)
            in_flight = [queues[slot].pop(0) for slot in slots]
            for outstanding, call in enumerate(in_flight):
                self._send_call(call, outstanding)
            while in_flight:
                call = in_flight.pop(0)
                try:
                    outcomes[call.position] = self._await_call(call, on_respawn)
                except Exception as exc:  # noqa: BLE001 - the call's outcome
                    outcomes[call.position] = exc
                if on_reply is not None:
                    on_reply(call.position)
                queue = queues[call.role, call.index]
                if queue:
                    # the slot's next request goes out while the other
                    # slots' replies are still outstanding
                    in_flight.append(queue.pop(0))
                    self._send_call(in_flight[-1], len(in_flight) - 1)
        finally:
            for lock in reversed(held):
                lock.release()
        return outcomes

    def _send_call(self, call: "_Call", outstanding: int) -> None:
        """Phase one: put the call's request on the wire.

        Any failure — a send that finds the worker dead (or kills it: the
        fault point), a spawn that cannot start or dial the worker — is
        remembered on the call and raised by :meth:`_await_call`, so the
        other slots still get their requests and are awaited.
        """
        if outstanding:
            self._bump("scattered_requests")
        try:
            self._send_request(
                self._ensure(call.role, call.index), call.request_id,
                call.body, call.point,
            )
        except Exception as exc:  # noqa: BLE001 - raised by the await phase
            call.send_error = exc

    def _await_call(self, call: "_Call",
                    on_respawn: Optional[Callable[[List], None]]):
        """Phase two: the call's reply, surviving worker deaths by respawn
        + publication replay + a resend with the SAME request id; a failed
        send that is not a death is raised as is."""
        role, index = call.role, call.index
        deaths = 0
        while True:
            try:
                if call.send_error is not None:
                    error, call.send_error = call.send_error, None
                    raise error
                result = self._await_reply(
                    self._pools[role][index], call.request_id, call.body
                )
                break
            except (TransportClosedError, FrameProtocolError) as exc:
                deaths += 1
                self._bump("worker_deaths")
                if deaths > self.respawn_limit:
                    raise WorkerRespawnError(role, index, deaths) from exc
                replies = self._respawn(role, index)
                if on_respawn is not None:
                    on_respawn(replies)
                self._bump("resent_requests")
                self._send_call(call, 0)  # idempotent: the same id
        if call.topic is not None:
            with self._log_lock:
                self._log.setdefault((role, index), {}) \
                    .setdefault(call.topic, []).append(call.request)
        return result

    def _attempt(self, handle: _Handle, request_id: int, body: bytes,
                 point: Optional[str] = None):
        """One send + await on one incarnation; raises on worker death."""
        self._send_request(handle, request_id, body, point)
        return self._await_reply(handle, request_id, body)

    def _send_request(self, handle: _Handle, request_id: int, body: bytes,
                      point: Optional[str] = None) -> None:
        """Send one REQ frame, repairing a severed link; ``point`` may
        SIGKILL the worker behind it (not after a repair: a kill fault
        gets one shot per request)."""
        try:
            self._send(handle, frames.REQ, request_id, body)
        except (TransportClosedError, FrameProtocolError) as exc:
            self._repair_link(handle, request_id, body, exc)
            return
        if point is not None and self._resilience is not None \
                and self._resilience.trip(point):
            # seeded chaos: SIGKILL the worker mid-request; the death loop
            # must make this invisible to the caller.  A fast worker can
            # answer before the signal lands — that answer is dropped, so
            # every injected kill is exactly one observed death
            handle.kill()
            handle.process.join(timeout=5.0)
            raise TransportClosedError(
                f"{handle.role} worker {handle.index} killed mid-request "
                f"(injected at {point!r})"
            )

    def _repair_link(self, handle: _Handle, request_id: int, body: bytes,
                     error: Exception) -> None:
        """Reconnect, then resend the SAME id; a request that executed
        during the outage is answered from the worker's dedup cache
        (STATUS_REPLAY), never re-executed.

        Raises ``error`` when the peer is dead or the request's repair
        budget (:data:`MAX_LINK_REPAIRS`) is spent: the death loop then
        respawns + replays.
        """
        while True:
            handle.repairs += 1
            if handle.repairs > MAX_LINK_REPAIRS or not self._reconnect(handle):
                raise error
            try:
                return self._send(handle, frames.REQ, request_id, body)
            except (TransportClosedError, FrameProtocolError) as exc:
                error = exc

    def _await_reply(self, handle: _Handle, request_id: int, body: bytes):
        """Read frames until ``request_id`` is answered.  A severed link is
        repaired; a dead or wedged worker raises.  ``body`` is kept for
        the resends."""
        grace_s = self.heartbeat_s * self.miss_grace
        deadline = time.monotonic() + self.request_timeout_s
        last_frame = time.monotonic()
        resent = False
        while True:
            try:
                frame = self._recv(handle)
            except socket.timeout:
                now = time.monotonic()
                if now - last_frame > grace_s:
                    self._bump("heartbeats_missed")
                    last_frame = now  # one miss per silent grace window
                    if not handle.alive():
                        raise TransportClosedError(
                            f"{handle.role} worker {handle.index} died "
                            f"(silent and process gone)"
                        ) from None
                if now > deadline:
                    if not resent and handle.alive():
                        # lost-ACK recovery: resend the SAME id; the dedup
                        # cache replays if the worker already executed it
                        self._send_request(handle, request_id, body)
                        self._bump("resent_requests")
                        resent = True
                        deadline = now + self.request_timeout_s
                        continue
                    handle.kill()
                    raise TransportClosedError(
                        f"{handle.role} worker {handle.index} wedged on "
                        f"request {request_id} (no response in "
                        f"{self.request_timeout_s:.0f}s)"
                    ) from None
                continue
            except (TransportClosedError, FrameProtocolError) as exc:
                # link down: redial + same-id resend, a fresh deadline
                self._repair_link(handle, request_id, body, exc)
                last_frame = time.monotonic()
                deadline, resent = last_frame + self.request_timeout_s, False
                continue
            last_frame = time.monotonic()
            if frame.kind == frames.HEARTBEAT:
                self._bump("heartbeats_seen")
                continue
            if frame.kind not in (frames.RES, frames.ERR):
                continue  # not an answer: tolerate it
            # a view, not a slice: no second copy of a large payload
            status, data = frame.payload[:1], memoryview(frame.payload)[1:]
            if status == STATUS_REPLAY:
                # counted even for stale ids: a duplicated request answers
                # once normally and once as a replay, and the replay can
                # land while a later request is already in flight
                self._bump("dedup_hits")
            if frame.request_id != request_id:
                continue  # stale response to an abandoned id
            handle.repairs = 0
            if frame.kind == frames.RES:
                return serde.loads(data)
            raise pickle.loads(data)

    def _send(self, handle: _Handle, kind: int, request_id: int,
              payload: bytes) -> None:
        sent = frames.send_frame(handle.sock, kind, request_id, payload)
        with self._stats_lock:
            self._stats["frames_sent"] += 1
            self._stats["bytes_sent"] += sent

    def _recv(self, handle: _Handle) -> frames.Frame:
        frame = frames.recv_frame(handle.sock)
        with self._stats_lock:
            self._stats["frames_received"] += 1
            self._stats["bytes_received"] += frames.frame_size(len(frame.payload))
        return frame
