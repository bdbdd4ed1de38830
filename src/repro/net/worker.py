"""Entry point of one transport worker process.

A worker is a spawn-context OS process that serves REQ frames until it
reads BYE (or is killed).  One worker serves any role — federated site
host, RDD task executor, scoring worker — because the request payload
carries its own dispatch tag and worker-local state is a plain ``state``
dict that requests populate: ``site``/``reg`` requests lazily create the
site registry, and a ``("call", fn, args)`` request runs an importable
``fn(state, *args)``, which is how a role this package knows nothing
about (serving's model registry) keeps state here.  On exit every state
value with a ``close()`` is closed, newest first.

:func:`worker_main` is the one bootstrap: the worker *listens* on its own
host:port, registers the address with the coordinator through a one-shot
bootstrap connection, then serves dialled sessions one at a time from an
accept loop.  Worker state (hosted tensors, dedup cache) survives across
sessions, which is exactly what makes a severed link recoverable: the
coordinator reconnects and resends, and the worker either still has the
response recorded (replay) or executes it for the first time — never
twice.  The accept loop wakes every heartbeat interval and exits once the
coordinator process is gone, so no worker outlives it.

Idempotency (the dedup cache)
-----------------------------
Every request carries a coordinator-assigned id.  The worker records the
response bytes of the last :data:`DEDUP_CAPACITY` requests; a repeated id
— the coordinator resending after a lost ACK or a severed link — replays
the recorded response instead of re-executing.  A side-effecting op
(``put``, ``update``, ``execute_and_store``) therefore cannot
double-execute, and the replayed response is flagged so the coordinator
can count ``dedup_hits``.

Liveness
--------
A daemon thread emits a HEARTBEAT frame every ``heartbeat_s`` on the
session socket (sends are serialised by a lock).  The coordinator counts
frames while awaiting a response; a silent interval with a dead process
is a worker death, triggering respawn + publication replay.

Errors
------
Per-request exceptions are pickled into ERR frames (falling back to a
stringified :class:`~repro.errors.TransportError` for unpicklable ones —
though every :mod:`repro.errors` type round-trips by contract) and
re-raised coordinator-side with their types and attributes intact.  A
corrupt frame on the wire severs the *session* (the framing is no longer
trustworthy) but never kills the worker: the accept loop just waits for
the coordinator to reconnect.
"""

from __future__ import annotations

import collections
import pickle
import socket
import threading

from repro.net import frames

#: Responses remembered for request-id dedup, per worker incarnation.
DEDUP_CAPACITY = 512

#: Response-payload status prefix (first byte of RES/ERR payloads).
STATUS_OK = b"\x00"
STATUS_REPLAY = b"\x01"
STATUS_ERR = b"\x02"


def _portable(exc: BaseException) -> bytes:
    """Pickled form of an exception that is safe to unpickle coordinator-side."""
    from repro.errors import TransportError

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:  # noqa: BLE001 - unpicklable payload/ctor
        return pickle.dumps(TransportError(f"{type(exc).__name__}: {exc}"))


def _sites(state: dict):
    """The worker's private site registry (never the singleton — the
    coordinator's publication log is the source of truth)."""
    registry = state.get("sites")
    if registry is None:
        from repro.federated.site import FederatedWorkerRegistry

        registry = state["sites"] = FederatedWorkerRegistry()
    return registry


def _dispatch(state: dict, request):
    """Execute one decoded request against worker-local state."""
    from repro.errors import TransportError

    kind = request[0]
    if kind == "call":
        __, fn, args = request
        return fn(state, *args)
    if kind == "site":
        __, address, method, args, kwargs = request
        site = _sites(state).site(address)
        if method == "get_metrics":
            return dict(site.metrics)
        if method == "get_is_down":
            return site.is_down
        return getattr(site, method)(*args, **kwargs)
    if kind == "reg":
        __, method, args = request
        getattr(_sites(state), method)(*args)
        return True
    if kind == "task":
        return request[1]()
    raise TransportError(f"unknown request kind {kind!r}")


def _close_state(state: dict) -> None:
    for value in reversed(list(state.values())):
        close = getattr(value, "close", None)
        if close is not None:
            close()


def _heartbeat_loop(sock: socket.socket, send_lock: threading.Lock,
                    interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            with send_lock:
                frames.send_frame(sock, frames.HEARTBEAT, 0)
        except Exception:  # noqa: BLE001 - coordinator gone; main loop exits too
            return


def _serve_connection(sock: socket.socket, state: dict, dedup,
                      heartbeat_s: float, hello: dict) -> str:
    """Serve one connection until it ends; state outlives the session.

    Greets with a READY frame carrying ``hello`` (the coordinator uses
    the pid to verify it reconnected to the same incarnation), starts a
    per-session heartbeat thread, then answers REQ frames.  Returns why
    the session ended: ``"bye"`` (orderly drain — the worker should
    exit), ``"closed"`` (EOF/reset — the link died, the worker may
    accept a new session) or ``"corrupt"`` (undecodable frame — the
    stream cannot be resynchronised, so the session is severed).
    """
    from repro.errors import FrameProtocolError, TransportClosedError
    from repro.net import serde

    send_lock = threading.Lock()
    stop = threading.Event()
    try:
        with send_lock:
            frames.send_frame(sock, frames.READY, 0, serde.dumps(hello))
    except (TransportClosedError, OSError):
        return "closed"
    beat = threading.Thread(
        target=_heartbeat_loop, args=(sock, send_lock, heartbeat_s, stop),
        name="worker-heartbeat", daemon=True,
    )
    beat.start()
    try:
        while True:
            try:
                frame = frames.recv_frame(sock)
            except TransportClosedError:
                return "closed"
            except FrameProtocolError:
                return "corrupt"
            if frame.kind == frames.BYE:
                return "bye"
            if frame.kind != frames.REQ:
                continue  # tolerate unexpected kinds instead of dying
            cached = dedup.get(frame.request_id)
            if cached is not None:
                kind, body = cached
                try:
                    with send_lock:
                        frames.send_frame(
                            sock, kind, frame.request_id, STATUS_REPLAY + body
                        )
                except (TransportClosedError, OSError):
                    return "closed"
                continue
            try:
                result = _dispatch(state, serde.loads(frame.payload))
                kind, body = frames.RES, serde.dumps(result)
            except BaseException as exc:  # noqa: BLE001 - typed error propagation
                kind, body = frames.ERR, _portable(exc)
            # record BEFORE sending: if the link dies mid-send, the resent
            # request must hit the cache, not execute again
            dedup[frame.request_id] = (kind, body)
            while len(dedup) > DEDUP_CAPACITY:
                dedup.popitem(last=False)
            try:
                with send_lock:
                    frames.send_frame(
                        sock, kind, frame.request_id, STATUS_OK + body
                    )
            except (TransportClosedError, OSError):
                return "closed"
    finally:
        stop.set()


def worker_main(host: str, boot_port: int, role: str, index: int,
                heartbeat_s: float) -> None:
    """Listen on ``host`` and serve coordinator sessions until BYE.

    Binds an ephemeral port, registers ``{pid, host, port}`` with the
    coordinator's listener at ``(host, boot_port)``, then accepts
    sessions one at a time.  A severed or corrupted session returns to
    the accept loop with all state intact — reconnect-and-resend is the
    coordinator's job; BYE or the coordinator's death ends the process.
    """
    import multiprocessing
    import os

    from repro.net import serde

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, 0))
    listener.listen(8)
    listener.settimeout(heartbeat_s)  # each slice checks the coordinator
    bound_host, port = listener.getsockname()[:2]
    with socket.create_connection((host, boot_port)) as boot:
        frames.send_frame(boot, frames.READY, 0, serde.dumps({
            "pid": os.getpid(), "host": bound_host, "port": port,
            "role": role, "index": index,
        }))
    coordinator = multiprocessing.parent_process()
    state: dict = {}
    dedup: "collections.OrderedDict[int, tuple]" = collections.OrderedDict()
    hello = {"pid": os.getpid(), "role": role, "index": index}
    try:
        while coordinator.is_alive():
            try:
                sock, __ = listener.accept()
            except socket.timeout:
                continue
            with sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reason = _serve_connection(sock, state, dedup, heartbeat_s, hello)
            if reason == "bye":
                break
    finally:
        listener.close()
        _close_state(state)
