"""ChaosTransport: deterministic wire-level fault injection over TCP.

A network-fault interposer layered on the tcp transport (:class:`~repro.
net.proc.ProcTransport`) and wired into the :mod:`repro.resilience.faults`
grammar, so the same ``POINT:p=F|fail=N|latency_ms=F`` spec that already
drives spill/worker chaos can drop, delay, duplicate, bit-flip, and sever
frames — each point drawing from its own crc32-seeded RNG stream, so a
chaos run is a repeatable test, not an outage.

Wire-level points (:data:`NET_POINTS`)
--------------------------------------
================  ========================================================
``net.drop``      a REQ frame is silently not sent, or a received RES/ERR
                  frame is discarded — recovered by the request-timeout
                  same-id resend (``frames_dropped``)
``net.delay_ms``  latency added before a frame is put on the wire
                  (``latency_ms=`` rule; injection counted by resilience)
``net.dup``       a REQ frame is sent twice — the worker's dedup cache
                  answers the duplicate with STATUS_REPLAY, proving
                  exactly-once execution (``frames_duplicated``)
``net.corrupt``   one deterministically-chosen bit of the encoded frame
                  is flipped before sending — the worker's frame CRCs
                  reject it and sever the session; the coordinator
                  reconnects and resends (``frames_corrupt_rejected``)
``net.partition`` the link is severed mid-stream (socket closed while a
                  request is in flight), e.g. ``net.partition:fail=N``
                  for exactly N seeded partitions — recovery is
                  reconnect + same-id resend, and because the request
                  already reached the worker the answer comes back as a
                  dedup replay, never a second execution (``partitions``)
================  ========================================================

Faults are only armed while a resilience manager with net rules is bound
(one is bound per run by the execution context), so hosting traffic that
precedes a run and the orderly BYE drain stay clean.  Drop/dup/corrupt
apply to REQ frames only: chaos must never corrupt its own shutdown.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro.errors import TransportClosedError
from repro.net import frames
from repro.net.proc import ProcTransport

#: The wire-level fault points, registered in
#: :data:`repro.resilience.faults.KNOWN_POINTS`.
NET_POINTS = (
    "net.drop", "net.delay_ms", "net.dup", "net.corrupt", "net.partition",
)


def spec_targets_network(spec: Optional[str]) -> bool:
    """Whether a fault spec names any wire-level point (``net.*`` or ``*``)."""
    if not spec:
        return False
    for clause in spec.split(";"):
        point = clause.partition(":")[0].strip()
        if point == "*" or point.startswith("net."):
            return True
    return False


class ChaosTransport(ProcTransport):
    """TCP transport with seeded wire faults (see module docstring)."""

    name = "chaos_tcp"

    _instance: Optional["ChaosTransport"] = None

    def _armed(self):
        """The bound resilience manager, or None while faults are unarmed."""
        resilience = self._resilience
        if resilience is None or resilience.injector is None:
            return None
        return resilience

    @staticmethod
    def _flip_one_bit(data: bytes, request_id: int) -> bytes:
        """Flip one deterministically-chosen bit of an encoded frame."""
        flipped = bytearray(data)
        position = (request_id * 2654435761 + len(data)) % (len(data) * 8)
        flipped[position // 8] ^= 1 << (position % 8)
        return bytes(flipped)

    def _send(self, handle, kind: int, request_id: int,
              payload: bytes) -> None:
        resilience = self._armed()
        if resilience is None:
            return super()._send(handle, kind, request_id, payload)
        resilience.trip("net.delay_ms")  # latency-only rule sleeps in trip()
        if kind == frames.REQ and resilience.trip("net.drop"):
            # the frame vanishes on the wire; the await loop times out and
            # resends the same id
            self._bump("frames_dropped")
            return
        if kind == frames.REQ and resilience.trip("net.corrupt"):
            data = self._flip_one_bit(
                frames.encode(kind, request_id, payload), request_id
            )
            self._bump("frames_corrupt_rejected")
            try:
                handle.sock.sendall(data)
            except OSError as exc:
                raise TransportClosedError(
                    f"connection lost mid-send: {exc}"
                ) from exc
            with self._stats_lock:
                self._stats["frames_sent"] += 1
                self._stats["bytes_sent"] += len(data)
            return
        super()._send(handle, kind, request_id, payload)
        if kind == frames.REQ and resilience.trip("net.dup"):
            # duplicated delivery: the worker executes once and answers the
            # twin from its dedup cache with STATUS_REPLAY
            self._bump("frames_duplicated")
            super()._send(handle, kind, request_id, payload)

    def _recv(self, handle) -> frames.Frame:
        resilience = self._armed()
        if resilience is None:
            return super()._recv(handle)
        if resilience.trip("net.partition"):
            # sever the link mid-stream, while the request is in flight —
            # the repair loop reconnects and resends the same id, and the
            # worker (which kept executing through the partition) answers
            # from its dedup cache
            self._bump("partitions")
            try:
                handle.sock.close()
            except OSError:  # pragma: no cover
                pass
            raise TransportClosedError(
                f"injected network partition: link to {handle.role} worker "
                f"{handle.index} severed mid-stream"
            )
        frame = super()._recv(handle)
        if frame.kind in (frames.RES, frames.ERR) \
                and resilience.trip("net.drop"):
            # the response evaporates; to the await loop this is silence
            self._bump("frames_dropped")
            raise socket.timeout("injected frame drop (response lost)")
        return frame
