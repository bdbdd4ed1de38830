"""Length-prefixed, checksummed, request-id-tagged frames (DESIGN.md §13).

Every message between the coordinator and a transport worker is one frame
on a TCP socket to the worker's loopback or LAN address.  The fixed
20-byte header carries a magic/version, the frame kind, a 64-bit request
id, the payload length, and a CRC32 over those header fields; the payload
is followed by its own CRC32.  The request id is what makes retries *idempotent*: a
worker that already served an id replays the recorded response instead of
re-executing the operation, so a retry after a lost ACK can never
double-execute a side-effecting op.

A SIGKILL or a severed link can land mid-write, leaving a partial or torn
frame on the stream, and a faulty wire can flip bits anywhere in a frame.
The framing layer converts every such corruption — short reads, bad
magic, oversized lengths, header or payload checksum mismatches — into a
typed :class:`FrameProtocolError` / :class:`TransportClosedError` so the
transport declares the connection dead instead of misreading bytes.  The
header CRC matters: without it a single flipped bit in the request id or
length field would decode as a *valid* frame with the wrong identity, and
a corrupt length prefix could read as a multi-gigabyte allocation.
:data:`MAX_PAYLOAD` bounds one frame at 256 MiB either way, so even a
corrupt-but-checksummed length can never balloon a read.

Wire layout (network byte order)::

    MAGIC(2) VERSION(1) KIND(1) REQUEST_ID(8) LENGTH(4) HEADER_CRC32(4)
    PAYLOAD... PAYLOAD_CRC32(4)
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import zlib

from repro.errors import FrameProtocolError, TransportClosedError

MAGIC = b"RN"
VERSION = 2

#: Frame kinds.
REQ = 1        # coordinator -> worker: execute the payload
RES = 2        # worker -> coordinator: successful result payload
ERR = 3        # worker -> coordinator: pickled exception payload
HEARTBEAT = 4  # worker -> coordinator: liveness beacon (empty payload)
READY = 5      # worker -> coordinator: bootstrap/session handshake
BYE = 6        # coordinator -> worker: orderly shutdown request

KINDS = (REQ, RES, ERR, HEARTBEAT, READY, BYE)

_BASE_HEADER = struct.Struct("!2sBBQI")
_CRC = struct.Struct("!I")
#: Full header: the base fields plus their CRC32.
HEADER_SIZE = _BASE_HEADER.size + _CRC.size
#: The payload CRC32 that trails every frame.
TRAILER_SIZE = _CRC.size

#: Hard bound on one frame's payload.  A corrupt length prefix must raise
#: a typed error, never attempt a multi-gigabyte allocation — the header
#: CRC catches random flips, this bound catches everything else.
MAX_PAYLOAD = 256 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    kind: int
    request_id: int
    payload: bytes


def frame_size(payload_len: int) -> int:
    """Total wire bytes of a frame carrying ``payload_len`` payload bytes."""
    return HEADER_SIZE + payload_len + TRAILER_SIZE


def encode(kind: int, request_id: int, payload: bytes = b"") -> bytes:
    """The full wire bytes of one frame (header + payload + CRC trailer)."""
    if kind not in KINDS:
        raise FrameProtocolError(f"unknown frame kind {kind}")
    if len(payload) > MAX_PAYLOAD:
        raise FrameProtocolError(f"frame payload too large: {len(payload)}")
    base = _BASE_HEADER.pack(MAGIC, VERSION, kind, request_id, len(payload))
    # one join = one copy of the payload (chained + would copy it twice)
    return b"".join((base, _CRC.pack(zlib.crc32(base)),
                     payload, _CRC.pack(zlib.crc32(payload))))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`TransportClosedError`."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionError, BrokenPipeError) as exc:
            raise TransportClosedError(f"connection lost mid-frame: {exc}") from exc
        if not chunk:
            raise TransportClosedError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, kind: int, request_id: int,
               payload: bytes = b"") -> int:
    """Write one frame; returns the bytes put on the wire."""
    data = encode(kind, request_id, payload)
    try:
        sock.sendall(data)
    except OSError as exc:
        # reset, closed, or timed out part-way: the stream is torn either way
        raise TransportClosedError(f"connection lost mid-send: {exc}") from exc
    return len(data)


def recv_frame(sock: socket.socket) -> Frame:
    """Read and validate one frame (blocking; honours the socket timeout).

    Raises :class:`TransportClosedError` on EOF/reset and
    :class:`FrameProtocolError` on any header/checksum violation — the
    length bound and the header CRC are both checked *before* the payload
    is read, so corruption can never trigger a giant allocation.
    ``socket.timeout`` propagates to the caller, which uses the timeout
    slices to probe peer liveness.
    """
    header = _recv_exactly(sock, HEADER_SIZE)
    base = header[:_BASE_HEADER.size]
    try:
        magic, version, kind, request_id, length = _BASE_HEADER.unpack(base)
    except struct.error as exc:  # pragma: no cover - size is exact
        raise FrameProtocolError(f"unreadable frame header: {exc}") from exc
    if magic != MAGIC:
        raise FrameProtocolError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise FrameProtocolError(f"unsupported frame version {version}")
    (header_crc,) = _CRC.unpack(header[_BASE_HEADER.size:])
    if header_crc != zlib.crc32(base):
        raise FrameProtocolError(
            f"frame header checksum mismatch (kind {kind}, request "
            f"{request_id}: a flipped header bit cannot be trusted)"
        )
    if kind not in KINDS:
        raise FrameProtocolError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise FrameProtocolError(f"frame payload too large: {length}")
    # payload and trailer in one read: one timed recv fewer per frame
    body = _recv_exactly(sock, length + TRAILER_SIZE)
    payload = body[:length]
    (crc,) = _CRC.unpack_from(body, length)
    if crc != zlib.crc32(payload):
        raise FrameProtocolError(
            f"frame checksum mismatch on request {request_id} "
            f"(payload torn or corrupted mid-write?)"
        )
    return Frame(kind=kind, request_id=request_id, payload=payload)
