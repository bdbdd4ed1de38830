"""Multi-level buffer pool for intermediate variables (paper section 2.3(3)).

The buffer pool owns the in-memory payloads of matrix/tensor variables.  When
the managed footprint exceeds its budget it evicts unpinned entries in LRU
order by serialising them to spill files; a later access restores them
transparently.  Pinning protects entries while an instruction computes on
them.

Paging is synchronous: an eviction writes (or drops) its victim and a
restore reads its entry on the calling thread, under the pool lock.  Every
pool operation has one code path.

* **Eviction order.**  Clean entries (spill file current) are dropped for
  free before any dirty entry pays a spill write.
* **Compressed spills.**  Eligible payloads (dense 2D FP64 blocks) are run
  through the CLA encoders (:mod:`repro.tensor.compressed`) on eviction and
  written in compressed form when the ratio pays; restores stay compressed
  (lazy :class:`~repro.tensor.compressed.CompressedStore`) until a kernel
  needs the dense array.  The codec is bit-exact (dictionaries over uint64
  bit patterns) and layout-preserving (only dense stores are eligible), so
  compressed paging is invisible to bitwise differential comparisons.
* **Fault tolerance.**  With a resilience manager bound, the ``spill.write``
  and ``spill.read`` fault points fire on every write and read, transient
  failures retry, and a write that stays broken pins its entry in memory
  instead of losing it.

Each entry has one spill file, replaced atomically on every rewrite.  The
pool tracks statistics (evictions, restores, compressed and raw spills)
surfaced through the obs ``bufferpool`` section.
"""

from __future__ import annotations

import collections
import itertools
import os
import pickle
import shutil
import tempfile
import threading
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import BufferPoolError, InjectedFaultError, SpillFailureError
from repro.io.atomic import atomic_write_bytes
from repro.tensor.block import BasicTensorBlock
from repro.tensor.compressed import CompressedBlock, CompressedStore
from repro.tensor.dense import DenseStore
from repro.types import ValueType

#: Name of the ownership marker inside each spill directory.  It holds the
#: owning process id; scavenging only removes directories whose owner is
#: provably dead, so concurrent pools of live processes are never touched.
PID_FILE = "owner.pid"

#: Prefix of the temporary spill directory a pool makes at its first spill
#: when no ``spill_dir`` is configured.
SPILL_PREFIX = "repro-spill-"

#: Blocks smaller than this (cells) are never worth compressing.
MIN_COMPRESS_CELLS = 64

#: Minimum dense-bytes / compressed-bytes ratio for a compressed spill to
#: be worth it (below this the raw pickle wins on restore latency).
COMPRESS_MIN_RATIO = 1.2

#: Parent directories already scavenged by this process (scavenging is an
#: O(listdir) scan — once per root per process is enough).
_SCAVENGED_ROOTS = set()
_SCAVENGE_LOCK = threading.Lock()


def _pid_alive(pid: int) -> bool:
    """True when a process with this pid exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned by someone else — leave it alone
    return True


def scavenge_spill_dirs(root: str, prefix: str = SPILL_PREFIX,
                        skip: tuple = ()) -> int:
    """Remove orphaned spill directories under ``root``.

    A directory qualifies when its name starts with ``prefix``, it is not
    listed in ``skip``, and its :data:`PID_FILE` names a process that no
    longer exists.  Directories without a readable pid marker are left
    alone (conservative: they may belong to an older version or another
    tool).  Returns the number of directories removed.
    """
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.startswith(prefix):
            continue
        candidate = os.path.join(root, name)
        if candidate in skip or not os.path.isdir(candidate):
            continue
        try:
            with open(os.path.join(candidate, PID_FILE), "r",
                      encoding="utf-8") as handle:
                pid = int(handle.read().strip())
        except (OSError, ValueError):
            continue  # no marker — not provably ours/dead
        if pid == os.getpid() or _pid_alive(pid):
            continue
        shutil.rmtree(candidate, ignore_errors=True)
        removed += 1
    return removed


def _release_spill_dir(spill_dir: str, entry_prefix: str) -> None:
    """Remove one pool's spill files, then the directory once nothing but
    the pid marker is left in it (other pools may still spill there)."""
    try:
        for name in os.listdir(spill_dir):
            if name.startswith(entry_prefix):
                os.unlink(os.path.join(spill_dir, name))
        if not [name for name in os.listdir(spill_dir) if name != PID_FILE]:
            os.unlink(os.path.join(spill_dir, PID_FILE))
            os.rmdir(spill_dir)
    except OSError:
        pass  # already gone, or another pool's files appeared meanwhile


def _scavenge_once(root: str, own_dir: str) -> None:
    with _SCAVENGE_LOCK:
        if root in _SCAVENGED_ROOTS:
            return
        _SCAVENGED_ROOTS.add(root)
    scavenge_spill_dirs(root, skip=(own_dir,))


class CacheEntry:
    """One buffered payload: in memory, spilled to disk, or both."""

    __slots__ = ("entry_id", "payload", "size", "pin_count", "spill_path",
                 "dirty")

    def __init__(self, entry_id: int, payload, size: int):
        self.entry_id = entry_id
        self.payload = payload
        self.size = size
        self.pin_count = 0
        self.spill_path: Optional[str] = None
        self.dirty = True  # not yet persisted to the spill file

    @property
    def in_memory(self) -> bool:
        return self.payload is not None


class BufferPool:
    """LRU buffer pool with pinning and (optionally compressed) spills."""

    def __init__(self, budget: int, spill_dir: Optional[str] = None,
                 resilience=None,
                 compress_spills: bool = False,
                 compressed_exec: bool = False):
        if budget <= 0:
            raise ValueError("buffer pool budget must be positive")
        self.budget = budget
        #: Created at the first spill (a fresh temporary directory when
        #: None), so a pool that never spills leaves nothing on disk.
        self.spill_dir = os.path.abspath(spill_dir) if spill_dir else None
        self._spill_root = (os.path.dirname(self.spill_dir) if spill_dir
                            else tempfile.gettempdir())
        #: Optional :class:`repro.resilience.ResilienceManager`.  When set,
        #: spill writes/reads retry transient I/O failures (``spill.write``
        #: and ``spill.read`` injection points); writes that stay broken
        #: fall back to pinning the entry in memory instead of losing it.
        self.resilience = resilience
        self.compress_spills = compress_spills
        #: When False, restored-compressed payloads inflate before leaving
        #: the pool, so kernels only ever see dense/sparse stores.
        self.compressed_exec = compressed_exec
        #: Set at the first spill: removes this pool's spill files and
        #: directory at close(), or when the pool is collected unclosed.
        self._release: Optional[weakref.finalize] = None
        # One startup scavenge per parent directory: reclaim spill dirs a
        # crashed process left behind (its pid is gone, ours differs).
        _scavenge_once(self._spill_root, self.spill_dir)
        self._entries: Dict[int, CacheEntry] = {}
        self._lru = collections.OrderedDict()  # entry_id -> None, oldest first
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._used = 0
        self._evictable = 0  # entries in memory with pin_count == 0
        self.stats = {
            "puts": 0,
            "gets": 0,
            "evictions": 0,
            "restores": 0,
            "bytes_spilled": 0,
            "evict_scans": 0,
            "compressed_spills": 0,
            "raw_spills": 0,
            "compress_rejects": 0,
            "spill_bytes_written": 0,
            "lazy_inflates": 0,
            "compressed_kernel_ops": 0,
            "compressed_kernel_fallbacks": 0,
        }

    # --- public protocol -------------------------------------------------------

    def put(self, payload, size: int, pinned: bool = False) -> int:
        """Register a payload; returns the entry id used for later access.

        With ``pinned=True`` the entry is born pinned (long-lived model
        weights on a serving path): it never competes for eviction until a
        matching :meth:`unpin`.
        """
        with self._lock:
            entry = CacheEntry(next(self._ids), payload, max(int(size), 0))
            self._entries[entry.entry_id] = entry
            self._lru[entry.entry_id] = None
            self._used += entry.size
            if pinned:
                entry.pin_count = 1
            else:
                self._evictable += 1
            self.stats["puts"] += 1
            self._evict_if_needed()
            return entry.entry_id

    def get(self, entry_id: int):
        """The payload for an entry, restoring it from disk if evicted."""
        with self._lock:
            entry = self._require(entry_id)
            self.stats["gets"] += 1
            restored = not entry.in_memory
            if restored:
                self._restore(entry)
            self._touch(entry)
            payload = self._outbound(entry)
            if restored:
                # restoring added entry.size back to _used: without an
                # eviction pass, repeated gets of evicted entries push the
                # pool arbitrarily over budget until the next put.  The
                # restored entry is clean and was just touched (MRU): it
                # is the last clean victim, but still goes before any
                # dirty one (the caller holds the payload either way).
                self._evict_if_needed()
            return payload

    def pin(self, entry_id: int):
        """Pin an entry (restore if needed) and return its payload."""
        with self._lock:
            entry = self._require(entry_id)
            if not entry.in_memory:
                self._restore(entry)
            if entry.pin_count == 0:
                self._evictable -= 1
            entry.pin_count += 1
            self._touch(entry)
            return self._outbound(entry)

    def unpin(self, entry_id: int) -> None:
        with self._lock:
            entry = self._require(entry_id)
            if entry.pin_count <= 0:
                raise BufferPoolError(f"unpin of unpinned entry {entry_id}")
            entry.pin_count -= 1
            if entry.pin_count == 0 and entry.in_memory:
                self._evictable += 1
            self._evict_if_needed()

    def update(self, entry_id: int, payload, size: int) -> None:
        """Replace the payload of an entry (e.g. after an in-place op)."""
        with self._lock:
            entry = self._require(entry_id)
            if entry.in_memory:
                self._used -= entry.size
            elif entry.pin_count == 0:
                self._evictable += 1  # evicted entry becomes resident again
            entry.payload = payload
            entry.size = max(int(size), 0)
            entry.dirty = True
            self._used += entry.size
            self._touch(entry)
            self._evict_if_needed()

    def free(self, entry_id: int) -> None:
        """Drop an entry and its spill file (variable went out of scope)."""
        with self._lock:
            entry = self._entries.pop(entry_id, None)
            if entry is None:
                return  # idempotent: rmvar on already-freed entries is fine
            self._lru.pop(entry_id, None)
            if entry.in_memory:
                self._used -= entry.size
                if entry.pin_count == 0:
                    self._evictable -= 1
            if entry.spill_path and os.path.exists(entry.spill_path):
                os.unlink(entry.spill_path)

    @property
    def used(self) -> int:
        return self._used

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            for entry_id in list(self._entries):
                self.free(entry_id)

    def close(self) -> None:
        """Drop all entries and remove the spill directory.

        The directory is removed only when it ends up empty (modulo our
        own pid marker): the spill dir may be shared by other pools of the
        same config, whose files must survive.  Also scavenges orphaned
        sibling spill dirs left behind by crashed processes.  Safe to call
        more than once.
        """
        with self._lock:
            self.clear()
            if self._release is not None:
                self._release()
            try:
                if self.spill_dir is not None:
                    os.rmdir(self.spill_dir)
            except OSError:
                pass  # never created, already gone, or other pools still spill here
        scavenge_spill_dirs(self._spill_root, skip=(self.spill_dir,))

    # --- internals ------------------------------------------------------------------

    def _require(self, entry_id: int) -> CacheEntry:
        entry = self._entries.get(entry_id)
        if entry is None:
            raise BufferPoolError(f"unknown buffer pool entry {entry_id}")
        return entry

    def _touch(self, entry: CacheEntry) -> None:
        self._lru.pop(entry.entry_id, None)
        self._lru[entry.entry_id] = None

    def _outbound(self, entry: CacheEntry):
        """The payload as handed to callers: still-compressed restores
        inflate here unless compressed-space execution is enabled."""
        payload = entry.payload
        if (not self.compressed_exec
                and isinstance(payload, BasicTensorBlock)
                and payload.store.compressed):
            payload.inflate()
        return payload

    # --- eviction --------------------------------------------------------------

    def _evict_if_needed(self) -> None:
        if self._used <= self.budget or self._evictable == 0:
            return  # under budget, or every resident entry is pinned
        self.stats["evict_scans"] += 1
        # victim order: clean cold entries first (dropping them is free —
        # the spill file is current), dirty entries last (a sync write,
        # usually for a temp that is about to be freed anyway)
        for clean_only in (True, False):
            for entry_id in list(self._lru):
                if self._used <= self.budget or self._evictable == 0:
                    return
                entry = self._entries.get(entry_id)
                if entry is None or entry.pin_count > 0 or not entry.in_memory:
                    continue
                if clean_only and (entry.dirty or entry.spill_path is None):
                    continue
                self._evict(entry)

    def _evict(self, entry: CacheEntry) -> None:
        if entry.dirty or entry.spill_path is None:
            try:
                self._spill_write(entry)
            except (InjectedFaultError, OSError):
                # Write retries exhausted (resilience on): never drop the
                # payload — pin it in memory so it stops competing for
                # eviction until the entry is freed or updated.
                entry.pin_count += 1
                self._evictable -= 1
                self.resilience.stats.incr("spill_pin_fallbacks")
                return
        entry.payload = None
        self._used -= entry.size
        self._evictable -= 1
        self._lru.pop(entry.entry_id, None)
        self.stats["evictions"] += 1

    # --- spill serialisation ----------------------------------------------------

    def _compress_payload(self, payload) -> Optional[CompressedBlock]:
        """The CLA form of an eligible payload, or None to spill raw.

        Eligibility is deliberately narrow — dense 2D FP64 blocks — so a
        restore reconstructs the exact store layout the block had in
        memory (sparse blocks spill raw: re-encoding them dense would
        change downstream kernel selection and break bitwise configs).
        """
        if not self.compress_spills or not isinstance(payload, BasicTensorBlock):
            return None
        store = payload.store
        if store.compressed:
            return store.block  # restored and never inflated: spill as-is
        if (type(store) is not DenseStore
                or store.ndim != 2
                or store.value_type is not ValueType.FP64
                or store.size < MIN_COMPRESS_CELLS):
            return None
        # cheap cardinality probe: a strided sample that already looks
        # high-entropy means the encoder would only burn a full sort to
        # reject on ratio afterwards — spill raw straight away
        flat = store.array.ravel()
        if flat.size >= 512:
            sample = flat[:: max(1, flat.size // 256)][:256]
            if np.unique(sample).size * 2 > sample.size:
                self.stats["compress_rejects"] += 1
                return None
        try:
            compressed = CompressedBlock.compress(payload)
        except Exception:  # noqa: BLE001 - compression must never sink a spill
            self.stats["compress_rejects"] += 1
            return None
        if compressed.memory_size() * COMPRESS_MIN_RATIO > store.memory_size():
            self.stats["compress_rejects"] += 1
            return None
        return compressed

    def _serialize(self, payload) -> Tuple[bytes, bool]:
        compressed = self._compress_payload(payload)
        if compressed is not None:
            blob = pickle.dumps(("cla", compressed),
                                protocol=pickle.HIGHEST_PROTOCOL)
            return blob, True
        blob = pickle.dumps(("raw", payload), protocol=pickle.HIGHEST_PROTOCOL)
        return blob, False

    def _deserialize(self, blob: bytes):
        tag, value = pickle.loads(blob)
        if tag == "cla":
            store = CompressedStore(value, on_event=self._cla_event)
            return BasicTensorBlock(store)
        return value

    def _cla_event(self, name: str) -> None:
        """Counter hook handed to restored CompressedStores (fires from
        kernel threads; the RLock makes it safe under the pool lock too)."""
        with self._lock:
            if name in self.stats:
                self.stats[name] += 1

    def _ensure_spill_dir(self) -> str:
        if self.spill_dir is None:
            self.spill_dir = tempfile.mkdtemp(prefix=SPILL_PREFIX,
                                              dir=self._spill_root)
        os.makedirs(self.spill_dir, exist_ok=True)
        if self._release is None or not self._release.alive:
            atomic_write_bytes(
                os.path.join(self.spill_dir, PID_FILE),
                f"{os.getpid()}\n".encode("ascii"),
            )
            self._release = weakref.finalize(
                self, _release_spill_dir, self.spill_dir, f"entry-{id(self)}-"
            )
        return self.spill_dir

    def _spill_write(self, entry: CacheEntry) -> None:
        """Serialise a payload to its spill file (``spill.write`` point).

        Retries run with ``sleep=None`` — the pool lock is held, so backoff
        sleeps here would stall every other pool user.
        """
        resilience = self.resilience
        blob, compressed = self._serialize(entry.payload)
        name = f"entry-{id(self)}-{entry.entry_id}.bin"

        def write_once() -> str:
            if resilience is not None:
                resilience.fire("spill.write")
            path = os.path.join(self._ensure_spill_dir(), name)
            # Atomic publish: a crash mid-write leaves only a temp file, so
            # a later restore never unpickles a truncated payload, and a
            # rewrite replaces the entry's previous spill in place.
            atomic_write_bytes(path, blob)
            return path

        if resilience is None:
            path = write_once()
        else:
            from repro.resilience.retry import call_with_retry

            path = call_with_retry(
                write_once, resilience.retry_policy,
                (InjectedFaultError, OSError),
                sleep=None, stats=resilience.stats, kind="spill",
            )
        entry.spill_path = path
        entry.dirty = False
        self.stats["bytes_spilled"] += entry.size
        self.stats["spill_bytes_written"] += len(blob)
        self.stats["compressed_spills" if compressed else "raw_spills"] += 1

    def _read_spill(self, path: str):
        """Read + deserialise a spill file (``spill.read`` point)."""
        resilience = self.resilience

        def read_once():
            if resilience is not None:
                resilience.fire("spill.read")
            with open(path, "rb") as handle:
                return self._deserialize(handle.read())

        if resilience is None:
            return read_once()
        from repro.resilience.retry import call_with_retry

        return call_with_retry(
            read_once, resilience.retry_policy,
            (InjectedFaultError, OSError),
            sleep=None, stats=resilience.stats, kind="spill",
        )

    def _restore(self, entry: CacheEntry) -> None:
        if entry.spill_path is None or not os.path.exists(entry.spill_path):
            raise BufferPoolError(
                f"entry {entry.entry_id} evicted without a spill file"
            )
        try:
            entry.payload = self._read_spill(entry.spill_path)
        except (InjectedFaultError, OSError) as exc:
            raise SpillFailureError("spill.read", entry.entry_id) from exc
        self._used += entry.size
        if entry.pin_count == 0:
            self._evictable += 1
        self.stats["restores"] += 1
