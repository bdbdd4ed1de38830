"""Multi-level buffer pool for intermediate variables (paper section 2.3(3)).

The buffer pool owns the in-memory payloads of matrix/tensor variables.  When
the managed footprint exceeds its budget it evicts unpinned entries in LRU
order by serialising them to spill files; a later access restores them
transparently.  Pinning protects entries while an instruction computes on
them.

Out-of-core extensions (PR 9):

* **Compressed spills.**  Eligible payloads (dense 2D FP64 blocks) are run
  through the CLA encoders (:mod:`repro.tensor.compressed`) on eviction and
  written in compressed form when the ratio pays; restores stay compressed
  (lazy :class:`~repro.tensor.compressed.CompressedStore`) until a kernel
  needs the dense array.  The codec is bit-exact (dictionaries over uint64
  bit patterns) and layout-preserving (only dense stores are eligible), so
  compressed paging is invisible to bitwise differential comparisons.
* **Async prefetch/writeback.**  A lazily-started worker thread restores
  entries the interpreter's basic-block lookahead announces (``prefetch``)
  and proactively cleans dirty LRU entries once the pool is near budget,
  so evictions on the hot path are usually payload drops, not writes.  The
  ``spill.write``/``spill.read`` fault points fire on the async paths too.

Spill files are versioned (``...-v<n>.bin``): writers write their own
version and commit it under the lock only while it is still current, so a
racing update can never leave a stale payload behind a live path.

The pool tracks statistics (evictions, restores, compressed spills,
prefetch hits/waste, async writebacks) surfaced through the obs
``bufferpool`` section.
"""

from __future__ import annotations

import collections
import itertools
import os
import pickle
import shutil
import threading
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

#: Prefix of spill directories created by ``ReproConfig.resolve_spill_dir``.
SPILL_PREFIX = "repro-spill-"

#: Blocks smaller than this (cells) are never worth compressing.
MIN_COMPRESS_CELLS = 64

#: Minimum dense-bytes / compressed-bytes ratio for a compressed spill to
#: be worth it (below this the raw pickle wins on restore latency).
COMPRESS_MIN_RATIO = 1.2

#: Fraction of the budget above which the background worker starts
#: cleaning dirty LRU entries ahead of demand.
WRITEBACK_WATERMARK = 0.75

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


def _scavenge_once(root: str, own_dir: str) -> None:
    with _SCAVENGE_LOCK:
        if root in _SCAVENGED_ROOTS:
            return
        _SCAVENGED_ROOTS.add(root)
    scavenge_spill_dirs(root, skip=(own_dir,))


class CacheEntry:
    """One buffered payload: in memory, spilled to disk, or both."""

    __slots__ = ("entry_id", "payload", "size", "pin_count", "spill_path",
                 "dirty", "version", "writing", "reading", "prefetched")

    def __init__(self, entry_id: int, payload, size: int):
        self.entry_id = entry_id
        self.payload = payload
        self.size = size
        self.pin_count = 0
        self.spill_path: Optional[str] = None
        self.dirty = True  # not yet persisted to the spill file
        #: Bumped on every payload replacement; spill files are committed
        #: only while their captured version is still current.
        self.version = 0
        #: Version the async writer is currently persisting (None = idle).
        self.writing: Optional[int] = None
        #: True while the async prefetcher reads this entry's spill file.
        self.reading = False
        #: Restored by the prefetcher and not yet touched by get/pin.
        self.prefetched = False

    @property
    def in_memory(self) -> bool:
        return self.payload is not None


class BufferPool:
    """LRU buffer pool with pinning, compressed spills, and async paging."""

    def __init__(self, budget: int, spill_dir: str, resilience=None,
                 compress_spills: bool = False,
                 compressed_exec: bool = False,
                 prefetch: bool = False):
        if budget <= 0:
            raise ValueError("buffer pool budget must be positive")
        self.budget = budget
        self.spill_dir = spill_dir
        #: Optional :class:`repro.resilience.ResilienceManager`.  When set,
        #: spill writes/reads retry transient I/O failures (``spill.write``
        #: and ``spill.read`` injection points); writes that stay broken
        #: fall back to pinning the entry in memory instead of losing it.
        self.resilience = resilience
        self.compress_spills = compress_spills
        #: When False, restored-compressed payloads inflate before leaving
        #: the pool, so kernels only ever see dense/sparse stores.
        self.compressed_exec = compressed_exec
        self.prefetch_enabled = prefetch
        self._pid_written = False
        # One startup scavenge per parent directory: reclaim spill dirs a
        # crashed process left behind (its pid is gone, ours differs).
        _scavenge_once(os.path.dirname(os.path.abspath(spill_dir)),
                       os.path.abspath(spill_dir))
        self._entries: Dict[int, CacheEntry] = {}
        self._lru = collections.OrderedDict()  # entry_id -> None, oldest first
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._used = 0
        self._evictable = 0  # entries in memory with pin_count == 0
        self._evicted = 0  # entries currently without an in-memory payload
        self._prefetch_queue = collections.deque()
        self._prefetch_pending = set()
        self._worker: Optional[threading.Thread] = None
        self._inflight = 0  # tasks the worker has claimed but not finished
        self._closing = False
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
            "prefetch_requests": 0,
            "prefetch_hits": 0,
            "prefetch_wasted": 0,
            "prefetch_skipped": 0,
            "prefetch_errors": 0,
            "async_writebacks": 0,
            "writeback_races": 0,
            "writeback_errors": 0,
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
            self._kick_worker()
            return entry.entry_id

    def get(self, entry_id: int):
        """The payload for an entry, restoring it from disk if evicted."""
        with self._lock:
            entry = self._require(entry_id)
            self.stats["gets"] += 1
            if not entry.in_memory:
                self._await_async_restore(entry)
            if not entry.in_memory:
                self._restore(entry)
                self._note_access(entry)
                payload = self._outbound(entry)
                # restoring added entry.size back to _used: without an
                # eviction pass, repeated gets of evicted entries push the
                # pool arbitrarily over budget until the next put.  The
                # restored entry was just touched (MRU), so the LRU scan
                # only takes it when nothing else is evictable.
                self._touch(entry)
                self._evict_if_needed()
                return payload
            self._note_access(entry)
            self._touch(entry)
            return self._outbound(entry)

    def pin(self, entry_id: int):
        """Pin an entry (restore if needed) and return its payload."""
        with self._lock:
            entry = self._require(entry_id)
            if not entry.in_memory:
                self._await_async_restore(entry)
            if not entry.in_memory:
                self._restore(entry)
            self._note_access(entry)
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
            else:
                self._evicted -= 1
                if entry.pin_count == 0:
                    self._evictable += 1  # evicted entry becomes resident again
            entry.payload = payload
            entry.size = max(int(size), 0)
            entry.dirty = True
            entry.version += 1
            entry.prefetched = False
            self._used += entry.size
            self._touch(entry)
            self._evict_if_needed()
            self._kick_worker()

    def free(self, entry_id: int) -> None:
        """Drop an entry and its spill file (variable went out of scope)."""
        with self._lock:
            entry = self._entries.pop(entry_id, None)
            if entry is None:
                return  # idempotent: rmvar on already-freed entries is fine
            self._lru.pop(entry_id, None)
            self._prefetch_pending.discard(entry_id)
            if entry.prefetched:
                entry.prefetched = False
                self.stats["prefetch_wasted"] += 1
            if entry.in_memory:
                self._used -= entry.size
                if entry.pin_count == 0:
                    self._evictable -= 1
            else:
                self._evicted -= 1
            if entry.spill_path and os.path.exists(entry.spill_path):
                os.unlink(entry.spill_path)

    def prefetch(self, entry_ids) -> None:
        """Queue evicted entries for background restoration.

        Called by the interpreter with the entry ids of a basic block's
        upcoming reads; the worker warms them while earlier instructions
        execute.  Entries that are resident, already queued, or unknown
        are skipped; restores that would breach the budget are skipped at
        restore time (``prefetch_skipped``).
        """
        if not self.prefetch_enabled:
            return
        # lock-free pre-filter: announcements are mostly for resident
        # entries, and taking the pool lock once per instruction to
        # discover that starves the demand path (dict reads are atomic
        # under the GIL; the locked pass below re-checks everything)
        candidates = [
            entry_id for entry_id in entry_ids
            if (entry := self._entries.get(entry_id)) is not None
            and not entry.in_memory and not entry.reading
            and entry.spill_path is not None
            and entry_id not in self._prefetch_pending
        ]
        if not candidates:
            return
        with self._lock:
            if self._closing:
                return
            queued = 0
            for entry_id in candidates:
                entry = self._entries.get(entry_id)
                if (entry is None or entry.in_memory or entry.reading
                        or entry.spill_path is None
                        or entry_id in self._prefetch_pending):
                    continue
                self._prefetch_pending.add(entry_id)
                self._prefetch_queue.append(entry_id)
                queued += 1
            if queued:
                self.stats["prefetch_requests"] += queued
                self._ensure_worker()
                self._cond.notify_all()

    @property
    def wants_prefetch(self) -> bool:
        """Cheap gate for the interpreter's lookahead: only worth walking
        a block's reads when something is actually evicted."""
        return self.prefetch_enabled and self._evicted > 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def drain_async(self, timeout: float = 5.0) -> None:
        """Block until the worker has no in-flight read/write (tests)."""
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        with self._cond:
            waited = 0.0
            while waited < deadline:
                busy = (bool(self._prefetch_queue) or self._inflight > 0
                        or (self.prefetch_enabled and not self._closing
                            and self._writeback_candidate() is not None))
                if not busy:
                    return
                self._cond.notify_all()  # wake the worker if it is idle
                self._cond.wait(0.01)
                waited += 0.01

    def clear(self) -> None:
        with self._lock:
            for entry_id in list(self._entries):
                self.free(entry_id)

    def close(self) -> None:
        """Drop all entries and remove the spill directory.

        Stops the async worker first, then removes the directory — but
        only when it ends up empty (modulo our own pid marker): the spill
        dir may be shared by other pools of the same config, whose files
        must survive.  Also scavenges orphaned sibling spill dirs left
        behind by crashed processes.  Safe to call more than once.
        """
        with self._cond:
            self._closing = True
            self._prefetch_queue.clear()
            self._prefetch_pending.clear()
            self._cond.notify_all()
            worker = self._worker
            self._worker = None
        if worker is not None:
            worker.join(timeout=10.0)
        with self._lock:
            self.clear()
            if self._pid_written:
                try:
                    leftover = [n for n in os.listdir(self.spill_dir)
                                if n != PID_FILE]
                    if not leftover:
                        os.unlink(os.path.join(self.spill_dir, PID_FILE))
                        self._pid_written = False
                except OSError:
                    pass
            try:
                os.rmdir(self.spill_dir)
            except OSError:
                pass  # never created, already gone, or other pools still spill here
        scavenge_spill_dirs(
            os.path.dirname(os.path.abspath(self.spill_dir)),
            skip=(os.path.abspath(self.spill_dir),),
        )

    # --- internals ------------------------------------------------------------------

    def _require(self, entry_id: int) -> CacheEntry:
        entry = self._entries.get(entry_id)
        if entry is None:
            raise BufferPoolError(f"unknown buffer pool entry {entry_id}")
        return entry

    def _touch(self, entry: CacheEntry) -> None:
        self._lru.pop(entry.entry_id, None)
        self._lru[entry.entry_id] = None

    def _note_access(self, entry: CacheEntry) -> None:
        if entry.prefetched:
            entry.prefetched = False
            self.stats["prefetch_hits"] += 1

    def _outbound(self, entry: CacheEntry):
        """The payload as handed to callers: still-compressed restores
        inflate here unless compressed-space execution is enabled."""
        payload = entry.payload
        if (not self.compressed_exec
                and isinstance(payload, BasicTensorBlock)
                and payload.store.compressed):
            payload.inflate()
        return payload

    def _await_async_restore(self, entry: CacheEntry) -> None:
        """Wait out an in-flight prefetch read of this entry (the worker
        installs the payload, or leaves it evicted on failure)."""
        while entry.reading:
            self._cond.wait()

    # --- eviction --------------------------------------------------------------

    def _evict_if_needed(self) -> None:
        if self._used <= self.budget or self._evictable == 0:
            return  # under budget, or every resident entry is pinned
        self.stats["evict_scans"] += 1
        waits = 0
        while self._used > self.budget and self._evictable > 0:
            progressed = False
            saw_writing = False
            # victim order: clean cold entries first (dropping them is
            # free — the spill file is current), then unconsumed prefetch
            # results (wastes a restore), dirty entries last (a sync
            # write, usually for a temp that is about to be freed anyway)
            for tier in (0, 1, 2):
                for entry_id in list(self._lru):
                    if self._used <= self.budget or self._evictable == 0:
                        return
                    entry = self._entries.get(entry_id)
                    if entry is None or entry.pin_count > 0 or not entry.in_memory:
                        continue
                    if entry.writing is not None:
                        # async writer owns this entry's spill file right
                        # now; it becomes a clean, free eviction the
                        # moment the write commits
                        saw_writing = True
                        continue
                    if tier < 2 and (entry.dirty or entry.spill_path is None):
                        continue
                    if tier < 1 and entry.prefetched:
                        continue
                    self._evict(entry)
                    progressed = True
                if self._used <= self.budget:
                    return
            if progressed:
                continue
            if saw_writing and waits < 500:
                waits += 1
                self._cond.wait(0.01)
                continue
            return

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
        if entry.prefetched:
            entry.prefetched = False
            self.stats["prefetch_wasted"] += 1
        entry.payload = None
        self._used -= entry.size
        self._evictable -= 1
        self._evicted += 1
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

    def _spill_file(self, entry: CacheEntry, version: int) -> str:
        return os.path.join(
            self.spill_dir,
            f"entry-{id(self)}-{entry.entry_id}-v{version}.bin",
        )

    def _ensure_spill_dir(self) -> None:
        os.makedirs(self.spill_dir, exist_ok=True)
        if not self._pid_written:
            atomic_write_bytes(
                os.path.join(self.spill_dir, PID_FILE),
                f"{os.getpid()}\n".encode("ascii"),
            )
            self._pid_written = True

    def _commit_spill(self, entry: CacheEntry, version: int, path: str,
                      compressed: bool, blob_size: int) -> None:
        """Publish a written spill file (lock held); unlinks the previous
        version's file once the new path is live."""
        previous = entry.spill_path
        entry.spill_path = path
        entry.dirty = False
        self.stats["bytes_spilled"] += entry.size
        self.stats["spill_bytes_written"] += blob_size
        self.stats["compressed_spills" if compressed else "raw_spills"] += 1
        if previous and previous != path and os.path.exists(previous):
            try:
                os.unlink(previous)
            except OSError:
                pass

    def _spill_write(self, entry: CacheEntry) -> None:
        """Serialise a payload to its spill file (``spill.write`` point).

        Retries run with ``sleep=None`` — the pool lock is held, so backoff
        sleeps here would stall every other pool user.
        """
        resilience = self.resilience
        blob, compressed = self._serialize(entry.payload)
        version = entry.version
        path = self._spill_file(entry, version)

        def write_once() -> None:
            if resilience is not None:
                resilience.fire("spill.write")
            self._ensure_spill_dir()
            # Atomic publish: a crash mid-write leaves only a temp file, so
            # a later restore never unpickles a truncated payload.
            atomic_write_bytes(path, blob)

        if resilience is None:
            write_once()
        else:
            from repro.resilience.retry import call_with_retry

            call_with_retry(
                write_once, resilience.retry_policy,
                (InjectedFaultError, OSError),
                sleep=None, stats=resilience.stats, kind="spill",
            )
        self._commit_spill(entry, version, path, compressed, len(blob))

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
        self._evicted -= 1
        if entry.pin_count == 0:
            self._evictable += 1
        self.stats["restores"] += 1

    # --- async worker -----------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._worker is None and not self._closing:
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-pool-ooc", daemon=True
            )
            self._worker.start()

    def _kick_worker(self) -> None:
        """Wake (or start) the worker when clean-ahead writeback has work."""
        if not self.prefetch_enabled or self._closing:
            return
        if self._used >= self.budget * WRITEBACK_WATERMARK and self._evictable:
            self._ensure_worker()
            self._cond.notify_all()

    def _make_prefetch_room(self, needed: int, exclude_id: int) -> bool:
        """Drop clean cold payloads until ``needed`` bytes fit (lock held).

        Only *clean* entries (spill file current) are dropped — that is a
        free eviction, so prefetching swaps cold-for-warm without sync
        writes on the async path.  The writeback worker keeps cleaning the
        LRU tail, so in steady state room is usually available.  Returns
        False when even dropping every clean entry would not make room.
        """
        if self._used + needed <= self.budget:
            return True
        # two passes: spare unconsumed prefetch results first, so a deep
        # lookahead can't cannibalise blocks it just warmed; fall back to
        # taking them only when nothing else is droppable
        for take_prefetched in (False, True):
            for entry_id in list(self._lru):
                entry = self._entries.get(entry_id)
                if (entry is None or entry_id == exclude_id
                        or not entry.in_memory or entry.pin_count > 0
                        or entry.dirty or entry.writing is not None
                        or entry.spill_path is None):
                    continue
                if entry.prefetched:
                    if not take_prefetched:
                        continue
                    entry.prefetched = False
                    self.stats["prefetch_wasted"] += 1
                entry.payload = None
                self._used -= entry.size
                self._evictable -= 1
                self._evicted += 1
                self._lru.pop(entry_id, None)
                self.stats["evictions"] += 1
                if self._used + needed <= self.budget:
                    return True
        return self._used + needed <= self.budget

    def _writeback_candidate(self) -> Optional[CacheEntry]:
        """Oldest dirty, unpinned, resident entry (lock held), but only
        once the pool is close enough to budget that eviction is likely
        AND no clean entry is droppable — while clean victims exist,
        eviction never writes, so persisting young dirty entries (temps,
        rebound accumulators that are freed moments later) would only
        burn spill bandwidth."""
        if self._used < self.budget * WRITEBACK_WATERMARK:
            return None
        candidate = None
        for entry_id in self._lru:
            entry = self._entries.get(entry_id)
            if (entry is None or not entry.in_memory or entry.pin_count > 0
                    or entry.writing is not None or entry.reading):
                continue
            if not entry.dirty and entry.spill_path is not None:
                return None  # a free eviction exists; no write needed yet
            if candidate is None and entry.dirty:
                candidate = entry
        return candidate

    def _worker_loop(self) -> None:
        while True:
            task = None
            with self._cond:
                while task is None:
                    if self._closing:
                        return
                    if self._prefetch_queue:
                        entry_id = self._prefetch_queue.popleft()
                        self._prefetch_pending.discard(entry_id)
                        task = ("prefetch", entry_id)
                        break
                    candidate = self._writeback_candidate()
                    if candidate is not None:
                        candidate.writing = candidate.version
                        task = ("writeback", candidate, candidate.payload,
                                candidate.version)
                        break
                    self._cond.wait(0.5)
                self._inflight += 1
            try:
                if task[0] == "prefetch":
                    self._prefetch_one(task[1])
                else:
                    self._writeback_one(task[1], task[2], task[3])
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _prefetch_one(self, entry_id: int) -> None:
        """Restore one evicted entry off-thread (fires ``spill.read``)."""
        with self._cond:
            entry = self._entries.get(entry_id)
            if (entry is None or entry.in_memory or entry.reading
                    or entry.spill_path is None or self._closing):
                return
            if not self._make_prefetch_room(entry.size, entry_id):
                # no clean cold payload to swap out: restoring would force
                # a sync spill of something warmer — let demand handle it
                self.stats["prefetch_skipped"] += 1
                return
            entry.reading = True
            path = entry.spill_path
        payload = None
        try:
            payload = self._read_spill(path)
        except Exception:  # noqa: BLE001 - demand restore will retry/raise
            pass
        with self._cond:
            entry.reading = False
            live = self._entries.get(entry_id) is entry
            if payload is None:
                if live:
                    self.stats["prefetch_errors"] += 1
            elif (live and not entry.in_memory
                    and self._make_prefetch_room(entry.size, entry_id)):
                entry.payload = payload
                entry.prefetched = True
                self._used += entry.size
                self._evicted -= 1
                if entry.pin_count == 0:
                    self._evictable += 1
                self._touch(entry)  # about to be read: most-recently-used
                self.stats["restores"] += 1
            else:
                self.stats["prefetch_skipped"] += 1
            self._cond.notify_all()

    def _writeback_one(self, entry: CacheEntry, payload, version: int) -> None:
        """Persist one dirty entry off-thread (fires ``spill.write``).

        The payload reference and version were captured under the lock;
        the write lands in a version-suffixed file and only commits while
        that version is still current, so a racing ``update`` can never
        end up behind a stale spill path.
        """
        resilience = self.resilience
        blob = None
        path = None
        try:
            blob, compressed = self._serialize(payload)
            path = self._spill_file(entry, version)

            def write_once() -> None:
                if resilience is not None:
                    resilience.fire("spill.write")
                self._ensure_spill_dir()
                atomic_write_bytes(path, blob)

            if resilience is None:
                write_once()
            else:
                from repro.resilience.retry import call_with_retry

                call_with_retry(
                    write_once, resilience.retry_policy,
                    (InjectedFaultError, OSError),
                    sleep=None, stats=resilience.stats, kind="spill",
                )
        except Exception:  # noqa: BLE001 - sync eviction will rewrite later
            with self._cond:
                entry.writing = None
                self.stats["writeback_errors"] += 1
                self._cond.notify_all()
            return
        with self._cond:
            entry.writing = None
            live = self._entries.get(entry.entry_id) is entry
            if live and entry.version == version and entry.in_memory:
                self._commit_spill(entry, version, path, compressed, len(blob))
                self.stats["async_writebacks"] += 1
            else:
                # the entry was updated, freed, or evicted meanwhile: the
                # written file describes a stale version — discard it
                self.stats["writeback_races"] += 1
                try:
                    if path is not None and os.path.exists(path):
                        os.unlink(path)
                except OSError:
                    pass
            self._cond.notify_all()
