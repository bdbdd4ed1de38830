"""Lineage-based reuse cache with full and partial reuse (paper section 3.1).

Intermediates are cached under the canonical key of their lineage DAG.
Before executing a reuse-eligible instruction (a matrix multiply or a
matrix read) the interpreter probes the cache:

* **full reuse** — the exact lineage key is cached: the instruction is
  skipped and the cached value bound;
* **partial reuse** — the requested result can be composed from a cached
  intermediate plus a cheap compensation plan.  Implemented for the
  ``steplm`` pattern of the paper's Example 1: a TSMM or transpose-side
  matmult over ``cbind(X, delta)`` reuses ``t(X)%*%X`` / ``t(X)%*%y`` and
  computes only the thin delta products.

The entries live in one store for the whole process, as in SystemDS: a
script re-run on unchanged data — by a new ``MLContext``, a JMLC
``PreparedScript`` or the CLI — finds the previous run's reads and
products.  This is sound because lineage leaves name data by content
(:mod:`repro.lineage.item`), so a key is only ever produced again by the
same computation over the same values.  An entry therefore never goes
stale; it leaves the store only by LRU eviction under
:data:`REUSE_CACHE_BYTES`, or by :func:`clear_reuse_caches`.  A changed
input — a rewritten file, an array with other values — is a different
key, i.e. a miss.  Keys are scoped by the config fields that select
kernels and plans (:func:`config_scope`), so two sessions share entries
exactly when they would compute the same bits.

:class:`ReuseCache` is the per-session view every ``ExecutionContext``,
``MLContext`` and ``PreparedScript`` with reuse enabled holds: it carries
the session's reuse policy and its own probe/hit/put counts, while
``entries`` and ``used_bytes`` in :meth:`ReuseCache.snapshot` describe the
shared store.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import threading
from typing import Optional

import numpy as np

from repro.lineage.item import LineageItem
from repro.tensor import BasicTensorBlock


#: Budget (bytes) of the process-wide reuse store.
REUSE_CACHE_BYTES = 512 * 1024**2

#: Config fields that never change a value the cache holds: where spills
#: and checkpoints go, observability, trace compilation, the transport and
#: fault tolerance (both bit-identical by the qa lattice), and interpreter
#: limits.  Every other field scopes the keys.
_SCOPE_FREE_FIELDS = frozenset({
    "spill_dir", "checkpoint_dir", "checkpoint_every", "enable_stats",
    "enable_trace", "trace_threshold", "enable_lineage_dedup",
    "transport", "transport_host", "transport_request_timeout_s",
    "heartbeat_interval_s", "heartbeat_miss_grace", "enable_resilience",
    "fault_spec", "fault_seed", "retry_budget", "retry_backoff_ms",
    "retry_backoff_max_ms", "blacklist_after", "blacklist_cooldown_s",
    "breaker_threshold", "breaker_cooldown_s", "max_instructions",
})


def config_scope(config) -> bytes:
    """Key prefix of the config fields that can change a cached value."""
    fields = [
        (field.name, getattr(config, field.name))
        for field in dataclasses.fields(config)
        if field.name not in _SCOPE_FREE_FIELDS
    ]
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).digest()


class _Store:
    """Entries in LRU order under one byte budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: "collections.OrderedDict[bytes, tuple]" = collections.OrderedDict()
        self.used = 0
        self.lock = threading.Lock()

    def get(self, key: bytes):
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key: bytes, value, size: int) -> Optional[int]:
        """Insert; the number of entries evicted, or None when not stored."""
        with self.lock:
            if size > self.budget or key in self.entries:
                return None  # too large to ever pay off, or already cached
            self.entries[key] = (value, size)
            self.used += size
            evicted = 0
            while self.used > self.budget and self.entries:
                __, (___, evicted_size) = self.entries.popitem(last=False)
                self.used -= evicted_size
                evicted += 1
            return evicted

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.used = 0


_PROCESS_STORE = _Store(REUSE_CACHE_BYTES)


def clear_reuse_caches() -> None:
    """Drop the process-wide store and every cached program (harnesses
    call it so that no run starts warm from an earlier one)."""
    from repro.api.jmlc import clear_program_cache

    _PROCESS_STORE.clear()
    clear_program_cache()


class ReuseCache:
    """One session's view of a lineage reuse store.

    ``budget_bytes=None`` (every session the system creates) is the
    process-wide store; an explicit budget gives the cache a private store
    of that size.
    """

    def __init__(self, budget_bytes: Optional[int] = None,
                 allow_partial: bool = True, scope: bytes = b""):
        self._store = _PROCESS_STORE if budget_bytes is None else _Store(budget_bytes)
        self.allow_partial = allow_partial
        self._scope = scope
        self._lock = threading.Lock()
        self.stats = {
            "probes": 0,
            "hits_full": 0,
            "hits_partial": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
        }

    @classmethod
    def for_config(cls, config) -> "ReuseCache":
        """A session on the process-wide store, with the config's policy."""
        return cls(allow_partial=config.partial_reuse_enabled,
                   scope=config_scope(config))

    # --- basic cache protocol ----------------------------------------------------

    def probe(self, item: LineageItem):
        """The cached value for a lineage key, or None."""
        value = self._store.get(self._scope + item.key)
        with self._lock:
            self.stats["probes"] += 1
            self.stats["misses" if value is None else "hits_full"] += 1
        return value

    def put(self, item: LineageItem, value, size: int) -> None:
        evicted = self._store.put(self._scope + item.key, value, size)
        if evicted is None:
            return
        with self._lock:
            self.stats["puts"] += 1
            self.stats["evictions"] += evicted

    @property
    def used(self) -> int:
        with self._store.lock:
            return self._store.used

    def __len__(self) -> int:
        with self._store.lock:
            return len(self._store.entries)

    def snapshot(self) -> dict:
        """A consistent copy of this session's statistics, the store's
        size, and the derived hit rate."""
        with self._lock:
            stats = dict(self.stats)
        with self._store.lock:
            stats["entries"] = len(self._store.entries)
            stats["used_bytes"] = self._store.used
        hits = stats["hits_full"] + stats["hits_partial"]
        stats["hit_rate"] = hits / stats["probes"] if stats["probes"] else 0.0
        return stats

    # --- partial reuse -------------------------------------------------------------------

    def probe_partial_tsmm(self, out_item: LineageItem, input_block: BasicTensorBlock) -> Optional[BasicTensorBlock]:
        """Compensate ``tsmm(cbind(A, d))`` from a cached ``tsmm(A)``.

        Returns the full ``t(X)%*%X`` of the cbound matrix, computing only
        the thin ``t(X)%*%d`` delta product.
        """
        if not self.allow_partial:
            return None
        source = out_item.inputs[0] if out_item.inputs else None
        if source is None or source.opcode != "cbind" or len(source.inputs) != 2:
            return None
        cached = self._probe_quiet(LineageItem("tsmm", [source.inputs[0]]))
        if not isinstance(cached, BasicTensorBlock):
            return None
        ka = cached.shape[0]
        k = input_block.num_cols
        if not 0 < ka < k:
            return None
        self._count_partial_hit()
        x = input_block.to_numpy() if not input_block.is_sparse else input_block.to_scipy()
        if input_block.is_sparse:
            delta = np.asarray(x[:, ka:].todense())
            thin = np.asarray((x.T @ delta))
        else:
            delta = x[:, ka:]
            thin = x.T @ delta
        out = np.empty((k, k), dtype=np.float64)
        out[:ka, :ka] = cached.to_numpy()
        out[:ka, ka:] = thin[:ka]
        out[ka:, :ka] = thin[:ka].T
        out[ka:, ka:] = thin[ka:]
        return BasicTensorBlock.from_numpy(out)

    def probe_partial_tmm(
        self,
        out_item: LineageItem,
        left_block: BasicTensorBlock,
        right_block: BasicTensorBlock,
    ) -> Optional[BasicTensorBlock]:
        """Compensate ``t(cbind(A, d)) %*% y`` from a cached ``t(A) %*% y``."""
        if not self.allow_partial:
            return None
        if len(out_item.inputs) != 2:
            return None
        left_item, right_item = out_item.inputs
        if left_item.opcode != "cbind" or len(left_item.inputs) != 2:
            return None
        cached = self._probe_quiet(LineageItem("tmm", [left_item.inputs[0], right_item]))
        if not isinstance(cached, BasicTensorBlock):
            return None
        ka = cached.shape[0]
        k = left_block.num_cols
        if not 0 < ka < k:
            return None
        self._count_partial_hit()
        if left_block.is_sparse:
            delta = left_block.to_scipy()[:, ka:]
            thin = np.asarray((delta.T @ right_block.to_numpy()))
        else:
            delta = left_block.to_numpy()[:, ka:]
            thin = delta.T @ right_block.to_numpy()
        out = np.vstack([cached.to_numpy(), thin])
        return BasicTensorBlock.from_numpy(out)

    def _count_partial_hit(self) -> None:
        """Reclassify the preceding full-probe miss as a partial hit.

        Partial probes run only after :meth:`probe` already counted the
        same lookup as a miss; without the decrement, ``misses`` overcounts
        and ``hit_rate`` in :meth:`snapshot` is skewed low.
        """
        with self._lock:
            self.stats["hits_partial"] += 1
            self.stats["misses"] = max(self.stats["misses"] - 1, 0)

    def _probe_quiet(self, item: LineageItem):
        # a partial probe's lookup of its cached sub-result: not counted
        return self._store.get(self._scope + item.key)
