"""Lineage-based reuse cache with full and partial reuse (paper section 3.1).

Intermediates are cached under the canonical key of their lineage DAG.
Before executing a reuse-eligible instruction the interpreter probes the
cache:

* **full reuse** — the exact lineage key is cached: the instruction is
  skipped and the cached value bound;
* **partial reuse** — the requested result can be composed from a cached
  intermediate plus a cheap compensation plan.  Implemented for the
  ``steplm`` pattern of the paper's Example 1: a TSMM or transpose-side
  matmult over ``cbind(X, delta)`` reuses ``t(X)%*%X`` / ``t(X)%*%y`` and
  computes only the thin delta products.
"""

from __future__ import annotations

import collections
import threading
from typing import Optional

import numpy as np

from repro.lineage.item import LineageItem
from repro.tensor import BasicTensorBlock


#: Budget (bytes) of a lineage reuse cache.
REUSE_CACHE_BYTES = 512 * 1024**2


class ReuseCache:
    """LRU cache of intermediates keyed by lineage."""

    def __init__(self, budget_bytes: int = REUSE_CACHE_BYTES,
                 allow_partial: bool = True):
        self.budget = budget_bytes
        self.allow_partial = allow_partial
        self._entries: "collections.OrderedDict[bytes, tuple]" = collections.OrderedDict()
        self._used = 0
        self._lock = threading.RLock()
        self.stats = {
            "probes": 0,
            "hits_full": 0,
            "hits_partial": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
        }

    # --- basic cache protocol ----------------------------------------------------

    def probe(self, item: LineageItem):
        """The cached value for a lineage key, or None."""
        with self._lock:
            self.stats["probes"] += 1
            entry = self._entries.get(item.key)
            if entry is None:
                self.stats["misses"] += 1
                return None
            self._entries.move_to_end(item.key)
            self.stats["hits_full"] += 1
            return entry[0]

    def put(self, item: LineageItem, value, size: int) -> None:
        with self._lock:
            if size > self.budget:
                return  # too large to ever pay off
            if item.key in self._entries:
                return
            self._entries[item.key] = (value, size)
            self._used += size
            self.stats["puts"] += 1
            while self._used > self.budget and self._entries:
                __, (___, evicted_size) = self._entries.popitem(last=False)
                self._used -= evicted_size
                self.stats["evictions"] += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used = 0

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """A consistent copy of the statistics plus the derived hit rate."""
        with self._lock:
            stats = dict(self.stats)
            stats["entries"] = len(self._entries)
            stats["used_bytes"] = self._used
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
        # called from partial-reuse probes that run outside probe()'s lock
        with self._lock:
            entry = self._entries.get(item.key)
            if entry is None:
                return None
            self._entries.move_to_end(item.key)
            return entry[0]
