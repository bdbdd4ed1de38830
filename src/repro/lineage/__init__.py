"""Lineage tracing and reuse of intermediates (paper section 3.1).

Fine-grained lineage of logical operations is traced per live variable as a
DAG of :class:`~repro.lineage.item.LineageItem` nodes.  The trace enables
reproducibility (replaying a computation), debugging (querying what an
intermediate was computed from), and — through
:class:`~repro.lineage.cache.ReuseCache` — full and partial reuse of
redundantly computed intermediates, in one store that lives for the
process (:func:`~repro.lineage.cache.clear_reuse_caches` empties it).
"""

from repro.lineage.item import LineageItem
from repro.lineage.tracer import LineageTracer
from repro.lineage.cache import ReuseCache, clear_reuse_caches

__all__ = ["LineageItem", "LineageTracer", "ReuseCache", "clear_reuse_caches"]
