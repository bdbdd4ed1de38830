"""Bounded admission queue with per-model request coalescing.

The batcher is the single synchronisation point of the scoring service:

* ``offer`` admits a request or rejects it immediately when the bounded
  queue is full (backpressure instead of unbounded buffering);
* ``take`` hands a worker a *batch*: the oldest pending model's requests,
  coalesced up to ``max_batch_size``.  When a batch is still short, the
  worker lingers up to ``max_wait_ms`` for stragglers — the classic
  throughput/latency knob of model-serving systems;
* per-model in-flight counts enforce each model's concurrency limit, so
  one hot model cannot monopolise every worker.

All workers share the one queue: whichever worker loop is free takes
the next batch, of any model.  Requests carry an optional ``priority``
(the QoS layer's weighted-fair-queueing virtual finish time); each model
queue is a min-heap on ``(priority, seq)``, and untagged requests all
carry priority 0.0, which degrades to plain FIFO via the admission
sequence.

With ``max_batch_size=1`` and ``max_wait_ms=0`` the batcher degenerates
into a plain bounded FIFO queue (one script execution per request).
"""

from __future__ import annotations

import collections
import heapq
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceOverloadedError, ServingError


def shard_of(model: str, shards: int) -> int:
    """``crc32(model) % shards``: the worker a static model→worker routing
    would pin ``model`` to (stable across processes and runs).

    The service does not route by model.  Its only use is the repo
    benchmark's ``serve_zipf``, which reports which models such routing
    would put on one worker.
    """
    if shards <= 1:
        return 0
    return zlib.crc32(model.encode("utf-8")) % shards


class MicroBatcher:
    """Admission queue + coalescing of single-row requests into batches."""

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        queue_limit: int = 256,
        limit_of: Optional[Callable[[str], Optional[int]]] = None,
    ):
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        if queue_limit < 1:
            raise ServingError("queue_limit must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_wait = max(max_wait_ms, 0.0) / 1e3
        self.queue_limit = queue_limit
        self._limit_of = limit_of
        self._cond = threading.Condition()
        # model -> min-heap of (priority, seq, request); insertion order
        # doubles as the round-robin order across models
        self._pending: "collections.OrderedDict[str, list]" = (
            collections.OrderedDict()
        )
        self._seq = 0
        self._depth = 0
        self._running: Dict[str, int] = collections.Counter()
        self._closed = False

    # --- admission ----------------------------------------------------------

    def offer(self, request) -> None:
        """Admit a request (``request.model`` names its queue) or reject."""
        with self._cond:
            if self._closed:
                raise ServingError("batcher is closed")
            if self._depth >= self.queue_limit:
                raise ServiceOverloadedError(
                    f"admission queue full ({self.queue_limit} pending)"
                )
            queue = self._pending.get(request.model)
            if queue is None:
                queue = self._pending[request.model] = []
            self._seq += 1
            heapq.heappush(
                queue,
                (getattr(request, "priority", 0.0), self._seq, request),
            )
            self._depth += 1
            self._cond.notify_all()

    @property
    def depth(self) -> int:
        with self._cond:
            return self._depth

    # --- batch formation ----------------------------------------------------

    def _capacity(self, model: str) -> bool:
        if self._limit_of is None:
            return True
        limit = self._limit_of(model)
        return limit is None or self._running[model] < limit

    def _next_model(self) -> Optional[str]:
        for model, queue in self._pending.items():
            if queue and self._capacity(model):
                return model
        return None

    def _drain(self, model: str, room: int) -> List:
        queue = self._pending.get(model)
        batch: List = []
        while queue and room > 0:
            batch.append(heapq.heappop(queue)[2])
            room -= 1
        self._depth -= len(batch)
        if queue is not None and not queue:
            # rotate: an empty queue re-registers at the tail on next offer
            self._pending.pop(model, None)
        return batch

    def take(self, timeout: float = 0.1) -> Optional[Tuple[str, List]]:
        """The next (model, requests) batch, or None on timeout/shutdown.

        Marks the model as running; the worker must call :meth:`done` after
        executing the batch so concurrency slots free up.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed and self._depth == 0:
                    return None
                model = self._next_model()
                if model is not None:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            # Reserve the model's concurrency slot *before* draining and
            # lingering: the linger wait below releases the lock, and a
            # second worker must see this model at capacity rather than
            # take its next requests concurrently (per-model limits and
            # FIFO ordering would both break otherwise).
            self._running[model] += 1
            batch = self._drain(model, self.max_batch_size)
            if self.max_wait > 0 and len(batch) < self.max_batch_size \
                    and not self._closed:
                # linger briefly for stragglers to fill the batch
                linger = time.monotonic() + self.max_wait
                while len(batch) < self.max_batch_size:
                    remaining = linger - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                    batch.extend(
                        self._drain(model, self.max_batch_size - len(batch))
                    )
                    if self._closed:
                        break
            return model, batch

    def done(self, model: str) -> None:
        """Release the model's concurrency slot after a batch completes."""
        with self._cond:
            self._running[model] = max(self._running[model] - 1, 0)
            self._cond.notify_all()

    # --- shutdown -----------------------------------------------------------

    def close(self) -> List:
        """Refuse new work; returns the requests still pending (undrained)."""
        with self._cond:
            self._closed = True
            leftovers = [
                entry[2] for queue in self._pending.values() for entry in queue
            ]
            self._pending.clear()
            self._depth = 0
            self._cond.notify_all()
            return leftovers
