"""Harness-side spans around the calls into each layer.

No file under ``src/`` knows about this module.  A traced run replaces a
layer's public entry points (module functions such as
``repro.tensor.ops.matmult`` or methods such as ``ReuseCache.probe``) by
wrappers that record one span per call — layer, name, start, end, the
span that caused it, and the thread — and restores the originals
afterwards.  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the benchmark ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times of one thread's spans sum to the duration of
that thread's root spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

# span record layout (a list, so the end time is filled in place)
LAYER, NAME, START, END, PARENT, THREAD = range(6)


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        record = [layer, name, time.perf_counter(), 0.0,
                  stack[-1] if stack else None, threading.get_ident()]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def _wrapper(self, func: Callable, layer: str, name: str,
                 on_return: Optional[Callable]) -> Callable:
        # same record as ``span``, inlined: this runs once per traced call
        spans = self.spans
        get_stack = self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = get_stack()
            record = [layer, name, clock(), 0.0,
                      stack[-1] if stack else None, ident()]
            spans.append(record)
            stack.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    # --- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str,
             on_return: Optional[Callable] = None) -> None:
        """Trace ``owner.attr`` (a module function or a plain method).

        A module function imported by name elsewhere in ``repro`` (``from
        repro.lang.parser import parse``) is replaced in every ``repro``
        module that holds the same object, so callers that bound it at
        import time are traced too.
        """
        original = vars(owner)[attr]
        traced = self._wrapper(original, layer, f"{layer}.{attr}", on_return)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and module is not None and vars(module).get(attr) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, traced)

    def wrap_public(self, module, layer: str, skip: Iterable[str] = ()) -> None:
        """Trace every public function defined in ``module``."""
        for attr, value in list(vars(module).items()):
            if (callable(value) and not isinstance(value, type)
                    and not attr.startswith("_") and attr not in skip
                    and getattr(value, "__module__", None) == module.__name__):
                self.wrap(module, attr, layer)

    def unwrap(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # --- reading --------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list, to slice the spans recorded after it."""
        return len(self.spans)

    def since(self, mark: int) -> List[list]:
        return self.spans[mark:]

    def dump(self, path: str) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            {
                "id": i, "layer": r[LAYER], "name": r[NAME],
                "start_s": r[START], "end_s": r[END],
                "parent": index.get(id(r[PARENT])) if r[PARENT] is not None else None,
                "thread": r[THREAD],
            }
            for i, r in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter", "spans": rows}, handle)


def self_times(spans: List[list], thread: Optional[int] = None) -> Dict[str, float]:
    """Seconds of self time per layer over ``spans`` (one thread, or all)."""
    child_time: Dict[int, float] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            child_time[id(parent)] = (
                child_time.get(id(parent), 0.0) + record[END] - record[START]
            )
    totals: Dict[str, float] = {}
    for record in spans:
        if thread is not None and record[THREAD] != thread:
            continue
        own = record[END] - record[START] - child_time.get(id(record), 0.0)
        totals[record[LAYER]] = totals.get(record[LAYER], 0.0) + own
    return totals


def total_time(spans: List[list], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(r[END] - r[START] for r in spans if r[NAME] == name)
