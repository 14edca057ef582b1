"""In-memory span tracing around calls into the program's layers.

The tracer records spans from the benchmark's side of each layer
boundary: it wraps a public function (``wrap``/``patch``) or a source
iterator (``wrap_iter``) so every call opens a span named after the
layer, with its parent being whichever span was open when the call
started.  Nothing inside ``src/`` changes.

Spans live in compact arrays (a live run records ~150k of them) and are
reduced at the end: a layer's *self time* is the summed duration of its
spans minus the part covered by their child spans.  The tracer is
single-threaded by design; every traced workload drives the program
from one thread.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        #: Work counts taken at the same boundaries (records, URLs, ...).
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _layer_id(self, layer: str) -> int:
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return layer_id

    def _open(self, layer_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.layer.append(layer_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        index = self._open(self._layer_id(layer))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, layer: str,
             after: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span.

        ``after(result, args)`` runs outside the span, to take counts.
        """
        layer_id = self._layer_id(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, name: str, layer: str,
              after: Callable | None = None) -> None:
        """Swap ``owner.name`` for its traced version until :meth:`unpatch`."""
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, after))

    def unpatch(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def wrap_iter(self, iterator: Iterable, layer: str,
                  count: Callable[[object], int] = lambda item: 1,
                  ) -> Iterator:
        """Iterate ``iterator`` with each ``next()`` recorded as a span.

        ``count(item)`` is added to ``counts[layer]`` per item produced.
        """
        layer_id = self._layer_id(layer)
        open_, close = self._open, self._close
        next_item = iter(iterator).__next__
        counts = self.counts
        while True:
            index = open_(layer_id)
            try:
                item = next_item()
            except StopIteration:
                return
            finally:
                close(index)
            counts[layer] += count(item)
            yield item

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Layer -> seconds inside its spans and outside their children."""
        import numpy as np
        if self._stack:
            raise RuntimeError("self times asked for while spans are open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.uint16)
        duration = end - start
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = np.bincount(layer, weights=duration - covered,
                          minlength=len(self.layers))
        return {name: float(own[i]) for i, name in enumerate(self.layers)}

    def span_count(self) -> int:
        return len(self.start)
