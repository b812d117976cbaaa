"""Spans recorded by the benchmark around its own calls into singfol.

A span has a name, a start, an end and the index of the span that was open
when it started.  Spans stay in memory and are summarised or written out
when the run ends.  The untraced passes use :data:`OFF`, whose ``span`` is
a shared no-op context, so the timed code path is the same in both modes
apart from the bookkeeping itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NO_SPAN


OFF = NullTracer()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans of one pass; ``trace_id`` ties them to that pass."""

    enabled = True

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent])
        return _Span(self, len(self.spans) - 1)

    def busy(self) -> dict[str, float]:
        """Summed duration per span name, children included."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_time(self) -> dict[str, float]:
        """Summed duration per span name minus the time its children cover.

        Children of one span never overlap (the benchmark is one thread), so
        the covered part is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def records(self) -> list[dict]:
        return [{"trace": self.trace_id, "name": name, "start": start, "end": end,
                 "parent": parent} for name, start, end, parent in self.spans]
