"""Span recorder for the traced run.

The benchmark measures the layers *from outside*: every call into a
layer's public function is wrapped in a span by the benchmark's own
code (nothing under ``src/`` is instrumented).  A span is a name, a
start, an end, the span that caused it and the id of the request it
belongs to.  Spans stay in memory and are written as JSON lines when the
run ends.

A request's root span stays open while the single client thread works
on other requests of its window, so the ambient parent is a stack the
harness re-enters with :meth:`Tracer.resume`, not "whatever opened
last".  A layer's *self time* is its span's duration minus the part of
that interval its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Iterable, Iterator

__all__ = ["Span", "Tracer", "self_times", "by_name", "write_jsonl",
           "read_jsonl"]

_now = time.perf_counter


class Span:
    """One timed interval; a context manager that nests under the
    tracer's current span."""

    __slots__ = ("tracer", "id", "name", "start", "end", "parent", "request")

    def __init__(self, tracer: "Tracer", sid: int, name: str,
                 parent: int | None, request: int | None) -> None:
        self.tracer = tracer
        self.id = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = _now()
        self.end: float | None = None

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.end = _now()
        self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_doc(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


class _Resumed:
    """Re-enter an open span as the ambient parent without ending it."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        self.span.tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.tracer._stack.pop()


class _NullSpan:
    """What a disabled tracer hands out; callers may still rename it."""

    __slots__ = ("name",)

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from the one load-generating thread.

    ``enabled`` may be flipped between phases of a run; while it is off
    every method returns a shared no-op, so the untraced phases run the
    same workload code without recording.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str):
        """A span under the current ambient parent (``with`` it)."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(self, len(self.spans), name,
                    parent.id if parent is not None else None,
                    parent.request if parent is not None else None)
        self.spans.append(span)
        return span

    def open_request(self, request: int):
        """Start a request's root span; it stays open until
        :meth:`close`.  Returns ``None`` while disabled."""
        if not self.enabled:
            return None
        span = Span(self, len(self.spans), "request", None, request)
        self.spans.append(span)
        return span

    def resume(self, span: Span | None):
        """Make an open root span the ambient parent for a ``with``."""
        return _NULL_SPAN if span is None else _Resumed(span)

    @staticmethod
    def close(span: Span | None) -> None:
        if span is not None:
            span.end = _now()


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    spans = [s for s in spans if s.end is not None]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start,
                                        s.end)
            for s in spans}


def by_name(spans: Iterable[Span]) -> dict[str, list[float]]:
    """Span name → the self times (seconds) of every closed span of
    that name, in recording order."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        if s.id in selfs:
            out[s.name].append(selfs[s.id])
    return out


def write_jsonl(spans: Iterable[Span], path) -> int:
    """Dump closed spans, one JSON object per line; returns the count."""
    n = 0
    with open(path, "w") as fh:
        for s in spans:
            if s.end is None:
                continue
            fh.write(json.dumps(s.to_doc()) + "\n")
            n += 1
    return n


def read_jsonl(path) -> Iterator[dict]:
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
