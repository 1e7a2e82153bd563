"""The span recorder.

A span is a name, a start, an end, the span that caused it and the id of
the request (the trace) it belongs to.  Spans stay in memory and are
written as JSON lines on demand.  A layer's *self time* is its span's
duration minus the part of that interval its direct children cover.

Each thread has its own stack of open spans, so a span opened on a
serving worker never nests under one of the client's.  A request's root
span may stay open while its thread works on other requests, so the
ambient parent is a stack a caller re-enters with :meth:`Tracer.resume`,
not "whatever opened last".

While a tracer is on, one :data:`gc.callbacks` entry books each
collection onto the innermost open span of the thread that triggered
it (``gc_runs`` and ``gc_us``); while it is off it installs none and
:meth:`Tracer.span` hands out one shared no-op.  A span holds the stack
of its thread, never its tracer, so a recorded span makes no reference
cycle.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Iterable, Iterator

__all__ = ["Span", "Tracer", "self_times", "by_name", "write_jsonl",
           "read_jsonl", "table"]

_now = time.perf_counter


class Span:
    """One timed interval; a context manager that nests under the
    current span of the thread that made it."""

    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "outcome", "gc_runs", "gc_us", "_stack")

    def __init__(self, sid: int, name: str, parent: int | None,
                 request: int | str | None, stack: list | None) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.request = request
        #: what the seam answered, where it answers one
        self.outcome: str | None = None
        self.gc_runs = 0
        self.gc_us = 0.0
        #: the open-span stack of the thread that made the span
        self._stack = stack
        self.start = _now()
        self.end: float | None = None

    def __enter__(self) -> "Span":
        self._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.end = _now()
        self._stack.pop()

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_doc(self) -> dict:
        doc = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent,
               "request": self.request, "gc_runs": self.gc_runs,
               "gc_us": self.gc_us}
        if self.outcome is not None:
            doc["outcome"] = self.outcome
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "Span":
        """A closed span read back from its JSON line."""
        span = cls(doc["id"], doc["name"], doc["parent"], doc["request"],
                   None)
        span.start, span.end = doc["start"], doc["end"]
        span.gc_runs = doc.get("gc_runs", 0)
        span.gc_us = doc.get("gc_us", 0.0)
        span.outcome = doc.get("outcome")
        return span


class _Resumed:
    """Re-enter an open span as the ambient parent without ending it."""

    __slots__ = ("span", "stack")

    def __init__(self, span: Span, stack: list) -> None:
        self.span = span
        self.stack = stack

    def __enter__(self) -> Span:
        self.stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.stack.pop()


class _NullSpan:
    """What a disabled tracer hands out; callers may still rename it or
    set its request or outcome."""

    __slots__ = ("name", "request", "outcome")

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        pass  # named arguments: a seam pays no tuple while the tracer is off


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from every thread.

    ``enabled`` may be flipped between phases of a run; while it is off
    every method returns a shared no-op and no collector callback is
    installed, so the untraced phases run the same code without
    recording.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_start = 0.0
        self._enabled = False
        self.enabled = enabled

    @property
    def enabled(self) -> bool:
        """Whether spans are recorded (and the collector callback is in)."""
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        on = bool(on)
        if on == self._enabled:
            return
        if on:
            gc.callbacks.append(self._on_gc)
        else:  # a bound method equals every other binding of it
            gc.callbacks.remove(self._on_gc)
        self._enabled = on

    def _stack(self) -> list[Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _on_gc(self, phase: str, info: dict) -> None:
        """Book a collection onto the collecting thread's innermost span."""
        if phase == "start":
            self._gc_start = _now()
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            span = stack[-1]
            span.gc_runs += 1
            span.gc_us += (_now() - self._gc_start) * 1e6

    def span(self, name: str):
        """A span under the thread's current ambient parent (``with`` it)."""
        if not self._enabled:
            return _NULL_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None,
                    parent.request if parent is not None else None, stack)
        self.spans.append(span)
        return span

    def open_request(self, request: int | str):
        """Start a request's root span; it stays open until
        :meth:`close`.  Returns ``None`` while disabled."""
        if not self._enabled:
            return None
        span = Span(next(self._ids), "request", None, request, self._stack())
        self.spans.append(span)
        return span

    def resume(self, span: Span | None):
        """Make an open root span the ambient parent for a ``with``."""
        return _NULL_SPAN if span is None else _Resumed(span, self._stack())

    @staticmethod
    def close(span: Span | None) -> None:
        """End a root span :meth:`open_request` started."""
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
    """The span documents of a file :func:`write_jsonl` wrote."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def table(spans: Iterable[Span]) -> str:
    """Per span name: count, total and self time, and collector time
    (ms), the largest self time first."""
    spans = [s for s in spans if s.end is not None]
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0, 0, 0.0])
        row[0] += 1
        row[1] += s.duration * 1e3
        row[2] += selfs[s.id] * 1e3
        row[3] += s.gc_runs
        row[4] += s.gc_us / 1e3
    width = max([len("span"), *map(len, rows)])
    lines = [f"{'span':<{width}} {'count':>8} {'total_ms':>11} "
             f"{'self_ms':>11} {'gc_runs':>8} {'gc_ms':>9}"]
    for name, (n, total, own, runs, gc_ms) in sorted(
            rows.items(), key=lambda item: -item[1][2]):
        lines.append(f"{name:<{width}} {n:>8} {total:>11.3f} {own:>11.3f} "
                     f"{runs:>8} {gc_ms:>9.3f}")
    return "\n".join(lines)
