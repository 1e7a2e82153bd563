"""The bounded resident store the process-wide memos share, and the one
registry that reaches every memo.

A served process keeps nine facts by value — a text's declaration, a
statement text's statement and a statement's stage (``lang.parser``), a
window shape's candidate rules, a window's rewrite and a request's
plan-key pieces (``core.search``), a program's compiled kernels and its
exact tape for one block signature (``jit.compiler``), a shape's
simulated schedule (``machine.run``) — and
every worker thread reads and fills them at once, under one discipline:
reads take no lock (one lookup, no re-ordering; two threads that miss on
one key both compute, to equal entries) and :meth:`~BoundedStore.put`
evicts first-in-first-out under a lock that also covers ``clear``.  The
store counts nothing; each owner records hits and misses in the dialect
it already has.  What each memo buys the workloads it serves is measured
in ``docs/PERFORMANCE.md``, "What each memo buys".

One registry, one clear: :class:`BoundedStore`, ``PlanCache`` and
``BlockPool`` list themselves with :func:`resident` when built, held
weakly (a compiled program's stores leave with it), and
:func:`clear_caches` empties every memo alive.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["BoundedStore", "resident", "clear_caches"]

#: id -> every live memo (a dict subclass does not hash, so no WeakSet)
_RESIDENT: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()
_RESIDENT_LOCK = threading.Lock()


def resident(memo: Any) -> None:
    """List ``memo`` (anything with a ``clear()``) for :func:`clear_caches`."""
    with _RESIDENT_LOCK:
        _RESIDENT[id(memo)] = memo


def clear_caches() -> None:
    """Empty every memo alive: the planner's, the parser's, the JIT's and
    the schedules' stores, every plan cache's memory tier (its on-disk
    store stays) and the block pool's idle shelves."""
    with _RESIDENT_LOCK:
        memos = list(_RESIDENT.values())
    for memo in memos:
        memo.clear()


class BoundedStore(OrderedDict):
    """At most ``bound`` entries, the oldest insertion evicted first;
    read with ``get`` / ``in`` / ``len``, filled with :meth:`put` only."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound
        self._lock = threading.Lock()
        resident(self)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or replace) ``key``, evicting the oldest entry first
        when a new key would exceed the bound."""
        with self._lock:
            if key not in self and len(self) >= self.bound:
                self.popitem(last=False)
            self[key] = value

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            super().clear()
