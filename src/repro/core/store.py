"""The bounded resident store the process-wide memos share.

A served process keeps six facts by value — a text's declaration and a
statement's stage (``lang.parser``), a window's matching rules and its
rewrite (``core.search``), a program's compiled kernels
(``jit.compiler``), a shape's simulated schedule (``machine.run``) —
and every worker thread reads and fills
them at once, under one discipline: reads take no lock (one lookup, no
re-ordering; two threads that miss on one key both compute, to equal
entries) and :meth:`~BoundedStore.put` evicts first-in-first-out under a
lock that also covers ``clear``.  The store counts nothing; each owner
records hits and misses in the dialect it already has.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["BoundedStore"]


class BoundedStore(OrderedDict):
    """At most ``bound`` entries, the oldest insertion evicted first;
    read with ``get`` / ``in`` / ``len``, filled with :meth:`put` only."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound
        self._lock = threading.Lock()

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
