"""Strikes and backoff: the two halves of "this keeps failing, what now?".

Every escalation of the runtime is a :class:`Strikes` counter crossing
its threshold — a link struck into quarantine, a rank's incidents into
a permanent death, a stage's incidents into the threaded engine, a
served job's crashes into poison, a substrate's incident streak into a
demotion — and every retry waits :func:`backoff`.  Only the clock that
charges the wait differs: supervision adds it to the simulated clocks,
serving sleeps it.  The consequences live with the callers (a
quarantine in :class:`~repro.faults.state.FaultState`, a demotion on
:class:`~repro.parallel.backend.Ladder`).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

__all__ = ["Strikes", "backoff"]


class Strikes:
    """Keyed strike counter with one threshold.

    :meth:`hit` is True once ``key`` has been struck ``threshold`` times;
    :meth:`clear` forgets its strikes.  ``counts`` holds the strikes so far.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.counts: Counter = Counter()

    def hit(self, key: Hashable = None) -> bool:
        self.counts[key] += 1
        return self.counts[key] >= self.threshold

    def clear(self, key: Hashable = None) -> None:
        self.counts.pop(key, None)


def backoff(n: int, base: float, cap: float) -> float:
    """Wait before retry ``n`` (1-based): ``base`` doubling per retry,
    capped at ``cap``; nothing before the first."""
    if n < 1:
        return 0.0
    return min(cap, base * 2.0 ** (n - 1))
