"""Readings of the host's speed, taken between the requests of a run.

The sandbox the benchmark runs on is a few virtual cores of a shared
host, and how fast they execute the *same* instructions changes by a
quarter to a half for seconds to minutes at a time (the neighbours'
doing, visible in user CPU time as much as in wall time).  A 20-second
run of a single-threaded, CPU-bound workload therefore read 1.4 ms and
2.7 ms median latency on one commit within ten minutes — wider than any
bound ``BENCHMARK.json`` may state — and neither a longer run nor
medians over windows of it steadied that (probed: the slow spells
outlast the longest run the contract allows).

What does steady it is a yardstick measured in the same spell: a fixed
piece of interpreter work that is no part of the program under test —
:func:`kernel` below, object allocation, method calls, recursion and
tuple hashing, the instruction mix of the library's planner and engines
— is run off the clock every :data:`EVERY_S` seconds of a run.  A
:func:`reading` is how long it took; divided by :data:`NOMINAL_S`, what
it takes on the quiet reference sandbox, it is the host's *slowdown* at
that moment, and every clock value of the stretch of the run between
two readings is divided by the mean slowdown of the two.  On a 400 s
timeline of ``plan_cold`` requests cut into 20 s runs this took the
spread of the median latency from 0.31 to 0.03 once the workload's own
drift was removed.

The timing metrics are thus milliseconds *at the reference speed*, not
of the moment; the raw values are kept beside them in the results file.
The kernel and ``NOMINAL_S`` belong to the benchmark's definition:
changing either rescales every timing metric and needs a new baseline.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["EVERY_S", "NOMINAL_S", "kernel", "reading", "slowdown"]

#: timed seconds between two readings during a run
EVERY_S = 0.05
#: what :func:`kernel` takes on the quiet reference sandbox (see README)
NOMINAL_S = 0.00065

_now = time.perf_counter


class _Node:
    __slots__ = ("op", "kids", "cost")

    def __init__(self, op: int, kids: tuple, cost: float) -> None:
        self.op = op
        self.kids = kids
        self.cost = cost

    def total(self) -> float:
        return self.cost + sum(k.total() for k in self.kids)

    def key(self) -> tuple:
        return (self.op, tuple(k.key() for k in self.kids))


def kernel() -> float:
    """The yardstick: builds, costs and hashes 60 small trees."""
    seen = set()
    total = 0.0
    for i in range(60):
        leaves = [_Node(i + j, (), 1.0 + j) for j in range(4)]
        mid = [_Node(j, tuple(leaves[j:j + 2]), 2.0) for j in range(3)]
        root = _Node(i % 7, tuple(mid), 3.0)
        total += root.total()
        seen.add(root.key())
    return total + len(seen)


def reading() -> float:
    """Seconds one pass of the kernel takes right now."""
    t0 = _now()
    kernel()
    return _now() - t0


def slowdown(readings: list[float]) -> float:
    """Median reading as a multiple of the reference sandbox's."""
    return statistics.median(readings) / NOMINAL_S
