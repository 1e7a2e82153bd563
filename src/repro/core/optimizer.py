"""Cost-directed optimizer over the rewrite graph (the paper's "method").

The paper's design process is: find compositions of collective operations,
consider every applicable rule, and apply those whose Table-1 condition
holds on the target machine.  This module automates that:

* :func:`optimize` — explore the rewrite graph (exhaustive Dijkstra-style
  search, greedy steepest descent, or beam search) and return the cheapest
  program reachable under the machine parameters, together with the
  derivation.
* :class:`OptimizationResult` — before/after costs, the step trace, and a
  human-readable report.

Every strategy is a selection policy over one search core
(:class:`repro.core.search.Search`), which alone matches, rewrites and
costs programs.  The search is exact for the exhaustive strategy: the
rewrite graph of a program with a handful of collectives is tiny.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from repro.core.cost import MachineParams
from repro.core.rewrite import Derivation
from repro.core.rules import ALL_RULES, Rule
from repro.core.search import Node, Search
from repro.core.stages import Program
from repro.obs import span

__all__ = ["OptimizationResult", "optimize", "greedy_optimize",
           "exhaustive_optimize"]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an optimization run."""

    derivation: Derivation
    cost_before: float
    cost_after: float
    params: MachineParams
    programs_explored: int

    @property
    def program(self) -> Program:
        return self.derivation.final

    @property
    def speedup(self) -> float:
        if self.cost_after == 0:
            return float("inf") if self.cost_before > 0 else 1.0
        return self.cost_before / self.cost_after

    def report(self) -> str:
        lines = [
            f"machine: p={self.params.p}, ts={self.params.ts}, "
            f"tw={self.params.tw}, m={self.params.m}",
            self.derivation.describe(),
            f"model cost: {self.cost_before:.1f} -> {self.cost_after:.1f} "
            f"(speedup {self.speedup:.2f}x, {self.programs_explored} programs explored)",
        ]
        return "\n".join(lines)


_COST = attrgetter("cost")


def _descend(search: Search, only_improving: bool = True) -> tuple[Node, int]:
    """Steepest descent from the root: ``(final node, programs explored)``."""
    current, explored = search.root, 1
    while True:
        children = search.children(current)
        if not children:
            break
        explored += len(children)
        best = min(children, key=_COST)  # the first of the cheapest
        if only_improving and best.cost >= current.cost:
            break
        current = best
    return current, explored


def _result(search: Search, node: Node, explored: int) -> OptimizationResult:
    root = search.root
    return OptimizationResult(
        derivation=Derivation(initial=root.program, final=node.program,
                              steps=node.steps),
        cost_before=root.cost,
        cost_after=node.cost,
        params=search.params,
        programs_explored=explored,
    )


def greedy_optimize(
    program: Program,
    params: MachineParams,
    rules: Iterable[Rule] = ALL_RULES,
    allow_lossy: bool = False,
    only_improving: bool = True,
) -> OptimizationResult:
    """Steepest-descent: repeatedly apply the single most cost-saving match.

    With ``only_improving`` (the default, matching the paper's guidance),
    a match is taken only if it lowers the model cost at ``params``.
    """
    search = Search(program, params, rules, allow_lossy)
    return _result(search, *_descend(search, only_improving))


def exhaustive_optimize(
    program: Program,
    params: MachineParams,
    rules: Iterable[Rule] = ALL_RULES,
    allow_lossy: bool = False,
    max_states: int = 10_000,
) -> OptimizationResult:
    """Exact search: cheapest program reachable by any rewrite sequence.

    Dijkstra over the rewrite graph with model cost as the node value.
    Unlike the greedy strategy this can pass through cost-*neutral* or even
    cost-increasing intermediate programs when a later fusion more than
    pays them back (e.g. SS2-Scan enabling a subsequent fusion).
    """
    search = Search(program, params, rules, allow_lossy)
    best = search.root
    seen = {best.renderings}
    counter = itertools.count()
    frontier = [(best.cost, next(counter), best)]
    explored = 1
    while frontier and explored < max_states:
        cost, _, node = heapq.heappop(frontier)
        if cost < best.cost:
            best = node
        for child in search.children(node):
            if child.renderings in seen:
                continue
            seen.add(child.renderings)
            explored += 1
            heapq.heappush(frontier, (child.cost, next(counter), child))
    return _result(search, best, explored)


def optimize(
    program: Program,
    params: MachineParams,
    rules: Iterable[Rule] = ALL_RULES,
    strategy: str = "exhaustive",
    allow_lossy: bool = False,
    cache=None,
) -> OptimizationResult:
    """Optimize ``program`` for the machine described by ``params``.

    ``strategy`` is ``"exhaustive"`` (exact; default), ``"greedy"``
    (steepest descent; the ablation benchmark compares both), or
    ``"beam"`` (the serving tier: bounded search that is never worse
    than greedy — see :func:`repro.core.planner.beam_optimize`).

    ``cache`` is an optional plan cache
    (:class:`repro.core.plancache.PlanCache` or anything with its
    ``get``/``put`` protocol).  A hit skips the search entirely: the
    first hit of a program value replays the stored rule trace against
    ``program``, later ones return that checked plan; a miss runs the
    search and writes the plan through.
    """
    if cache is not None:
        hit = cache.get(program, params, rules=rules, strategy=strategy,
                        allow_lossy=allow_lossy)
        if hit is not None:
            return hit
    with span("planner.search"):
        if strategy == "exhaustive":
            result = exhaustive_optimize(program, params, rules, allow_lossy)
        elif strategy == "greedy":
            result = greedy_optimize(program, params, rules, allow_lossy)
        elif strategy == "beam":
            from repro.core.planner import beam_optimize

            result = beam_optimize(program, params, rules,
                                   allow_lossy=allow_lossy)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
    if cache is not None:
        cache.put(program, params, result, rules=rules, strategy=strategy,
                  allow_lossy=allow_lossy)
    return result
