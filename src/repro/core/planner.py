"""Beam-search planner tier and canonical plan signatures.

The optimizer offers two extremes: greedy steepest descent (cheap, but
myopic — it refuses cost-neutral setup moves and can fire an improving
rule that destroys the window of a better fusion) and exhaustive
Dijkstra search (exact, but too expensive to serve per request).  This
module adds the middle tier plus the identities a *servable* planner
needs:

* :func:`beam_optimize` — bounded beam search over the rewrite graph,
  scored by :func:`~repro.core.cost.program_cost`.  The search crosses
  cost-neutral and cost-increasing intermediates (the SS2-Scan setup
  moves), so it closes most of the greedy-vs-exact gap; the greedy plan
  is always computed first as the incumbent, so the returned plan is
  **never costlier than greedy**.  When the beam never had to prune
  (``complete``), it visited the whole reachable rewrite graph and the
  plan is exactly optimal — the planner-agreement conformance check
  exploits this as a machine-checkable bound.

* :func:`plan_signature` — a canonical program signature: stage
  structure and operator identities only, independent of map labels
  (the "variable names" of the stage DSL) and of captured constants.
  Two programs with the same signature have identical rule-match sets
  and identical model costs, so one plan serves both.

* :func:`replay_trace` — re-apply a recorded rule trace step by step.
  Every returned plan replays to the returned program; the plan cache
  (:mod:`repro.core.plancache`) stores *traces*, not programs, and
  replays them against the request's own program on a hit.

Termination needs no fuel, but not because rewrites shrink programs:
``Decompose-Allreduce`` turns one collective into two and
``Compose-Allreduce`` turns them back.  Beam and exhaustive search stop
because every program is expanded at most once (the ``seen`` set) and the
reachable graph is finite; greedy stops because each step strictly lowers
the cost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.cost import MachineParams
from repro.core.optimizer import _COST, OptimizationResult, _descend
from repro.core.rewrite import Derivation, _usable, apply_match, match_at
from repro.core.rules import ALL_RULES, Rule, RuleApplication, rule_by_name
from repro.core.search import Search, op_signature, plan_signature
from repro.core.stages import Program

__all__ = [
    "BeamResult",
    "beam_optimize",
    "plan_signature",
    "op_signature",
    "params_signature",
    "rules_signature",
    "cache_key",
    "trace_of",
    "replay_trace",
    "PlanReplayError",
]


# ---------------------------------------------------------------------------
# Cache-key identities (plan_signature itself lives with the search core)
# ---------------------------------------------------------------------------


def params_signature(params: MachineParams) -> tuple:
    """Canonical identity of the machine parameters (subclass-aware).

    Dataclass fields are emitted sorted by name, so two parameter objects
    that differ only in construction order (commutative metadata) agree.
    """
    import dataclasses

    fields = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float, str, bool)) or value is None:
            fields[f.name] = value
        else:  # nested structures: deterministic repr
            fields[f.name] = repr(value)
    return (type(params).__qualname__,) + tuple(sorted(fields.items()))


def rules_signature(rules: Iterable[Rule]) -> tuple[str, ...]:
    """Order-insensitive identity of a rule set.

    The rule *set* determines which plans exist; its iteration order is
    commutative metadata (it only breaks cost ties), so reordering must
    not change a cache key.
    """
    return tuple(sorted(rule.name for rule in rules))


def cache_key(program: Program, params: MachineParams,
              rules: Iterable[Rule] = ALL_RULES, strategy: str = "beam",
              allow_lossy: bool = False) -> str:
    """Stable hex digest keying a plan-cache entry."""
    doc = {
        "signature": plan_signature(program),
        "params": params_signature(params),
        "rules": rules_signature(rules),
        "strategy": strategy,
        "allow_lossy": allow_lossy,
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


class PlanReplayError(ValueError):
    """A recorded plan no longer applies to the program it is replayed on."""


def trace_of(result: OptimizationResult) -> tuple[tuple[str, int], ...]:
    """The replayable ``(rule name, stage index)`` trace of a result."""
    return tuple((step.rule.name, step.start)
                 for step in result.derivation.steps)


def replay_trace(
    program: Program,
    trace: Sequence[tuple[str, int]],
    p: int | None = None,
    allow_lossy: bool = False,
) -> tuple[Program, tuple[RuleApplication, ...]]:
    """Re-apply a recorded trace step by step.

    Every step re-checks the rule's match at the recorded site through
    :func:`~repro.core.rewrite.match_at`, so a stale plan (wrong
    program shape, violated side condition, unsafe lossy site) raises
    :class:`PlanReplayError` instead of silently producing a wrong
    program — the plan cache turns that into a miss.
    """
    current = program
    steps: list[RuleApplication] = []
    for rule_name, start in trace:
        try:
            rule = rule_by_name(str(rule_name))
        except KeyError as exc:
            raise PlanReplayError(str(exc)) from exc
        site = match_at(current, rule, start)
        if site is None:
            raise PlanReplayError(
                f"{rule.name} no longer matches at stage {start} of "
                f"{current.pretty()!r}")
        if not _usable(site, allow_lossy):
            raise PlanReplayError(
                f"{rule.name} at stage {start} is unsafe without allow_lossy")
        current, step = apply_match(current, site, p=p,
                                    force_unsafe=allow_lossy)
        steps.append(step)
    return current, tuple(steps)


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamResult(OptimizationResult):
    """A beam plan plus the search's self-reported optimality evidence."""

    width: int = 0
    #: candidate programs cut by the width bound (0 ⇒ the search was
    #: effectively exhaustive over the reachable graph)
    pruned: int = 0
    levels: int = 0

    @property
    def complete(self) -> bool:
        """Did the beam visit the entire reachable rewrite graph?"""
        return self.pruned == 0

    def suboptimality_bound(self) -> float:
        """An upper bound on ``cost_after - optimal_cost``.

        ``0.0`` when the search was complete (no candidate was ever
        pruned, so every reachable program was scored); ``inf`` when the
        width bound actually cut candidates — beam search makes no
        quality promise past that point beyond *never worse than greedy*.
        """
        return 0.0 if self.complete else float("inf")


def beam_optimize(
    program: Program,
    params: MachineParams,
    rules: Iterable[Rule] = ALL_RULES,
    width: int = 8,
    allow_lossy: bool = False,
) -> BeamResult:
    """Beam search over the rewrite graph, never worse than greedy.

    Level ``k`` of the search holds (at most) the ``width`` cheapest
    ``k``-step rewrites of ``program``; *every* generated candidate is
    scored and tracked as a potential answer before the cut, so pruning
    narrows what gets expanded further but never drops an already-found
    improvement.  Unlike greedy steepest descent, frontier survival does
    not require improving on the parent — the beam walks through the
    cost-neutral/increasing setup moves (e.g. SS2-Scan's ``map pair``
    adjustment at unfavourable ``ts``) that a later fusion pays back.

    The greedy plan is computed first, on the same search (so what it
    rewrote and costed is not rewritten or costed again), and used as the
    incumbent: the final answer is whichever of {greedy, best beam node}
    is cheaper, so ``beam.cost_after <= greedy.cost_after`` holds on
    every input.  With ``pruned == 0`` the search visited the whole
    reachable graph and the result is exactly optimal.
    """
    if width < 1:
        raise ValueError("beam width must be at least 1")
    search = Search(program, params, rules, allow_lossy)
    incumbent, greedy_explored = _descend(search)

    best = root = search.root
    seen = {root.tokens}
    frontier = [root]
    explored = 1
    pruned = 0
    levels = 0
    while frontier:
        candidates = []
        for node in frontier:
            for child in search.children(node):
                if child.tokens not in seen:
                    seen.add(child.tokens)
                    candidates.append(child)
        if not candidates:
            break
        explored += len(candidates)
        levels += 1
        for child in candidates:
            if child.cost < best.cost:
                best = child
        candidates.sort(key=_COST)
        pruned += max(0, len(candidates) - width)
        frontier = candidates[:width]

    if not best.cost < incumbent.cost - 1e-12:
        best = incumbent  # greedy found something at least as cheap: keep its trace
    return BeamResult(
        derivation=Derivation(initial=program, final=best.program,
                              steps=best.steps),
        cost_before=root.cost,
        cost_after=best.cost,
        params=params,
        programs_explored=explored + greedy_explored,
        width=width,
        pruned=pruned,
        levels=levels,
    )
