"""The search core: the rewrite graph with every fact kept where it is local.

The paper's method is "consider every applicable rule, apply those whose
Table-1 condition holds on the target machine", and everything that
method looks at is local: a rule's ``match`` sees only its 1–3-stage
window, a stage's cost only that stage and the machine, and a rewrite
replaces one window and shares every other stage object with its parent.
:class:`Search` is the one place that expands programs — greedy descent,
beam search and exhaustive search (:mod:`repro.core.optimizer`,
:mod:`repro.core.planner`) are selection policies over its
:meth:`~Search.children` — and it keys each fact by what the fact
depends on:

* **which rules match a window** — a bounded process-wide memo from the
  window's stage renderings to the rules that match it (below).  A
  child's site list is its parent's with the untouched sites re-indexed;
  only windows that overlap the rewritten region, or end exactly where it
  starts, are looked at again (a lossy rule's ``safe`` flag reads the
  stage *after* its window);
* **a stage's signature token and rendering** — memoised on the
  immutable stage object, so a child's signature is
  ``parent[:s] + tokens(inserted) + parent[s + w:]``;
* **a stage's cost** — computed once per search and stage, and summed
  left to right over the stage tuple exactly as
  :func:`~repro.core.cost.program_cost` does, so costs are bit-identical;
* **a rewrite** — a function of the window and ``p``, kept once per
  search and (rule, window stage objects): the first site that fires a
  rule on a window hands :func:`~repro.core.rewrite.apply_match` that
  window and nothing else, every later site over the same objects reuses
  the inserted stage *objects* (siblings share them as they share the
  untouched stages) with their tokens, renderings and costs;
* **a program's children** — built once per node, in ``(rule order,
  start)`` order, whichever policy asks first, as stage tuples with
  spliced facts: a :class:`~repro.core.stages.Program` and a trace are
  derived for the nodes somebody reads them from, and site lists only
  for programs that are actually expanded.

Every check of the rewrite engine stays: the safety test and
``rule.match`` run at every site, reused rewrite or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.cost import MachineParams, stage_cost
from repro.core.operators import op_signature
from repro.core.rewrite import (
    Match,
    _lossy_site_is_safe,
    apply_match,
    match_at,
)
from repro.core.rules import Rule, RuleApplication
from repro.core.stages import Program, Stage
from repro.core.store import BoundedStore

__all__ = ["Search", "Node", "plan_signature", "op_signature"]


# ---------------------------------------------------------------------------
# Per-stage facts: canonical signature token and rendering
# ---------------------------------------------------------------------------
#
# Rule matching is purely syntactic/algebraic: it sees stage shapes and
# operator identities (name + declared algebra), never map labels, map
# callables, or Map2 captured constants.  The cost model additionally sees
# ops_per_element, operator widths and op counts.  The canonical signature
# captures exactly this observable set — nothing else — so renaming a map
# ("map f" vs "map g" with the same per-element cost) or swapping the
# captured coefficient list of a map2 cannot change it, while changing an
# operator or a per-element op count must.  Each stage class states its
# own token (``Stage.token``, with ``operators.op_signature`` for the
# operator identities); a class without one is a ``StageFacetError``.


def _facts(stage: Stage) -> tuple[tuple, str]:
    """``(signature token, rendering)`` of a stage, computed once per
    stage object (stages are frozen; the memo sits beside their fields
    and is invisible to dataclass equality, ``repr`` and ``replace``)."""
    facts = stage.__dict__.get("_search_facts")
    if facts is None:
        facts = stage.__dict__["_search_facts"] = (stage.token(),
                                                   stage.pretty())
    return facts


def plan_signature(program: Program) -> tuple[tuple, ...]:
    """Canonical signature of ``program``: stage structure and operator
    identities only, independent of map labels and captured constants."""
    return tuple(_facts(stage)[0] for stage in program.stages)


# ---------------------------------------------------------------------------
# Window-match memo
# ---------------------------------------------------------------------------
#
# Whether a rule matches a window is purely syntactic/algebraic — it
# depends on the window's stage shapes and operator names, which the
# stage renderings capture, and on the rule set; never on the rest of the
# program or on the machine.  So one answer serves every program that
# contains the window, in every search of the process: the memo maps
# (rule set, renderings of a 1–3-stage window) to the positions, within
# that rule set, of the rules that match it.  The rule set is identified
# by its rows' serials in order — one string, hashed once — so a doctored
# copy of a catalogue row never reads the catalogue row's answers.
#
# The memo is shared by every optimize() call in the process — including
# the serving runtime's concurrent worker threads — under the one
# discipline of :class:`~repro.core.store.BoundedStore`.

_MATCH_CACHE = BoundedStore(4096)


# ---------------------------------------------------------------------------
# The rewrite graph
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Node:
    """One program of the rewrite graph with its per-stage facts.

    ``stages`` is the program's stage tuple, ``tokens`` the canonical
    :func:`plan_signature`, ``renderings`` the per-stage ``pretty()``
    strings, ``costs`` the per-stage model costs and ``cost`` their sum.
    ``program`` and ``steps`` (the trace from the root) are derived from
    ``origin`` when read.
    """

    stages: tuple[Stage, ...]
    tokens: tuple
    renderings: tuple
    costs: tuple
    cost: float
    #: the rewrite that made it: (parent, start, window, inserted, rule)
    origin: tuple | None = None
    #: filled by Search.sites / Search.children on first use
    sites: list | None = None
    children: list | None = None
    _program: Program | None = None

    @property
    def program(self) -> Program:
        """The node as a :class:`Program`, built on first read."""
        if self._program is None:
            parent, start, window, inserted, _ = self.origin
            self._program = parent.program.replaced(start, len(window),
                                                    inserted)
        return self._program

    @property
    def steps(self) -> tuple[RuleApplication, ...]:
        """The rule applications that derive the node from the root."""
        steps, node = [], self
        while node.origin is not None:
            node, start, window, inserted, rule = node.origin
            steps.append(RuleApplication(rule, start, window, inserted))
        return tuple(reversed(steps))


class Search:
    """The rewrite graph of ``program`` under ``rules`` on one machine."""

    def __init__(self, program: Program, params: MachineParams,
                 rules: Iterable[Rule], allow_lossy: bool = False) -> None:
        self.params = params
        self.rules = tuple(rules)
        self.allow_lossy = allow_lossy
        self._ruleset = ",".join(str(r.serial) for r in self.rules)
        self._widths = sorted({rule.window for rule in self.rules})
        #: (rule position, ids of the window's stages) -> (window, *facts
        #: of the inserted stages); the entry keeps the window alive, so
        #: the ids stay its own for as long as the search does
        self._rewrites: dict[tuple, tuple] = {}
        tokens, renderings, costs = self._stage_facts(program.stages)
        self.root = Node(program.stages, tokens, renderings, costs,
                         sum(costs), _program=program)

    def _stage_facts(self, stages: tuple[Stage, ...]) -> tuple:
        """``(tokens, renderings, costs)`` of ``stages``, stage by stage."""
        facts = [_facts(stage) for stage in stages]
        return (tuple(f[0] for f in facts), tuple(f[1] for f in facts),
                tuple(stage_cost(stage, self.params) for stage in stages))

    def _child(self, node: Node, i: int, start: int, safe: bool) -> Node:
        """``node`` with rule ``i`` fired on the window at ``start``."""
        rule = self.rules[i]
        end = start + rule.window
        window = node.stages[start:end]
        key = (i, *map(id, window))
        entry = self._rewrites.get(key)
        if entry is None:
            # the rewrite sees its window and p, nothing else
            _, step = apply_match(Program(window), Match(rule, 0, safe),
                                  p=self.params.p,
                                  force_unsafe=self.allow_lossy)
            entry = self._rewrites[key] = (
                window, step.inserted, *self._stage_facts(step.inserted))
        elif not rule.match(window):
            raise ValueError(f"{rule.name} does not match at stage {start}")
        _, inserted, tokens, renderings, costs = entry
        costs = node.costs[:start] + costs + node.costs[end:]
        return Node(node.stages[:start] + inserted + node.stages[end:],
                    node.tokens[:start] + tokens + node.tokens[end:],
                    node.renderings[:start] + renderings
                    + node.renderings[end:],
                    costs, sum(costs), (node, start, window, inserted, rule))

    def _scan(self, node: Node, first: int, stop: int) -> list[tuple]:
        """``(rule position, start, safe)`` of every match whose window
        starts before ``stop`` and ends at or after ``first``."""
        rules, stages, renderings = self.rules, node.stages, node.renderings
        sites = []
        for width in self._widths:
            for start in range(max(0, first - width),
                               min(stop, len(stages) - width + 1)):
                end = start + width
                key = (self._ruleset, renderings[start:end])
                found = _MATCH_CACHE.get(key)
                if found is None:
                    found = tuple(
                        i for i, rule in enumerate(rules)
                        if rule.window == width
                        and match_at(node.program, rule, start) is not None)
                    _MATCH_CACHE.put(key, found)
                for i in found:
                    sites.append((i, start, not rules[i].lossy_nonroot
                                  or _lossy_site_is_safe(stages, end)))
        return sites

    def sites(self, node: Node) -> list[tuple[int, int, bool]]:
        """Every rule application site of ``node`` as ``(rule position,
        start, safe)``, in ``find_matches`` order."""
        if node.sites is None:
            if node.origin is None:
                sites = self._scan(node, 0, len(node.renderings))
            else:
                parent, at, window, new, _ = node.origin
                removed, inserted = len(window), len(new)
                sites = self._scan(node, at, at + inserted)
                for i, start, safe in parent.sites:
                    if start + self.rules[i].window < at:
                        sites.append((i, start, safe))
                    elif start >= at + removed:
                        sites.append((i, start + inserted - removed, safe))
            sites.sort()
            node.sites = sites
        return node.sites

    def children(self, node: Node) -> list[Node]:
        """One rewrite of ``node`` per usable site, in site order."""
        if node.children is None:
            node.children = [self._child(node, i, start, safe)
                             for i, start, safe in self.sites(node)
                             if safe or self.allow_lossy]
        return node.children
