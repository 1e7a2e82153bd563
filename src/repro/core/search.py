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

* **which rules match a window** — the candidates its stage classes
  (spliced like the tokens) admit, from its rule set's shape table,
  found once per search (below), each asked ``rule.match`` on the window
  itself; a window the table names no candidate for is not sliced.  A
  child's site list is its parent's with the untouched sites re-indexed;
  only windows that hold an inserted stage (or, for an empty right-hand
  side, span the junction) are scanned, and a site ending where the
  rewrite starts re-reads a lossy rule's ``safe`` flag (it reads the
  stage after);
* **a stage's signature token, rendering and token JSON** — memoised on
  the immutable stage object, so a child's signature is
  ``parent[:s] + tokens(inserted) + parent[s + w:]``;
* **a stage's cost** — kept on the immutable stage object per machine
  value (below), summed left to right as
  :func:`~repro.core.cost.program_cost` does, so costs are
  bit-identical;
* **a rewrite** — a function of the window and ``p``, kept once per
  process and (rule, window stage objects) (below): a later site over the
  same objects, in any search, reuses the inserted stage *objects* with
  their facts, costs included;
* **a program's children** — built once per node, in ``(rule order,
  start)`` order, as stage tuples with spliced facts, and kept by the
  search, not by the node: a :class:`~repro.core.stages.Program`, a trace
  and the renderings are derived for the nodes somebody reads them from.

The graph's only edges are a child's ``origin`` link to its parent, so
the nodes form a tree of parent links with no reference cycle: when the
caller drops the search (a selection policy returns), reference counting
frees it and every node at once, and the cyclic collector has nothing to
trace.

Every check of the rewrite engine stays: the safety test runs at every
site, and ``rule.match`` once per site and node — in the node's scan for
a window it created, in ``_child`` for one it inherited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable

from repro.core.cost import MachineParams, stage_cost
from repro.core.operators import op_signature
from repro.core.rewrite import Match, _lossy_site_is_safe, apply_match
from repro.core.rules import Rule, RuleApplication
from repro.core.stages import Program, Stage
from repro.core.store import BoundedStore

__all__ = ["Search", "Node", "plan_signature", "op_signature"]


# ---------------------------------------------------------------------------
# Per-stage facts: canonical signature token and rendering
# ---------------------------------------------------------------------------
#
# The canonical signature (the plan cache's key, the beam's duplicate
# test) captures what rule matching and the cost model observe — stage
# shapes, operator identities (name + declared algebra), per-element op
# counts — and nothing else: renaming a map or swapping a map2's captured
# constants cannot change it.  Each stage class states its own token
# (``Stage.token``, with ``operators.op_signature`` for the operators).


#: ``json.dumps(value, sort_keys=True, default=str)``, one encoder for all
_json = json.JSONEncoder(sort_keys=True, default=str).encode


def _facts(stage: Stage) -> tuple[tuple, str, str]:
    """``(signature token, rendering, token JSON)`` of a stage, computed
    once per stage object (stages are frozen; the memo sits beside their
    fields and is invisible to dataclass equality, ``repr`` and
    ``replace``)."""
    facts = stage.__dict__.get("_search_facts")
    if facts is None:
        token = stage.token()
        facts = stage.__dict__["_search_facts"] = (
            token, stage.pretty(), _json(token))
    return facts


def _stage_facts(stages: tuple[Stage, ...]) -> tuple[tuple, tuple]:
    """``(tokens, classes)`` of ``stages``, stage by stage."""
    return (tuple(_facts(stage)[0] for stage in stages),
            tuple(map(type, stages)))


def plan_signature(program: Program) -> tuple[tuple, ...]:
    """Canonical signature of ``program``: stage structure and operator
    identities only, independent of map labels and captured constants."""
    return tuple(_facts(stage)[0] for stage in program.stages)


# ---------------------------------------------------------------------------
# Shape tables, rewrite store and cost stash
# ---------------------------------------------------------------------------
#
# A rule is a stage class set per window position (the paper's ``lhs``)
# plus a side condition over the window's operators.  Which rules admit a
# window's classes depends on nothing else, so ``_SHAPES`` maps a rule set
# (the tuple of its rows, which compare by identity; the key holds them,
# so a doctored copy of a row never reads the catalogue row's answer) to
# its sorted window widths and its shape table: the window's stage
# classes -> their positions in the rule set.  A search finds its entry
# once; each table holds at most ``_REWRITES.bound`` shapes.  The side
# condition is never kept: ``rule.match`` runs on the window for every
# candidate.
#
# A rewrite is a function of its window and of ``general`` (p is not a
# power of two, for the Local rules), and the stage objects are shared
# across requests, so (rule serial, general, ids of the window's stages)
# -> (window, inserted stages, their tokens and renderings) serves every
# search; the entry holds the window, so the ids stay its own.  Both
# stores serve every thread under the one discipline of
# :class:`~repro.core.store.BoundedStore`.
#
# A stage's cost is a function of the stage and the machine, and both are
# frozen, so it is kept on the stage object, as its signature facts are:
# its ``_search_costs`` stash maps a machine's value (:func:`_machine_key`)
# to the cost, so every object that carries one machine reads one entry.
# It holds at most ``_STASH_MACHINES`` machines (one past the bound
# starts it afresh: a clear, unlike evicting the oldest, needs no lock)
# and dies with the stage.  A process-wide (stage, machine) store would
# keep the stages it evicts from the other stores alive, and a
# ``BoundedStore`` per stage weighs four times a dict.

_REWRITES = BoundedStore(4096)
#: rule rows -> (their sorted window widths, their shape table)
_SHAPES = BoundedStore(64)
#: (id of the params, rule rows) -> (params, the plan-cache key's params
#: and rules members as JSON; :func:`repro.core.planner.cache_key`)
_KEY_PARTS = BoundedStore(256)
#: the machines a stage's cost stash keeps
_STASH_MACHINES = 32


def _machine_key(params: MachineParams) -> tuple:
    """The machine's value as its dataclass equality reads it — its class
    and its fields — in a tuple, which hashes without a Python call."""
    return (type(params), *[getattr(params, f.name) for f in fields(params)])


# ---------------------------------------------------------------------------
# The rewrite graph
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Node:
    """One program of the rewrite graph with its per-stage facts.

    ``stages`` is the program's stage tuple, ``tokens`` the canonical
    :func:`plan_signature`, ``classes`` the stages' classes, ``costs``
    the per-stage model costs and ``cost`` their sum.  ``renderings``
    (the per-stage ``pretty()`` strings), ``program`` and ``steps`` (the
    trace from the root) are derived when read.

    A node links to its parent (``origin``) and never to its children:
    :class:`Search` keeps those, keyed by the node's identity, so a graph
    is a tree of parent links that reference counting frees.
    """

    stages: tuple[Stage, ...]
    tokens: tuple
    classes: tuple
    costs: tuple
    cost: float
    #: the rewrite that made it: (parent, start, window, inserted, rule)
    origin: tuple | None = None
    #: filled by Search.sites on first use
    sites: list | None = None
    _program: Program | None = None
    _renderings: tuple | None = None

    @property
    def renderings(self) -> tuple:
        """The per-stage ``pretty()`` strings, built on first read."""
        if self._renderings is None:
            self._renderings = tuple(_facts(stage)[1]
                                     for stage in self.stages)
        return self._renderings

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
        entry = _SHAPES.get(self.rules)
        if entry is None:
            entry = (sorted({rule.window for rule in self.rules}),
                     BoundedStore(_REWRITES.bound))
            _SHAPES.put(self.rules, entry)
        #: the window widths and shape table of this rule set
        self._widths, self._shapes = entry
        self._general = not (params.p > 0 and params.p & (params.p - 1) == 0)
        #: the key of this machine in the stages' cost stashes
        self._machine = _machine_key(params)
        #: (rule position, ids of the window's stages) -> _rewrite's entry,
        #: which holds the window, so the ids stay its own
        self._rewrites: dict[tuple, tuple] = {}
        #: node -> its children (``Node`` is ``eq=False``: keyed by identity)
        self._children: dict[Node, list[Node]] = {}
        costs = self._costs(program.stages)
        self.root = Node(program.stages, *_stage_facts(program.stages),
                         costs, sum(costs), _program=program)

    def _costs(self, stages: tuple[Stage, ...]) -> tuple:
        """The model cost of each of ``stages`` on this machine, read from
        the stage's cost stash and filled there on a miss."""
        machine, costs = self._machine, []
        for stage in stages:
            stash = stage.__dict__.get("_search_costs")
            if stash is None:  # racing threads may each make one; one stays
                stash = stage.__dict__["_search_costs"] = {}
            cost = stash.get(machine)
            if cost is None:
                cost = stage_cost(stage, self.params)
                if len(stash) >= _STASH_MACHINES:
                    stash.clear()
                stash[machine] = cost
            costs.append(cost)
        return tuple(costs)

    def _rewrite(self, rule: Rule, window: tuple[Stage, ...],
                 safe: bool) -> tuple:
        """``rule`` fired on ``window``: ``_REWRITES``' entry and costs."""
        key = (rule.serial, rule.requires_power_of_two and self._general,
               *map(id, window))
        entry = _REWRITES.get(key)
        if entry is None:
            # the rewrite sees its window and p, nothing else
            _, step = apply_match(Program(window), Match(rule, 0, safe),
                                  p=self.params.p,
                                  force_unsafe=self.allow_lossy)
            entry = (window, step.inserted, *_stage_facts(step.inserted))
            _REWRITES.put(key, entry)
        return (*entry, self._costs(entry[1]))

    def _child(self, node: Node, i: int, start: int, safe: bool) -> Node:
        """``node`` with rule ``i`` fired on the window at ``start``."""
        rule = self.rules[i]
        end = start + rule.window
        window = node.stages[start:end]
        # the node's own scan matched the windows it made (see sites)
        origin = node.origin
        scanned = origin is None or (start < origin[1] + len(origin[3])
                                     and end > origin[1])
        if not scanned and not rule.match(window):
            raise ValueError(f"{rule.name} does not match at stage {start}")
        key = (i, *map(id, window))
        entry = self._rewrites.get(key)
        if entry is None:
            entry = self._rewrites[key] = self._rewrite(rule, window, safe)
        _, inserted, tokens, classes, costs = entry
        costs = node.costs[:start] + costs + node.costs[end:]
        return Node(node.stages[:start] + inserted + node.stages[end:],
                    node.tokens[:start] + tokens + node.tokens[end:],
                    node.classes[:start] + classes + node.classes[end:],
                    costs, sum(costs), (node, start, window, inserted, rule))

    def _scan(self, node: Node, first: int, stop: int) -> list[tuple]:
        """``(rule position, start, safe)`` of every match whose window
        starts before ``stop`` and ends after ``first``."""
        rules, stages, classes = self.rules, node.stages, node.classes
        shapes, sites = self._shapes, []
        for width in self._widths:
            for start in range(max(0, first - width + 1),
                               min(stop, len(stages) - width + 1)):
                end = start + width
                shape = classes[start:end]
                candidates = shapes.get(shape)
                if candidates is None:
                    candidates = tuple(
                        i for i, rule in enumerate(rules)
                        if rule.window == width
                        and all(map(issubclass, shape, rule.lhs)))
                    shapes.put(shape, candidates)
                if not candidates:
                    continue
                window = stages[start:end]
                for i in candidates:
                    rule = rules[i]
                    if rule.match(window):
                        sites.append((i, start, not rule.lossy_nonroot
                                      or _lossy_site_is_safe(stages, end)))
        return sites

    def sites(self, node: Node) -> list[tuple[int, int, bool]]:
        """Every rule application site of ``node`` as ``(rule position,
        start, safe)``, in ``find_matches`` order."""
        if node.sites is None:
            if node.origin is None:
                sites = self._scan(node, 0, len(node.stages))
            else:
                parent, at, window, new, _ = node.origin
                removed, inserted = len(window), len(new)
                # new: the windows holding an inserted stage or the junction
                sites = self._scan(node, at, at + inserted)
                for i, start, safe in parent.sites:
                    rule = self.rules[i]
                    end = start + rule.window
                    if end < at:
                        sites.append((i, start, safe))
                    elif end == at:  # its lossy safe flag reads a new stage
                        sites.append((i, start, not rule.lossy_nonroot or
                                      _lossy_site_is_safe(node.stages, at)))
                    elif start >= at + removed:
                        sites.append((i, start + inserted - removed, safe))
            sites.sort()
            node.sites = sites
        return node.sites

    def children(self, node: Node) -> list[Node]:
        """One rewrite of ``node`` per usable site, in site order."""
        children = self._children.get(node)
        if children is None:
            children = self._children[node] = [
                self._child(node, i, start, safe)
                for i, start, safe in self.sites(node)
                if safe or self.allow_lossy]
        return children
