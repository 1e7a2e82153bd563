"""The planner's structure, not just its outcome.

* **Golden**: over ``planner_corpus`` (≈300 programs × 3 machines ×
  {greedy, beam, exhaustive}) today's planner returns byte for byte what
  the planner of PR 11 returned — trace, exact costs, programs explored,
  pruned, levels (``tests/data/planner_golden_v1.json``).
* **Window-local facts**: for every program the search core expands, the
  site list it derived from the parent's equals ``find_matches`` from
  scratch (same rules, starts, ``safe`` flags, order), and the spliced
  signature, classes, renderings, cost and plan-cache key equal the ones
  recomputed from the stages — with the process-wide stores (shape
  table, kept rewrites, key pieces, interned stages, statement store)
  cold, warm, and squeezed to 8 entries each.  A child rescans only the
  windows its rewrite created: an inherited lossy site re-reads the
  stage after its window, and an empty right-hand side rescans the
  junction.
* **Window-local rewrites**: every child the core builds — from a fresh
  rewrite or from one it kept — equals a fresh ``apply_match`` on its
  materialised parent, stage for stage, fact for fact and step for step;
  sites over the same window objects share the inserted stage objects;
  ``rule.match`` runs once per site and node (in the node's scan for a
  window it created, in ``_child`` for an inherited one), ``rule.rewrite``
  once per (rule, window objects); a search builds fewer ``Program``s
  than children; and a returned plan holds no node of the search that
  found it, with the collector off: a cold search, a served resident hit
  and a compiled run leave nothing for ``gc.collect()``.
* **Termination** under rules that grow programs, ``match_at`` and the
  replay errors that rest on it.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from collections import Counter
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

import planner_corpus
from test_plancache import json_cache_key
from test_planner_property import _specs

from repro.core import search as search_mod
from repro.core.cost import MachineParams, program_cost, stage_cost
from repro.core.operators import ADD, EW_ADD, MAX, MUL
from repro.core.optimizer import (
    _result,
    exhaustive_optimize,
    optimize,
)
from repro.core.plancache import PlanCache
from repro.core.planner import (
    PlanReplayError,
    beam_optimize,
    cache_key,
    plan_signature,
    replay_trace,
    trace_of,
)
from repro.core.rewrite import Match, apply_match, find_matches, match_at
from repro.core.rules import (
    ALL_RULES,
    FULL_RULES,
    Rule,
    RuleApplication,
    rule_by_name,
)
from repro.core.search import Node, Search
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.core.store import clear_caches
from repro.lang import parse_program
from repro.lang import parser as parser_mod
from repro.machine import simulate_program
from repro.serving import ServingConfig, ServingManager

GOLDEN = Path(__file__).parent / "data" / "planner_golden_v1.json"

#: expansions checked per program (the graphs of the corpus are smaller)
MAX_EXPANSIONS = 60


def test_golden_reproduced_byte_for_byte():
    clear_caches()
    want = GOLDEN.read_text().splitlines()
    got = planner_corpus.golden_text().splitlines()
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        assert line_got == line_want


def _structure_corpus():
    """The 202-program property corpus plus generated MPI texts."""
    out = [(gp.program, params, rules) for gp, params, rules, _ in _specs()]
    rng = random.Random("planner-structure-texts")
    for i in range(300):
        text = planner_corpus.mpi_text(rng, f"s{i}", rng.randint(2, 9))
        program = parse_program(text).to_program(planner_corpus.SCALAR_ENV)
        out.append((program, rng.choice(planner_corpus.PRESETS), FULL_RULES))
    return out


def _check_expanded_nodes(program, params, rules) -> int:
    search = Search(program, params, rules)
    queue, seen, expanded = [search.root], {search.root.tokens}, 0
    while queue and expanded < MAX_EXPANSIONS:
        node = queue.pop(0)
        children = search.children(node)
        expanded += 1
        stages = node.program.stages
        derived = [(search.rules[i], start, safe)
                   for i, start, safe in node.sites]
        scratch = [(m.rule, m.start, m.safe)
                   for m in find_matches(node.program, rules)]
        assert derived == scratch, node.program.pretty()
        assert node.tokens == tuple(s.token() for s in stages)
        assert node.tokens == plan_signature(node.program)
        assert node.classes == tuple(map(type, stages))
        assert node.renderings == tuple(s.pretty() for s in stages)
        cost = program_cost(node.program, params)
        assert node.cost == cost and type(node.cost) is type(cost)
        assert (cache_key(node.program, params, rules)
                == json_cache_key(node.program, params, rules))
        for child in children:
            if child.tokens not in seen:
                seen.add(child.tokens)
                queue.append(child)
    return expanded


@pytest.mark.parametrize("memo", ["cold-then-warm", "squeezed"])
def test_derived_sites_and_spliced_facts_equal_from_scratch(memo, monkeypatch):
    stores = (search_mod._SHAPES, search_mod._REWRITES, search_mod._KEY_PARTS,
              parser_mod._STAGES, parser_mod._STATEMENTS)
    if memo == "squeezed":  # every search evicts: hits, misses and re-misses
        for store in stores:  # a rule set's shape table takes _REWRITES'
            monkeypatch.setattr(store, "bound", 8)
        # a stage costed on a second machine forgets the first
        monkeypatch.setattr(search_mod, "_STASH_MACHINES", 1)
    clear_caches()  # the texts read their statements afresh, too
    corpus = _structure_corpus()
    for _pass in range(2):  # the second pass answers from the stores
        expanded = sum(_check_expanded_nodes(*spec) for spec in corpus)
        assert expanded > 2 * len(corpus)  # children were expanded too
        tables = [table for _, table in search_mod._SHAPES.values()]
        assert all(table.bound == search_mod._REWRITES.bound
                   for table in tables)
        assert all(0 < len(store) <= store.bound
                   for store in (*stores, *tables))
    clear_caches()


def _sites_from_scratch(search, node) -> list[tuple]:
    """``node``'s derived sites, checked against ``find_matches``."""
    derived = [(search.rules[i], start, safe)
               for i, start, safe in search.sites(node)]
    assert derived == [(m.rule, m.start, m.safe)
                       for m in find_matches(node.program, search.rules)]
    return derived


def _child_by(search, node, rule) -> Node:
    [child] = [c for c in search.children(node) if c.origin[4] is rule]
    return child


SMALL_PARAMS = MachineParams(p=8, ts=600.0, tw=2.0, m=1)


def test_an_inherited_lossy_site_rereads_the_stage_after_it():
    """SB-Bcast at 2 makes ``scan (mul) ; bcast`` one ``bcast``: BR-Local's
    window at 0 is the parent's, object for object, but the stage after it
    is new, and a broadcast there makes the lossy site safe."""
    program = Program([BcastStage(), ReduceStage(ADD), ScanStage(MUL),
                       BcastStage()])
    search = Search(program, SMALL_PARAMS, FULL_RULES)
    br_local, sb_bcast = rule_by_name("BR-Local"), rule_by_name("SB-Bcast")
    assert _sites_from_scratch(search, search.root) == [
        (br_local, 0, False), (sb_bcast, 2, True)]
    child = _child_by(search, search.root, sb_bcast)
    assert _same_objects(child.stages[:2], program.stages[:2])
    assert (br_local, 0, True) in _sites_from_scratch(search, child)
    grandchild = _child_by(search, child, br_local)  # built, and matched
    assert grandchild.origin[1] == 0
    assert _check_expanded_nodes(program, SMALL_PARAMS, FULL_RULES) > 2


#: a row with an empty right-hand side (no shipped rule has one): it
#: deletes a map, so the stages on either side of it meet
DROP_MAP = Rule("Drop-Map", ((MapStage,),), lambda rule, window, general: (),
                "nothing", "none", "never")


def test_an_empty_right_hand_side_rescans_the_junction():
    """Dropping the map of ``scan ; map ; scan ; reduce`` inserts no
    stage, so no window holds an inserted stage; the two scans now meet,
    and SS-Scan's window across the junction is new."""
    program = Program([ScanStage(ADD), MapStage(lambda x: x, label="f",
                                                ops_per_element=1),
                       ScanStage(ADD), ReduceStage(ADD)])
    rules = FULL_RULES + (DROP_MAP,)
    search = Search(program, SMALL_PARAMS, rules)
    ss_scan = rule_by_name("SS-Scan")
    assert ss_scan not in [site[0] for site in
                           _sites_from_scratch(search, search.root)]
    child = _child_by(search, search.root, DROP_MAP)
    assert child.renderings == ("scan (add)", "scan (add)", "reduce (add)")
    assert (ss_scan, 0, True) in _sites_from_scratch(search, child)
    assert _check_expanded_nodes(program, SMALL_PARAMS, rules) > 2


# ---------------------------------------------------------------------------
# Window-local rewrites
# ---------------------------------------------------------------------------

#: expansions checked per (program, machine, rule set) of the rewrite walk
MAX_REWRITE_EXPANSIONS = 40


def _shape(stages) -> list[tuple]:
    """What two rewrites of one window agree on.  Stages compare their
    callables by identity and a rule builds fresh closures on every
    ``rewrite``, so the stages a second rewrite inserts are never ``==``
    the first's: class, token, rendering and origin are."""
    return [(type(s), s.token(), s.pretty(), s.origin) for s in stages]


def _step_shapes(steps) -> list[tuple]:
    return [(s.rule, s.start, _shape(s.removed), _shape(s.inserted))
            for s in steps]


def _same_objects(left, right) -> bool:
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


def _check_child(search, node, child, site) -> None:
    """``child`` against a fresh rewrite of ``node``'s program at ``site``."""
    i, start, safe = site
    rule, params = search.rules[i], search.params
    end = start + rule.window
    fresh, step = apply_match(node.program, Match(rule, start, safe),
                              p=params.p)
    program = child.program
    assert program.name == node.program.name == search.root.program.name
    assert _same_objects(program.stages, child.stages)
    assert _shape(program.stages) == _shape(fresh.stages)
    # everything outside the window is the parent's, object for object
    tail = len(fresh.stages) - (len(node.stages) - end)
    assert _same_objects(program.stages[:start], node.stages[:start])
    assert _same_objects(program.stages[tail:], node.stages[end:])
    assert child.tokens == plan_signature(fresh)
    assert child.renderings == tuple(s.pretty() for s in fresh.stages)
    assert child.costs == tuple(stage_cost(s, params) for s in fresh.stages)
    cost = program_cost(fresh, params)
    assert child.cost == cost and type(child.cost) is type(cost)
    # the trace: the parent's, then this rewrite
    inserted = program.stages[start:tail]
    assert child.steps == node.steps + (
        RuleApplication(rule, start, node.stages[start:end], inserted),)
    last = child.steps[-1]
    assert last.rule is step.rule and last.start == step.start
    assert _same_objects(last.removed, step.removed)
    assert _shape(last.inserted) == _shape(step.inserted)
    replayed, steps = replay_trace(
        search.root.program, trace_of(_result(search, child, 0)), p=params.p)
    assert _shape(replayed.stages) == _shape(program.stages)
    assert _step_shapes(steps) == _step_shapes(child.steps)


def _walk_rewrites(program, params, rules) -> tuple[int, int]:
    """Breadth-first over the rewrite graph, every child checked;
    ``(children built, distinct (rule, window objects) among them)``."""
    search = Search(program, params, rules)
    queue, seen, expanded = [search.root], {search.root.tokens}, 0
    inserted_by_window: dict[tuple, tuple] = {}
    built = 0
    while queue and expanded < MAX_REWRITE_EXPANSIONS:
        node = queue.pop(0)
        children = search.children(node)
        expanded += 1
        sites = [site for site in search.sites(node) if site[2]]
        assert len(children) == len(sites)
        for child, site in zip(children, sites):
            _check_child(search, node, child, site)
            parent, start, window, inserted, rule = child.origin
            assert parent is node and rule is search.rules[site[0]]
            key = (rule, *map(id, window))
            first = inserted_by_window.setdefault(key, inserted)
            assert _same_objects(first, inserted)  # one rewrite per window
            built += 1
            if child.tokens not in seen:
                seen.add(child.tokens)
                queue.append(child)
    return built, len(inserted_by_window)


def test_children_equal_a_fresh_rewrite_of_the_materialised_parent():
    clear_caches()
    built = distinct = 0
    for program, _rules in planner_corpus.programs():
        for params in planner_corpus.PRESETS:
            for rules in (ALL_RULES, FULL_RULES):
                b, d = _walk_rewrites(program, params, rules)
                built, distinct = built + b, distinct + d
    assert distinct < built  # kept rewrites were reused, and checked
    clear_caches()


#: nine stages, four disjoint rule windows: a wide graph whose orders of
#: application converge, so most children are duplicates
NINE = (ScanStage(MUL), ReduceStage(ADD), BcastStage(), ScanStage(ADD),
        ScanStage(ADD), AllReduceStage(MAX), BcastStage(), ScanStage(MUL),
        ScanStage(ADD))
NINE_PARAMS = MachineParams(p=8, ts=5.0, tw=0.5, m=16)
#: one beam search of it: 110 children from 12 distinct (rule, window
#: objects); ``Program``s built: cold (``clear_caches()`` emptied
#: the match memo and the rewrite store), a window and its rewrite per
#: distinct rewrite and the 4 of the returned plan's chain; warm (every
#: rewrite kept process-wide), the chain's 4 alone
NINE_CHILDREN, NINE_PROGRAMS_COLD, NINE_PROGRAMS_WARM = 110, 28, 4


def _counting(monkeypatch, owner, name, key=lambda *args: None,
              calls=None) -> list:
    """Wrap ``owner.name`` to append ``key(*args)`` to ``calls`` (a new
    list by default, returned) on every call."""
    calls, original = [] if calls is None else calls, getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_every_check_runs_at_every_site_and_a_rewrite_once(monkeypatch):
    clear_caches()
    # (rule, ids of the window's stages); rows are frozen, so the two
    # methods are wrapped on ``Rule`` itself and the key names the row
    def key(rule, stages, *_):
        return (rule, *map(id, stages))
    matched = _counting(monkeypatch, Rule, "match", key)
    rewritten = _counting(monkeypatch, Rule, "rewrite", key)
    search = Search(Program(NINE, name="nine"), NINE_PARAMS, FULL_RULES)
    queue, seen, built = [search.root], {search.root.tokens}, []
    while queue:
        node = queue.pop(0)
        before = len(matched)
        children = search.children(node)
        keys = [(child.origin[4], *map(id, child.origin[2]))
                for child in children]
        # a match per child, at least: the node's scan matched a window
        # the node created, _child one it inherited
        assert not Counter(keys) - Counter(matched[before:])
        built += keys
        for child in children:
            if child.tokens not in seen:
                seen.add(child.tokens)
                queue.append(child)
    assert len(rewritten) == len(set(rewritten))  # once per (rule, window)
    assert set(rewritten) == set(built) and len(rewritten) < len(built)
    clear_caches()


def test_a_search_builds_fewer_programs_than_children(monkeypatch):
    clear_caches()
    program = Program(NINE, name="nine")
    children = _counting(monkeypatch, Search, "_child")
    programs = _counting(monkeypatch, Program, "__init__")
    for built in (NINE_PROGRAMS_COLD, NINE_PROGRAMS_WARM):
        del children[:], programs[:]
        result = beam_optimize(program, NINE_PARAMS, FULL_RULES)
        assert (len(children), len(programs)) == (NINE_CHILDREN, built)
        assert len(result.derivation.steps) == 4
    clear_caches()


#: one beam search of NINE, cold: lookups in the rule set's shape table
#: (one per window scanned) and ``Rule.match`` calls
NINE_LOOKUPS, NINE_MATCHES = 326, 151


def test_a_child_matches_only_the_windows_it_created(monkeypatch):
    """Counts the work of one cold beam search of NINE.  A window is
    matched once per node: by the node's scan when the node created it
    (every window of the root; of a child, those holding a stage its
    rewrite inserted), by ``_child`` when the node inherited it and
    builds its child — and by ``apply_match`` on each rewrite the
    process had not kept."""
    clear_caches()
    # the shape table every search under FULL_RULES reads; this search
    # makes it and expands nothing
    Search(Program(NINE), NINE_PARAMS, FULL_RULES)
    [(_, shapes)] = search_mod._SHAPES.values()
    got, get = [], shapes.get

    def counted_get(key):
        got.append(get(key))
        return got[-1]
    monkeypatch.setattr(shapes, "get", counted_get)
    created = _counting(monkeypatch, shapes, "put",
                        lambda key, candidates: candidates)
    matched = _counting(monkeypatch, Rule, "match")
    rewritten = _counting(monkeypatch, Rule, "rewrite")

    def inherited(search, node, i, start, _safe):
        if node.origin is None:
            return False
        _, at, _, inserted, _ = node.origin
        end = start + search.rules[i].window
        return not (start < at + len(inserted) and end > at)
    children = _counting(monkeypatch, Search, "_child", inherited)
    result = beam_optimize(Program(NINE, name="nine"), NINE_PARAMS,
                           FULL_RULES)
    assert (len(got), len(matched), len(children)) == (
        NINE_LOOKUPS, NINE_MATCHES, NINE_CHILDREN)
    # every candidate of every window scanned, each inherited site built,
    # each rewrite made: no site matched twice at a node, none built unmatched
    assert got.count(None) == len(created)
    scanned = sum(len(candidates) for candidates in got + created
                  if candidates is not None)
    assert len(matched) == scanned + sum(children) + len(rewritten)
    assert 0 < sum(children) < len(children) and rewritten
    assert (result.programs_explored, result.pruned, result.levels) == (
        97, 41, 5)
    clear_caches()


def test_a_stage_keeps_its_cost_per_machine_value(monkeypatch):
    """A stage's cost is kept on the stage, keyed by the machine's value:
    a second search of the same stage objects on the same machine object,
    or on an equal-valued machine object of its own (what a front end
    that builds its params per request brings), costs none of them, while
    a re-plan at a round penalty (what ``recovery.supervise`` plans with)
    and a machine of another class with the same fields each cost every
    stage again, bit for bit ``stage_cost``.  A stage keeps at most
    ``_STASH_MACHINES`` machines: a machine past the bound starts the
    stash afresh."""
    from repro.machine.topologies import RingParams

    costed = _counting(monkeypatch, search_mod, "stage_cost",
                       lambda stage, params: (stage, params))
    stages = tuple(dataclasses.replace(stage) for stage in NINE)  # uncosted
    first = Search(Program(stages), NINE_PARAMS, FULL_RULES)
    assert len(costed) == len(stages)
    equal = dataclasses.replace(NINE_PARAMS)
    assert equal == NINE_PARAMS and equal is not NINE_PARAMS
    for params in (NINE_PARAMS, equal):
        del costed[:]
        again = Search(Program(stages), params, FULL_RULES)
        assert costed == [] and again.root.costs == first.root.costs
    penalised = NINE_PARAMS.with_(round_penalty=5.0)
    ring = RingParams(**dataclasses.asdict(NINE_PARAMS))
    roots = {}
    for params in (penalised, ring):
        del costed[:]
        roots[params] = root = Search(Program(stages), params, FULL_RULES).root
        assert len(costed) == len(stages)
        assert all(stage is mine and machine is params for (stage, machine),
                   mine in zip(costed, stages))
        fresh = tuple(stage_cost(stage, params) for stage in stages)
        assert root.costs == fresh
        assert list(map(type, root.costs)) == list(map(type, fresh))
    assert first.root.cost < roots[penalised].cost

    bound = search_mod._STASH_MACHINES
    stage = dataclasses.replace(NINE[0])
    machines = [MachineParams(p=8, ts=float(k), tw=0.5, m=16)
                for k in range(bound + 12)]
    for params in machines:
        Search(Program([stage]), params, FULL_RULES)
    stash = stage.__dict__["_search_costs"]
    newest = machines[bound:]  # the first of them found the stash full
    assert list(stash) == [search_mod._machine_key(params)
                           for params in newest]
    assert list(stash.values()) == [stage_cost(stage, params)
                                    for params in newest]


#: NINE as text, under a program name of the caller's
NINE_TEXT = """Program {name} (x: input);
MPI_Scan (x, a, op_mul);
MPI_Reduce (a, b, op_add);
MPI_Bcast (b);
MPI_Scan (b, c, op_add);
MPI_Scan (c, d, op_add);
MPI_Allreduce (d, e, op_max);
MPI_Bcast (e);
MPI_Scan (e, f, op_mul);
MPI_Scan (f, g, op_add);
"""
NINE_ENV = {"op_add": ADD, "op_mul": MUL, "op_max": MAX}


def test_a_second_text_of_the_same_statements_builds_nothing_new(
        monkeypatch):
    """Counts causes, not the clock: after one beam search of a parsed
    text, a second text of the same statements under another program name
    (a new declaration, a new ``Program``) lexes only its header (the
    statement texts come from the statement store), constructs no stage,
    rewrites no window and builds only its plan's chain of ``Program``s —
    while ``rule.match`` still runs for every child."""
    clear_caches()
    parser_mod._PARSE_MEMO.clear()
    first = parse_program(NINE_TEXT.format(name="nine")).to_program(NINE_ENV)
    assert _shape(first.stages) == _shape(NINE)
    planned = beam_optimize(first, NINE_PARAMS, FULL_RULES)

    def window_key(rule, stages, *_):
        return (rule, *map(id, stages))

    def child_key(search, node, i, start, _safe):
        rule = search.rules[i]
        return (rule, *map(id, node.stages[start:start + rule.window]))

    constructed = []
    for cls in {type(stage) for stage in NINE}:
        _counting(monkeypatch, cls, "__init__", calls=constructed)
    programs = _counting(monkeypatch, Program, "__init__")
    lexed = []
    lex = parser_mod.lex

    def counted_lex(*args, **kwargs):
        tokens, stop = lex(*args, **kwargs)
        lexed.extend(tokens)
        return tokens, stop

    monkeypatch.setattr(parser_mod, "lex", counted_lex)
    decl = parse_program(NINE_TEXT.format(name="again"))
    header = NINE_TEXT.format(name="again").split("\n")[0]
    assert [tok.text for tok in lexed[:-1]] == [
        "Program", "again", "(", "x", ":", "input", ")", ";"]
    assert lexed[-1].kind == "EOF"  # where the header ended
    assert (lexed[-1].line, lexed[-1].column) == (1, len(header) + 1)
    again = decl.to_program(NINE_ENV)
    assert decl is not parse_program(NINE_TEXT.format(name="nine"))
    assert again is not first and again.name == "again"
    assert (len(constructed), len(programs)) == (0, 1)
    assert _same_objects(again.stages, first.stages)

    matched = _counting(monkeypatch, Rule, "match", window_key)
    rewritten = _counting(monkeypatch, Rule, "rewrite")
    children = _counting(monkeypatch, Search, "_child", child_key)
    del programs[:]
    result = beam_optimize(again, NINE_PARAMS, FULL_RULES)
    assert rewritten == [] and len(children) == NINE_CHILDREN
    assert not Counter(children) - Counter(matched)  # a match per child
    assert len(programs) == len(result.derivation.steps) == 4
    assert trace_of(result) == trace_of(planned)
    assert result.cost_after == planned.cost_after
    assert result.program.name == "again"
    clear_caches()


def _alive() -> int:
    """Search objects alive, counted without a collection."""
    return sum(isinstance(o, (Node, Search)) for o in gc.get_objects())


@pytest.mark.parametrize("strategy", ["greedy", "beam", "exhaustive"])
def test_a_returned_plan_holds_no_node_of_its_search(strategy):
    """With the collector off, the search and every node of it are gone
    when ``optimize`` returns: the graph holds only parent links, so
    reference counting frees it, and the collector finds nothing."""
    program = Program(NINE, name="nine")
    gc.collect()
    gc.disable()
    try:
        before = _alive()
        result = optimize(program, NINE_PARAMS, FULL_RULES,
                          strategy=strategy, cache=PlanCache())
        assert _alive() == before
        assert gc.collect() == 0
    finally:
        gc.enable()
    final, steps = result.derivation.final, result.derivation.steps
    assert type(final) is Program and final.name == "nine"
    assert type(steps) is tuple and steps
    assert all(type(step) is RuleApplication for step in steps)
    replayed, _ = replay_trace(program, trace_of(result), p=NINE_PARAMS.p)
    assert _shape(replayed.stages) == _shape(final.stages)
    assert program_cost(final, NINE_PARAMS) == result.cost_after


def _served_hit() -> Iterator[None]:
    """Warm a cooperative manager's resident schedule, then serve hits."""
    program = Program([ScanStage(ADD), ReduceStage(ADD)], name="served")
    params = MachineParams(p=4, ts=10.0, tw=1.0, m=1)
    with ServingManager(ServingConfig(substrate="cooperative")) as mgr:
        for j in range(3):
            mgr.submit(program, [j, 1, 2, 3], params).result(timeout=60.0)
        yield
        hits = mgr.stats()["resident_hits"]
        for j in range(8):
            values = mgr.submit(program, [j, 5, 6, 7],
                                params).result(timeout=60.0)
            assert values == tuple(program.run([j, 5, 6, 7]))
        assert mgr.stats()["resident_hits"] - hits == 8
        yield


def _compiled_run() -> Iterator[None]:
    """Compile a program, then run it compiled again."""
    program = Program([ScanStage(MUL), ReduceStage(ADD)], name="compiled")
    params = MachineParams(p=4, ts=10.0, tw=1.0, m=1024)
    blocks = [np.arange(1024, dtype=np.int64) % (r + 3) for r in range(4)]
    simulate_program(program, blocks, params, jit=True)
    yield
    for _ in range(3):
        result = simulate_program(program, blocks, params, jit=True)
        assert result.time > 0
    yield


@pytest.mark.parametrize("request_of", [_served_hit, _compiled_run],
                         ids=["resident-hit", "compiled-run"])
def test_a_request_leaves_no_cyclic_garbage(request_of):
    """A served resident hit and a compiled run are freed by their
    reference counts alone: with the collector off, a collection after
    them finds nothing."""
    steps = request_of()
    next(steps)  # warmed up
    gc.collect()
    gc.disable()
    try:
        next(steps)
        assert gc.collect() == 0
    finally:
        gc.enable()
        next(steps, None)


def test_search_terminates_where_rules_grow_programs():
    """Decompose-Allreduce makes two collectives of one and
    Compose-Allreduce undoes it: only the ``seen`` sets end the search."""
    chain = Program([AllReduceStage(EW_ADD)] * 4, name="ew-chain")
    params = MachineParams(p=8, ts=5.0, tw=1.0, m=4096)
    beam = beam_optimize(chain, params, FULL_RULES)
    exact = exhaustive_optimize(chain, params, FULL_RULES)
    assert exact.programs_explored == 2 ** 4  # each stage either way
    assert beam.cost_after == exact.cost_after < beam.cost_before
    assert {s.rule.name for s in beam.derivation.steps} == {
        "Decompose-Allreduce"}


class TestMatchAt:
    PROG = Program([ScanStage(MUL), ReduceStage(ADD), MapStage(abs)])

    def test_agrees_with_find_matches(self):
        sr2 = rule_by_name("SR2-Reduction")
        assert find_matches(self.PROG, (sr2,)) == [match_at(self.PROG, sr2, 0)]

    def test_off_the_program_is_no_match(self):
        sr2 = rule_by_name("SR2-Reduction")
        for start in (-2, -1, 1, 2, 3, 99):
            assert match_at(self.PROG, sr2, start) is None

    def test_lossy_site_safety_reads_the_stage_after_the_window(self):
        local = rule_by_name("BR-Local")
        window = [BcastStage(), ReduceStage(ADD)]
        assert match_at(Program(window), local, 0).safe
        assert match_at(Program(window + [BcastStage()]), local, 0).safe
        assert not match_at(Program(window + [MapStage(abs)]), local, 0).safe


class TestReplayErrors:
    PROG = Program([BcastStage(), ReduceStage(ADD), MapStage(abs)])

    def test_unknown_rule(self):
        with pytest.raises(PlanReplayError, match="unknown rule 'No-Rule'"):
            replay_trace(self.PROG, [("No-Rule", 0)])

    def test_no_match_at_the_recorded_site(self):
        with pytest.raises(PlanReplayError,
                           match="BR-Local no longer matches at stage 1 of"):
            replay_trace(self.PROG, [("BR-Local", 1)])

    def test_start_out_of_range(self):
        for start in (-1, 2, 7):
            with pytest.raises(PlanReplayError, match="no longer matches"):
                replay_trace(self.PROG, [("BR-Local", start)])

    def test_unsafe_site_needs_allow_lossy(self):
        with pytest.raises(PlanReplayError,
                           match="BR-Local at stage 0 is unsafe"):
            replay_trace(self.PROG, [("BR-Local", 0)])
        replayed, steps = replay_trace(self.PROG, [("BR-Local", 0)], p=8,
                                       allow_lossy=True)
        assert len(steps) == 1 and len(replayed.stages) == 2

    def test_matches_only_at_the_recorded_site(self):
        prog = Program([ScanStage(MUL), ReduceStage(ADD)] * 2)
        replayed, (step,) = replay_trace(prog, [("SR2-Reduction", 2)], p=8)
        assert step.start == 2 and replayed.stages[:2] == prog.stages[:2]
