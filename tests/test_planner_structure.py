"""The planner's structure, not just its outcome.

* **Golden**: over ``planner_corpus`` (≈300 programs × 3 machines ×
  {greedy, beam, exhaustive}) today's planner returns byte for byte what
  the planner of PR 11 returned — trace, exact costs, programs explored,
  pruned, levels (``tests/data/planner_golden_v1.json``).
* **Window-local facts**: for every program the search core expands, the
  site list it derived from the parent's equals ``find_matches`` from
  scratch (same rules, starts, ``safe`` flags, order), and the spliced
  signature, renderings and cost equal the ones recomputed from the
  stages — with the window memo cold, warm, and squeezed to 8 entries.
* **Window-local rewrites**: every child the core builds — from a fresh
  rewrite or from one it kept — equals a fresh ``apply_match`` on its
  materialised parent, stage for stage, fact for fact and step for step;
  sites over the same window objects share the inserted stage objects;
  ``rule.match`` runs for every child, ``rule.rewrite`` once per (rule,
  window objects); a search builds fewer ``Program``s than children; and
  a returned plan holds no node of the search that found it.
* **Termination** under rules that grow programs, ``match_at`` and the
  replay errors that rest on it.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from pathlib import Path

import pytest

import planner_corpus
from test_planner_property import _specs

from repro.core import search as search_mod
from repro.core.cost import MachineParams, program_cost, stage_cost
from repro.core.operators import ADD, EW_ADD, MAX, MUL
from repro.core.optimizer import (
    _result,
    clear_match_cache,
    exhaustive_optimize,
    optimize,
)
from repro.core.planner import (
    PlanReplayError,
    beam_optimize,
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
from repro.lang import parse_program

GOLDEN = Path(__file__).parent / "data" / "planner_golden_v1.json"

#: expansions checked per program (the graphs of the corpus are smaller)
MAX_EXPANSIONS = 60


def test_golden_reproduced_byte_for_byte():
    clear_match_cache()
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
        assert node.renderings == tuple(s.pretty() for s in stages)
        cost = program_cost(node.program, params)
        assert node.cost == cost and type(node.cost) is type(cost)
        for child in children:
            if child.tokens not in seen:
                seen.add(child.tokens)
                queue.append(child)
    return expanded


@pytest.mark.parametrize("memo", ["cold-then-warm", "squeezed"])
def test_derived_sites_and_spliced_facts_equal_from_scratch(memo, monkeypatch):
    if memo == "squeezed":  # every search evicts: hits, misses and re-misses
        monkeypatch.setattr(search_mod._MATCH_CACHE, "bound", 8)
    clear_match_cache()
    corpus = _structure_corpus()
    for _pass in range(2):  # the second pass answers from the memo
        expanded = sum(_check_expanded_nodes(*spec) for spec in corpus)
        assert expanded > 2 * len(corpus)  # children were expanded too
        assert 0 < len(search_mod._MATCH_CACHE) <= search_mod._MATCH_CACHE.bound
    clear_match_cache()


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
    clear_match_cache()
    built = distinct = 0
    for program, _rules in planner_corpus.programs():
        for params in planner_corpus.PRESETS:
            for rules in (ALL_RULES, FULL_RULES):
                b, d = _walk_rewrites(program, params, rules)
                built, distinct = built + b, distinct + d
    assert distinct < built  # kept rewrites were reused, and checked
    clear_match_cache()


#: nine stages, four disjoint rule windows: a wide graph whose orders of
#: application converge, so most children are duplicates
NINE = (ScanStage(MUL), ReduceStage(ADD), BcastStage(), ScanStage(ADD),
        ScanStage(ADD), AllReduceStage(MAX), BcastStage(), ScanStage(MUL),
        ScanStage(ADD))
NINE_PARAMS = MachineParams(p=8, ts=5.0, tw=0.5, m=16)
#: one beam search of it: 110 children from 12 distinct (rule, window
#: objects); ``Program``s built: a window and its rewrite per distinct
#: rewrite and the 4 of the returned plan's chain, plus, with the match
#: memo cold, the 21 nodes ``match_at`` asked for their program
NINE_CHILDREN, NINE_PROGRAMS_COLD, NINE_PROGRAMS_WARM = 110, 49, 28


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
    clear_match_cache()
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
        # a match per child, at least: match_at on a memo miss matches too
        assert not Counter(keys) - Counter(matched[before:])
        built += keys
        for child in children:
            if child.tokens not in seen:
                seen.add(child.tokens)
                queue.append(child)
    assert len(rewritten) == len(set(rewritten))  # once per (rule, window)
    assert set(rewritten) == set(built) and len(rewritten) < len(built)
    clear_match_cache()


def test_a_search_builds_fewer_programs_than_children(monkeypatch):
    clear_match_cache()
    program = Program(NINE, name="nine")
    children = _counting(monkeypatch, Search, "_child")
    programs = _counting(monkeypatch, Program, "__init__")
    for built in (NINE_PROGRAMS_COLD, NINE_PROGRAMS_WARM):
        del children[:], programs[:]
        result = beam_optimize(program, NINE_PARAMS, FULL_RULES)
        assert (len(children), len(programs)) == (NINE_CHILDREN, built)
        assert len(result.derivation.steps) == 4
    clear_match_cache()


@pytest.mark.parametrize("strategy", ["greedy", "beam", "exhaustive"])
def test_a_returned_plan_holds_no_node_of_its_search(strategy):
    def alive() -> int:
        gc.collect()
        return sum(isinstance(o, (Node, Search)) for o in gc.get_objects())

    program = Program(NINE, name="nine")
    before = alive()
    result = optimize(program, NINE_PARAMS, FULL_RULES, strategy=strategy)
    assert alive() == before  # the search and every node of it are gone
    final, steps = result.derivation.final, result.derivation.steps
    assert type(final) is Program and final.name == "nine"
    assert type(steps) is tuple and steps
    assert all(type(step) is RuleApplication for step in steps)
    replayed, _ = replay_trace(program, trace_of(result), p=NINE_PARAMS.p)
    assert _shape(replayed.stages) == _shape(final.stages)
    assert program_cost(final, NINE_PARAMS) == result.cost_after


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
