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
* **Termination** under rules that grow programs, ``match_at`` and the
  replay errors that rest on it.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import planner_corpus
from test_planner_property import _specs

from repro.core import search as search_mod
from repro.core.cost import MachineParams, program_cost
from repro.core.operators import ADD, EW_ADD, MUL
from repro.core.optimizer import clear_match_cache, exhaustive_optimize
from repro.core.planner import (
    PlanReplayError,
    beam_optimize,
    plan_signature,
    replay_trace,
)
from repro.core.rewrite import find_matches, match_at
from repro.core.rules import FULL_RULES, rule_by_name
from repro.core.search import Search
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
