"""Planner property suite: beam vs greedy vs exhaustive over 200+ programs.

The contracts (the same ones ``repro.testing.planner`` checks inside the
conformance harness, here pinned as a standalone tier-1 suite):

* **beam ≤ greedy** on every program — beam search seeds greedy as its
  incumbent, so this must hold in 100% of cases;
* **strictly cheaper at least once** — guaranteed by the seeded
  :data:`repro.testing.generator.PLANNER_CASES` greedy traps, not by
  random luck;
* **exhaustive ≤ beam**, and beam within its own self-reported
  ``suboptimality_bound`` of the exhaustive optimum (``0`` whenever the
  beam never pruned) on small programs;
* **every trace replays**: the returned derivation, re-applied step by
  step via ``replay_trace``, reproduces the returned program and cost;
* **the winning plan means the same thing**: the beam-optimized program
  agrees with the original under the reference (functional) semantics on
  randomized inputs, and the seeded traps additionally pass the full
  multi-backend differential oracle;
* **a name is not an operator**: random int programs with some operators
  swapped for impostors (a catalogue operator's name and flags around
  another catalogue function) plan and run, on every in-process backend,
  to what the program as written computes.

The whole corpus is optimized once in a module-scoped fixture; the
individual tests assert different properties over the shared records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import pytest

from repro.core.cost import MachineParams, program_cost
from repro.core.optimizer import (
    exhaustive_optimize,
    greedy_optimize,
    optimize,
)
from repro.core.planner import BeamResult, beam_optimize, replay_trace, trace_of
from repro.core.rules import ALL_RULES, FULL_RULES
from repro.core.stages import Program
from repro.core.store import clear_caches
from repro.semantics.functional import defined_equal
from repro.testing.generator import (
    INT_DOMAIN,
    PLANNER_CASES,
    GeneratedProgram,
    generate_planner_case,
    generate_random,
)
from repro.testing.oracle import differential_check
from repro.testing.soundness import sample_machine_params

N_RANDOM = 200
BEAM_WIDTH = 4
MAX_EXHAUSTIVE_STAGES = 8
_EPS = 1e-9


@dataclass(frozen=True)
class Record:
    """One corpus entry with every planner tier's answer."""

    gp: GeneratedProgram
    params: MachineParams
    rules: tuple
    greedy: object
    beam: BeamResult
    exact: object  # None when the program was too large for exhaustive
    seeded_trap: bool


def _specs():
    """(program, params, rules, is_trap) for the whole corpus."""
    specs = []
    for trap in PLANNER_CASES:
        rules = FULL_RULES if trap.extensions else ALL_RULES
        specs.append((generate_planner_case(trap), trap.params, rules, True))
    param_rng = random.Random(20260809)
    for i in range(N_RANDOM):
        gp = generate_random(random.Random(1_000_003 * i + 17))
        specs.append((gp, sample_machine_params(param_rng), ALL_RULES, False))
    return specs


@pytest.fixture(scope="module")
def corpus() -> list[Record]:
    clear_caches()
    records = []
    for gp, params, rules, is_trap in _specs():
        greedy = greedy_optimize(gp.program, params, rules)
        beam = beam_optimize(gp.program, params, rules, width=BEAM_WIDTH)
        exact = None
        if len(gp.program.stages) <= MAX_EXHAUSTIVE_STAGES:
            exact = exhaustive_optimize(gp.program, params, rules)
        records.append(Record(gp=gp, params=params, rules=tuple(rules),
                              greedy=greedy, beam=beam, exact=exact,
                              seeded_trap=is_trap))
    return records


class TestCorpus:
    def test_is_at_least_200_programs(self, corpus):
        assert len(corpus) >= 200
        assert sum(1 for r in corpus if r.seeded_trap) == len(PLANNER_CASES)

    def test_small_programs_have_exact_answers(self, corpus):
        # the exhaustive comparison must actually cover most of the corpus
        assert sum(1 for r in corpus if r.exact is not None) >= 150


class TestBeamVsGreedy:
    def test_beam_never_costlier_than_greedy(self, corpus):
        costlier = [r for r in corpus
                    if r.beam.cost_after > r.greedy.cost_after + _EPS]
        assert not costlier, (
            f"{len(costlier)} of {len(corpus)} programs got a costlier beam "
            f"plan, e.g. {costlier[0].gp.program.pretty()!r}: "
            f"beam {costlier[0].beam.cost_after} vs "
            f"greedy {costlier[0].greedy.cost_after}")

    def test_beam_strictly_cheaper_at_least_once(self, corpus):
        strictly = [r for r in corpus
                    if r.beam.cost_after < r.greedy.cost_after - _EPS]
        assert strictly, "no program where search beat steepest descent"

    def test_every_seeded_trap_is_strictly_cheaper(self, corpus):
        for r in corpus:
            if not r.seeded_trap:
                continue
            assert r.beam.cost_after < r.greedy.cost_after - _EPS, (
                f"seeded trap {r.gp.note} no longer traps greedy: "
                f"beam {r.beam.cost_after} vs greedy {r.greedy.cost_after}")

    def test_beam_never_worse_than_doing_nothing(self, corpus):
        for r in corpus:
            assert r.beam.cost_after <= r.beam.cost_before + _EPS


class TestBeamVsExhaustive:
    def test_exhaustive_never_costlier_than_beam(self, corpus):
        for r in corpus:
            if r.exact is None:
                continue
            assert r.exact.cost_after <= r.beam.cost_after + _EPS, (
                f"{r.gp.program.pretty()!r}: exhaustive "
                f"{r.exact.cost_after} > beam {r.beam.cost_after}")

    def test_beam_within_its_reported_bound(self, corpus):
        for r in corpus:
            if r.exact is None:
                continue
            bound = r.beam.suboptimality_bound()
            assert (r.beam.cost_after
                    <= r.exact.cost_after + bound + _EPS), (
                f"{r.gp.program.pretty()!r}: beam {r.beam.cost_after} "
                f"exceeds exhaustive {r.exact.cost_after} by more than "
                f"its reported bound {bound}")

    def test_complete_beams_are_exactly_optimal(self, corpus):
        complete = [r for r in corpus
                    if r.exact is not None and r.beam.complete]
        assert complete  # the tiny corpus programs make this common
        for r in complete:
            assert abs(r.beam.cost_after - r.exact.cost_after) <= _EPS


class TestTraceReplay:
    def test_every_trace_replays_to_the_returned_program(self, corpus):
        for r in corpus:
            replayed, steps = replay_trace(r.gp.program, trace_of(r.beam),
                                           p=r.params.p)
            assert replayed.pretty() == r.beam.program.pretty(), (
                f"{r.gp.program.pretty()!r}: trace replays to "
                f"{replayed.pretty()!r}")
            assert len(steps) == len(r.beam.derivation.steps)
            assert (abs(program_cost(replayed, r.params) - r.beam.cost_after)
                    <= _EPS)

    def test_greedy_traces_replay_too(self, corpus):
        for r in corpus[:50]:
            replayed, _ = replay_trace(r.gp.program, trace_of(r.greedy),
                                       p=r.params.p)
            assert replayed.pretty() == r.greedy.program.pretty()


class TestWinningPlanSemantics:
    def test_beam_plan_agrees_with_reference_semantics(self, corpus):
        for i, r in enumerate(corpus):
            if not r.beam.derivation.steps:
                continue
            rng = random.Random(9_000_001 + i)
            n = min(r.params.p, 8)
            xs = r.gp.inputs(rng, n)
            assert defined_equal(r.beam.program.run(list(xs)),
                                 r.gp.program.run(list(xs))), (
                f"{r.gp.program.pretty()!r} -> "
                f"{r.beam.program.pretty()!r} changed meaning on {xs!r}")

    def test_seeded_traps_pass_the_full_differential_oracle(self, corpus):
        # in-process backends only: the process-per-rank backend forks, which
        # is flaky mid-suite and already oracle-checked by `repro conformance`
        backends = ("functional", "machine", "threaded", "codegen",
                    "vectorized")
        rng = random.Random(424242)
        for r in corpus:
            if not r.seeded_trap:
                continue
            optimized = GeneratedProgram(
                program=r.beam.program, domain=r.gp.domain,
                functions=r.gp.functions, note=f"beam:{r.gp.note}")
            n = min(r.params.p, 8)
            xs = optimized.inputs(rng, n)
            mismatch = differential_check(optimized, xs, r.params.with_(p=n),
                                          backends)
            assert mismatch is None, mismatch.describe()


#: every catalogue operator of the int domain around each other one's
#: function: the same name and flags, another associative, commutative fn
IMPOSTORS = {op: [replace(op, fn=other.fn) for other in INT_DOMAIN.ops
                  if other is not op]
             for op in INT_DOMAIN.ops}


def _with_impostors(gp: GeneratedProgram, rng: random.Random) -> GeneratedProgram:
    """``gp`` with each fold's catalogue operator swapped for an impostor
    on a coin flip (a generator strategy kept out of ``DOMAINS``, so no
    conformance golden sees it)."""
    def swap(stage):
        op = getattr(stage, "op", None)
        if op in IMPOSTORS and rng.random() < 0.5:
            return replace(stage, op=rng.choice(IMPOSTORS[op]))
        return stage

    return gp.with_program(Program([swap(st) for st in gp.program.stages],
                                   name=gp.program.name), note="impostor")


@pytest.mark.parametrize("seed", range(30))
def test_an_impostor_plans_and_runs_as_written(seed):
    """The plan of a program holding impostors computes what the program
    as written computes, on every in-process backend: no law, kernel row
    or MPI source of the catalogue operator reaches its namesake."""
    rng = random.Random(77_000 + seed)
    gp = _with_impostors(generate_random(rng, INT_DOMAIN), rng)
    params = sample_machine_params(rng)
    params = params.with_(p=min(params.p, 8))
    planned = gp.with_program(
        beam_optimize(gp.program, params, FULL_RULES, width=BEAM_WIDTH).program)
    xs = gp.inputs(rng, params.p)
    assert defined_equal(planned.program.run(list(xs)),
                         gp.program.run(list(xs)))
    mismatch = differential_check(planned, xs, params, (
        "functional", "machine", "threaded", "codegen", "vectorized", "jit"))
    assert mismatch is None, mismatch.describe()


class TestOptimizeDispatch:
    def test_strategy_beam_matches_beam_optimize(self, corpus):
        r = corpus[0]
        via_optimize = optimize(r.gp.program, r.params, rules=r.rules,
                                strategy="beam")
        direct = beam_optimize(r.gp.program, r.params, r.rules)
        assert via_optimize.cost_after == direct.cost_after
        assert (via_optimize.derivation.describe()
                == direct.derivation.describe())

    def test_unknown_strategy_rejected(self, corpus):
        r = corpus[0]
        with pytest.raises(ValueError, match="strategy"):
            optimize(r.gp.program, r.params, strategy="astar")

    def test_width_must_be_positive(self, corpus):
        r = corpus[0]
        with pytest.raises(ValueError, match="width"):
            beam_optimize(r.gp.program, r.params, width=0)
