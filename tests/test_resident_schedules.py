"""Resident schedules: the engine once per (program, machine, definedness).

:func:`repro.machine.run.resident_run` keeps a fault-free cooperative
run's schedule — time, clocks, messages, words, compute operations,
timeline, events — and joins it with values from an exact evaluator.
These tests hold it to the engine it replaces: a differential run over
the generated corpus (as written and as planned, with ``UNDEF`` holes),
one test per reason it steps aside, result aliasing, the cache-reset
hook, and the typed error of the table
:func:`~repro.machine.run.execute_stage` looks stages up in.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter

import pytest

from repro.core import stages as stages_module
from repro.core.cost import MachineParams
from repro.core.operators import ADD, EW_ADD, MUL
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllGatherVStage,
    AllReduceStage,
    BcastStage,
    Map2Stage,
    MapStage,
    Program,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.core.store import clear_caches
from repro.faults import FaultPlan, LinkFault
from repro.jit import STATS, engine_lower, reset_stats
from repro.machine import run as machine_run
from repro.machine.primitives import RankContext
from repro.machine.run import (
    DEFINED,
    execute_stage,
    resident_run,
    simulate_program,
)
from repro.semantics.functional import UNDEF, inc
from repro.testing.generator import DOMAINS, generate_random

P = 4
PARAMS = MachineParams(p=P, ts=600.0, tw=2.0, m=3)
SCANRED = Program([ScanStage(ADD), MapStage(inc, label="inc"),
                   ReduceStage(ADD), BcastStage()], name="scan;inc;reduce;bcast")


@pytest.fixture(autouse=True)
def _empty_store():
    clear_caches()
    yield
    clear_caches()


def _served(program, inputs, params=PARAMS, faults=None):
    return resident_run(program, inputs, params,
                        lambda: program.run(inputs), faults=faults)


def _same_run(got, ref):
    """Everything a SimResult says, field by field (values bit for bit)."""
    assert got.values == ref.values
    assert got.time == ref.time
    for name in ("clocks", "messages", "words", "compute_ops",
                 "timeline", "events"):
        assert getattr(got.stats, name) == getattr(ref.stats, name), name
    assert got.faults is None and ref.faults is None


# -- differential: the store against a fresh engine run -----------------------

#: the object-mode domains (``vec`` blocks are arrays: the gate's business)
_CORPUS_DOMAINS = [d for d in DOMAINS if d.name in ("int", "list", "seg")]


def _corpus(seeds):
    for seed in seeds:
        rng = random.Random(f"resident:{seed}")
        generated = generate_random(rng, _CORPUS_DOMAINS[seed % 3])
        for p in (1, 2, 3, 4, 8):
            params = MachineParams(p=p, ts=10.0, tw=1.0, m=2)
            planned = optimize(generated.program, params, rules=FULL_RULES,
                               strategy="beam").program
            holes = [rng.randrange(p)] if rng.random() < 0.4 else []
            for program in (generated.program, planned):
                yield rng, generated, program, params, holes


def _inputs(rng, generated, p, holes):
    xs = generated.inputs(rng, p)
    for h in holes:
        xs[h] = UNDEF
    return xs


def _differential(evaluator) -> Counter:
    """As written and as planned, p in {1, 2, 3, 4, 8}, int/list/seg
    blocks, some inputs ``UNDEF``: whatever the outcome, the result is a
    fresh engine run's; and once a schedule is admitted, other values
    under the same definedness pattern are a hit that is still equal.
    ``evaluator(program)`` is the program whose ``run`` gives the values.
    Both evaluators reach the same outcomes, count for count: the corpus
    reaches both sides of the store."""
    outcomes = Counter()
    for rng, generated, program, params, holes in _corpus(range(120)):
        xs = _inputs(rng, generated, params.p, holes)
        try:
            ref = simulate_program(program, xs, params)
        except TypeError:
            continue  # an UNDEF the machine itself cannot degrade through
        run = evaluator(program).run
        got, outcome = resident_run(program, xs, params, lambda: run(xs))
        outcomes[outcome] += 1
        _same_run(got, ref)
        if outcome not in ("miss", "hit"):
            continue
        ys = _inputs(rng, generated, params.p, holes)
        again, second = resident_run(program, ys, params, lambda: run(ys))
        assert second == "hit", (program.pretty(), outcome, second)
        _same_run(again, simulate_program(program, ys, params))
    assert outcomes == {"miss": 648, "hit": 248, "evaluator-raised": 300}


def test_differential_over_the_generated_corpus():
    """The reference semantics, ``Program.run``, as the evaluator."""
    _differential(lambda program: program)


def test_differential_through_the_definitions():
    """The evaluator the serving worker passes, every derived stage read
    through its definition."""
    _differential(Program.through_definitions)


def test_a_hit_does_not_run_the_engine(monkeypatch):
    xs = [1, 2, 3, 4]
    assert _served(SCANRED, xs)[1] == "miss"

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran on a resident schedule")

    monkeypatch.setattr(machine_run, "run_spmd", no_engine)
    got, outcome = _served(SCANRED, [5, 6, 7, 8])
    assert outcome == "hit"
    assert got.values == tuple(SCANRED.run([5, 6, 7, 8]))


def test_the_key_is_program_machine_and_definedness():
    xs = [1, 2, 3, 4]
    assert _served(SCANRED, xs)[1] == "miss"
    assert _served(SCANRED, xs)[1] == "hit"
    other_machine = MachineParams(p=P, ts=5.0, tw=0.5, m=3)
    assert _served(SCANRED, xs, other_machine)[1] == "miss"
    maps = Program([MapStage(inc, label="inc"), BcastStage()])
    holed = [1, UNDEF, 3, 4]
    assert _served(maps, xs)[1] == "miss"
    assert _served(maps, holed)[1] == "miss"  # another pattern, another key
    got, outcome = _served(maps, [7, UNDEF, 9, 9])
    assert outcome == "hit"
    _same_run(got, simulate_program(maps, [7, UNDEF, 9, 9], PARAMS))


# -- one test per reason the store steps aside --------------------------------

def _assert_bypass(program, inputs, reason, params=PARAMS, faults=None,
                   evaluate=None):
    """The reason comes back with the engine's own result — and keeps
    coming back: nothing was admitted."""
    ref = simulate_program(program, inputs, params, faults=faults)
    for _ in range(2):
        got, outcome = resident_run(
            program, inputs, params,
            evaluate or (lambda: program.run(inputs)), faults=faults)
        assert outcome == reason
        assert got.values == ref.values
        assert got.time == ref.time
        assert got.stats == ref.stats
        assert got.faults == ref.faults


def test_bypass_fault_plan():
    plan = FaultPlan(link_faults=(LinkFault(1, 0, "drop", count=1),))
    assert not plan.is_empty
    prog = Program([ReduceStage(ADD)])
    _assert_bypass(prog, [1, 2, 3, 4], "fault-plan", faults=plan)
    # an empty plan is no plan
    assert _served(prog, [1, 2, 3, 4], faults=FaultPlan())[1] == "miss"


def test_bypass_unhashable_program():
    prog = Program([Map2Stage(ADD.fn, ([1], [2], [3], [4]), label="+"),
                    ScanStage(EW_ADD)])
    with pytest.raises(TypeError):
        hash(prog)
    _assert_bypass(prog, [[1], [2], [3], [4]], "unhashable-program")


@pytest.mark.parametrize("stage, long", [
    (ReduceScatterStage(EW_ADD), [[r] * 5 for r in range(P)]),
    (AllGatherVStage(), [[r] * (1 + r) for r in range(P)]),
], ids=["reduce_scatter", "allgatherv"])
def test_bypass_shape_priced_stage(stage, long):
    """Their words follow ``len(block)``: two block shapes, two
    schedules under one (program, machine, definedness)."""
    assert stage.words_follow_block
    prog = Program([stage])
    short = [[r] * 4 for r in range(P)]
    assert (simulate_program(prog, short, PARAMS).stats.events
            != simulate_program(prog, long, PARAMS).stats.events)
    _assert_bypass(prog, short, "shape-priced-stage")
    _assert_bypass(prog, long, "shape-priced-stage")


def test_only_the_two_vocabulary_stages_are_shape_priced():
    priced = {name for name, cls in inspect.getmembers(stages_module, inspect.isclass)
              if issubclass(cls, Stage) and cls.words_follow_block}
    assert priced == {"ReduceScatterStage", "AllGatherVStage"}


@pytest.mark.parametrize("inputs", [
    [1.0, 2.0, 3.0, 4.0],
    [1, 2, 3, 4.5],
    [(1, 2.0), (3, 4), (5, 6), (7, 8)],
    [(1, UNDEF), (3, 4), (5, 6), (7, 8)],  # a nested hole is no pattern
    ["a", "b", "c", "d"],
], ids=["floats", "one-float", "nested-float", "nested-undef", "strings"])
def test_bypass_inexact_input(inputs):
    prog = Program([BcastStage()])
    _assert_bypass(prog, inputs, "inexact-input")


def test_floats_keep_the_machines_combining_order():
    """Why the gate exists: the machine's tree and the reference's left
    fold round differently, so only the engine may answer for floats."""
    params = MachineParams(p=8, ts=1.0, tw=1.0, m=1)
    prog = Program([ReduceStage(ADD)])
    xs = [0.1 * (k + 1) for k in range(8)]
    assert simulate_program(prog, xs, params).values[0] != prog.run(xs)[0]
    _assert_bypass(prog, xs, "inexact-input", params=params)


def test_bypass_inexact_value():
    """Exact blocks in, floats out (a captured float constant): the
    orders agree on some inputs and not on others, so admission on an
    agreeing one would serve the wrong rounding later."""
    params = MachineParams(p=8, ts=1.0, tw=1.0, m=1)
    prog = Program([Map2Stage(MUL.fn, tuple(0.1 * (k + 1) for k in range(8)),
                              label="*c"), ReduceStage(ADD)])
    streams = [[(r * 7 + j) % 11 + 1 for r in range(8)] for j in range(40)]
    agree = [simulate_program(prog, xs, params).values[0] == prog.run(xs)[0]
             for xs in streams]
    assert any(agree) and not all(agree)
    for xs in streams:
        _assert_bypass(prog, xs, "inexact-value", params=params)


def test_bypass_evaluator_raised():
    """The reference semantics raise on an ``UNDEF`` the machine's
    self-stabilizing reduce degrades through; the engine answers."""
    prog = Program([ReduceStage(ADD)])
    xs = [1, UNDEF, 3, 4]
    with pytest.raises(TypeError):
        prog.run(xs)
    _assert_bypass(prog, xs, "evaluator-raised")
    # ... on a resident schedule too
    maps = Program([MapStage(lambda x: 10 // x, label="div")])
    assert _served(maps, [1, 2, 3, 4])[1] == "miss"
    with pytest.raises(ZeroDivisionError):
        _served(maps, [1, 0, 3, 4])  # the engine's own exception


def test_bypass_schedule_mismatch():
    prog = Program([ReduceStage(ADD)])
    xs = [1, 2, 3, 4]
    everywhere = lambda: [10, 10, 10, 10]  # noqa: E731 - reduce leaves UNDEF
    _assert_bypass(prog, xs, "schedule-mismatch", evaluate=everywhere)
    assert _served(prog, xs)[1] == "miss"
    got, outcome = resident_run(prog, xs, PARAMS, everywhere)
    assert outcome == "schedule-mismatch"  # checked on every hit
    assert got.values == simulate_program(prog, xs, PARAMS).values


def test_bypass_values_disagree_at_admission():
    prog = Program([ScanStage(ADD)])
    xs = [1, 2, 3, 4]
    _assert_bypass(prog, xs, "values-disagree",
                   evaluate=lambda: [1, 3, 6, 11])
    assert _served(prog, xs)[1] == "miss"


# -- aliasing ------------------------------------------------------------------

def test_results_share_nothing_with_the_store():
    """Mutating what a miss or a hit returned leaves the next hit — and
    the probes of a stored timeline — untouched."""
    xs = [1, 2, 3, 4]
    ref = simulate_program(SCANRED, xs, PARAMS)
    for expected in ("miss", "hit", "hit"):
        got, outcome = _served(SCANRED, xs)
        assert outcome == expected
        _same_run(got, ref)
        assert isinstance(got.stats.events, list)
        got.stats.events.clear()
        got.stats.timeline.append(("rank", "tag", 0.0))
        got.stats.messages = -1
        got.stats.clocks = ()
        object.__setattr__(got, "values", ())


def test_fused_results_share_nothing_between_runs():
    """``simulate_program(jit=True)`` on the fused rung used to return the
    token run's own ``SimStats``; with the token schedule resident that
    would alias every later run."""
    np = pytest.importorskip("numpy")
    params = MachineParams(p=P, ts=600.0, tw=2.0, m=16)
    prog = Program([ScanStage(ADD), AllReduceStage(ADD)])
    xs = [np.arange(16, dtype=np.int64) + r for r in range(P)]
    assert engine_lower(prog, xs, params).rung == "fused"
    ref = simulate_program(prog, xs, params)
    reset_stats()
    for _ in range(3):
        got = simulate_program(prog, xs, params, jit=True)
        assert all(np.array_equal(a, b) for a, b in zip(got.values, ref.values))
        assert got.time == ref.time
        assert got.stats == ref.stats
        got.stats.events.clear()
        got.stats.timeline.append(("rank", "tag", 0.0))
    assert not STATS.fallbacks  # a hit or a miss is no fallback


def test_token_runs_are_the_trivial_case():
    """Token inputs: the engine's values are their own pattern, so the
    evaluator's values are taken on the pattern check alone."""
    prog = Program([ReduceStage(ADD)])
    values = ["anything", UNDEF, UNDEF, UNDEF]
    for expected in ("miss", "hit"):
        got, outcome = resident_run(prog, [DEFINED] * P, PARAMS,
                                    lambda: values)
        assert outcome == expected
        assert got.values == tuple(values)
        assert got.time == simulate_program(prog, [1, 2, 3, 4], PARAMS).time


# -- the store itself ----------------------------------------------------------

def test_clear_planner_caches_empties_the_store():
    assert _served(SCANRED, [1, 2, 3, 4])[1] == "miss"
    assert len(machine_run._SCHEDULES) == 1
    clear_caches()
    assert len(machine_run._SCHEDULES) == 0
    assert _served(SCANRED, [1, 2, 3, 4])[1] == "miss"


def test_the_store_is_bounded_first_in_first_out(monkeypatch):
    monkeypatch.setattr(machine_run._SCHEDULES, "bound", 3)
    machines = [MachineParams(p=P, ts=float(k), tw=1.0, m=1) for k in range(5)]
    for params in machines:
        assert _served(SCANRED, [1, 2, 3, 4], params)[1] == "miss"
        assert len(machine_run._SCHEDULES) <= 3
    assert _served(SCANRED, [1, 2, 3, 4], machines[-1])[1] == "hit"
    assert _served(SCANRED, [1, 2, 3, 4], machines[0])[1] == "miss"  # evicted


def test_simulate_program_itself_carries_real_payloads():
    """Without ``jit``: the machine algorithms run on the blocks
    on every call, resident schedule or not."""
    calls = []

    def spy(x):
        calls.append(x)
        return x + 1

    prog = Program([MapStage(spy, label="spy"), ScanStage(ADD)])
    assert _served(prog, [1, 2, 3, 4])[1] == "miss"
    calls.clear()
    for _ in range(2):
        simulate_program(prog, [1, 2, 3, 4], PARAMS)
    assert sorted(calls) == [1, 1, 2, 2, 3, 3, 4, 4]


# -- execute_stage: one table (its exhaustiveness: test_stages.TestFacets) -----

def test_a_stage_without_an_entry_is_a_typed_error(monkeypatch):
    entries = dict(machine_run._MACHINE)
    del entries[BcastStage]
    monkeypatch.setattr(machine_run, "_MACHINE", entries)
    with pytest.raises(TypeError, match="no machine implementation"):
        execute_stage(RankContext(0, 2, PARAMS), BcastStage(), 1)
