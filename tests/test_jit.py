"""Whole-program JIT tier: exactness, fallbacks, engines, caches, CLI.

The contract under test (``docs/PERFORMANCE.md``): ``run_jit`` is
bit-identical to ``run_vectorized`` — raw fused segment kernels where
the hoisted static range check proves the run overflow-free, checked
kernels everywhere else, exact object-mode replay on overflow — and
``simulate_program(..., jit=True)`` reports the exact simulated clock
of ``vectorize=True`` (JIT changes wall-clock only, never results or
the cost model).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.cost import MachineParams
from repro.core.derived_ops import (
    bs_comcast_op,
    bss2_comcast_op,
    bss_comcast_op,
    br_iter_op,
    bsr2_iter_op,
    bsr_iter_op,
    sr2_op,
)
from repro.core.operators import ADD, CONCAT, FADD, FMUL, MAX, MIN, MUL, BinOp
from repro.core.optimizer import clear_planner_caches, optimize
from repro.core.rules import FULL_RULES
from repro.core.rules.base import pair_stage, projection_stage
from repro.core.rules.reduction import SR_REDUCTION
from repro.core.rules.scan import SS_SCAN
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    ComcastStage,
    IterStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.jit.compiler import analyze_stages
from repro.jit import (
    STATS,
    JitUnsupported,
    clear_jit_cache,
    compiled_program,
    engine_lower,
    reset_stats,
    run_jit,
)
from repro.faults import FaultPlan, RankCrash
from repro.kernels import (
    KernelUnsupported,
    run_vectorized,
)
from repro.kernels.registry import (
    map_rows,
    primitive,
    register_binop_kernel,
    register_map_kernel,
    registry_version,
)
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, defined_equal
from repro.testing.chaos import run_chaos
from repro.testing.generator import (
    EW_ADD,
    EW_MAX,
    INT_DOMAIN,
    VEC_DOMAIN,
    GeneratedProgram,
    RuleCase,
    generate_from_case,
    generate_random,
)
from repro.testing.oracle import SKIPPED, differential_check, run_backend

P = 8
PARAMS = MachineParams(p=P, ts=10.0, tw=1.0, m=1024)


def _inc(x):
    return x + 1


def _dbl(x):
    return x * 2


def _arrays(block: int = 1000, p: int = P, lo: int = 1, hi: int = 4,
            seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(lo, hi, block).astype(np.int64) for _ in range(p)]


def _sr2_program(block: int = 1000, p: int = P) -> Program:
    params = MachineParams(p=p, ts=10.0, tw=1.0, m=block)
    result = optimize(Program([ScanStage(MUL), ReduceStage(ADD)],
                              name="scan;reduce"), params)
    assert "SR2-Reduction" in result.derivation.rules_used
    return result.program


def _assert_bitwise(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is UNDEF or y is UNDEF:
            assert x is y
            continue
        assert np.array_equal(np.asarray(x), np.asarray(y))
        assert np.asarray(x).dtype == np.asarray(y).dtype


@pytest.fixture(autouse=True)
def _fresh_jit():
    clear_jit_cache()
    reset_stats()
    yield
    clear_jit_cache()
    reset_stats()


class TestRunJitCorrectness:
    def test_sr2_pipeline_full_jit_bit_identical(self):
        prog = _sr2_program()
        xs = _arrays()
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)
        assert STATS.full_jit_runs >= 1
        assert STATS.fused_stages >= 3  # pair + sr2-combine + pi_1

    def test_scan_chain_matches_vectorized(self):
        prog = Program([MapStage(_inc, label="inc"), ScanStage(ADD),
                        ReduceStage(ADD)])
        xs = _arrays(seed=1)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_float_pipeline_bitwise(self):
        prog = Program([ScanStage(FMUL), AllReduceStage(FADD)])
        rng = np.random.default_rng(2)
        xs = [rng.random(1000) for _ in range(P)]
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)
        assert STATS.full_jit_runs >= 1  # floats are proven by regime

    def test_empty_blocks(self):
        prog = _sr2_program(block=0)
        xs = [np.zeros(0, dtype=np.int64) for _ in range(P)]
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_single_rank(self):
        # the optimizer leaves p=1 alone (nothing to save); run the
        # unoptimized pipeline — jit must still handle one-rank folds
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        xs = _arrays(p=1, seed=3)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_scalar_blocks(self):
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        xs = [2, 3, 1, 2]
        jit = run_jit(prog, list(xs), strict=True)
        ref = prog.run(list(xs))
        assert defined_equal(ref, jit)

    def test_undef_propagates_through_post_map(self):
        # reduce leaves UNDEF off-root; the following map must keep it
        prog = Program([ReduceStage(ADD), MapStage(_inc, label="inc")])
        xs = _arrays(seed=4)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        assert all(v is UNDEF for v in jit[1:])
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_bcast_supported(self):
        prog = Program([MapStage(_dbl, label="dbl"), BcastStage()])
        xs = _arrays(seed=5)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_inputs_not_mutated(self):
        prog = _sr2_program()
        xs = _arrays(seed=6)
        originals = [a.copy() for a in xs]
        run_jit(prog, xs, strict=True)
        for a, o in zip(xs, originals):
            assert np.array_equal(a, o)


class TestFallbacks:
    def test_unsupported_program_strict_raises(self):
        prog = Program([ScanStage(CONCAT)])
        xs = [[1], [2], [3], [4]]
        with pytest.raises(KernelUnsupported):
            run_jit(prog, list(xs), strict=True)

    def test_unsupported_program_nonstrict_object_mode(self):
        prog = Program([ScanStage(CONCAT)])
        xs = [[1], [2], [3], [4]]
        out = run_jit(prog, [list(b) for b in xs])
        assert defined_equal(prog.run([list(b) for b in xs]), out)
        assert STATS.fallbacks["unsupported-program"] >= 1

    def test_overflow_replay_exact_bigints(self):
        # Python-int blocks: the replay is object mode, hence exact
        prog = Program([ScanStage(MUL), ReduceStage(MUL)])
        xs = [2 ** 40, 2 ** 41, 2 ** 42, 2 ** 43]
        jit = run_jit(prog, list(xs), strict=True)
        ref = prog.run(list(xs))
        assert defined_equal(ref, jit)
        assert jit[0] == 2 ** (40 + 81 + 123 + 166)
        assert STATS.fallbacks["overflow-replay"] >= 1

    def test_overflow_replay_matches_vectorized_wrap(self):
        # int64 arrays: object replay wraps exactly like run_vectorized's
        prog = Program([ScanStage(MUL)])
        xs = [np.full(8, 2 ** 31, dtype=np.int64) for _ in range(4)]
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)

    def test_bounds_unproven_runs_checked_kernels(self):
        # hull says 8 * 2^61 might overflow; the actual data never does
        prog = Program([ReduceStage(ADD)])
        xs = [np.zeros(16, dtype=np.int64) for _ in range(P)]
        xs[0][:] = 2 ** 61
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)
        assert STATS.fallbacks["bounds-unproven"] >= 1
        assert STATS.full_jit_runs == 0

    def test_mode_jit_run_program_and_method(self):
        prog = _sr2_program()
        xs = _arrays(seed=7)
        # the doors this test is named after forwarded to exactly these
        # two calls; they are gone, the calls must still agree
        strict = run_jit(prog, [a.copy() for a in xs], strict=True)
        lenient = run_jit(prog, [a.copy() for a in xs])
        _assert_bitwise(strict, lenient)


class TestEngines:
    def test_cooperative_identical_time_and_values(self):
        prog = _sr2_program(block=256)
        xs = _arrays(block=256, seed=8)
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=256)
        vec = simulate_program(prog, [a.copy() for a in xs], params,
                               vectorize=True)
        jit = simulate_program(prog, [a.copy() for a in xs], params,
                               jit=True)
        assert jit.time == vec.time
        _assert_bitwise(vec.values, jit.values)

    def test_threaded_identical_time_and_values(self):
        prog = _sr2_program(block=256)
        xs = _arrays(block=256, seed=9)
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=256)
        vec = simulate_program(prog, [a.copy() for a in xs], params,
                               vectorize=True, engine="threaded")
        jit = simulate_program(prog, [a.copy() for a in xs], params,
                               jit=True, engine="threaded")
        assert jit.time == vec.time
        _assert_bitwise(vec.values, jit.values)

    def test_engine_jit_matches_object_mode(self):
        prog = _sr2_program(block=64)
        xs = _arrays(block=64, seed=10)
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=64)
        obj = simulate_program(prog, [a.copy() for a in xs], params)
        jit = simulate_program(prog, [a.copy() for a in xs], params,
                               jit=True)
        assert jit.time == obj.time
        for o, j in zip(obj.values, jit.values):
            assert np.array_equal(np.asarray(o), np.asarray(j))

    def test_engine_unsupported_falls_back_to_object(self):
        prog = Program([ScanStage(CONCAT)])
        xs = [(1,), (2,), (3,), (4,)]
        params = MachineParams(p=4, ts=10.0, tw=1.0, m=1)
        obj = simulate_program(prog, list(xs), params)
        jit = simulate_program(prog, list(xs), params, jit=True)
        assert jit.time == obj.time
        assert defined_equal(list(obj.values), list(jit.values))

    def test_process_engine_accepts_jit_flag(self):
        # the one ladder serves every engine: forked ranks schedule the
        # tokens while the parent's fused kernels produce the values
        prog = _sr2_program(block=32, p=2)
        xs = _arrays(block=32, p=2, seed=11)
        params = MachineParams(p=2, ts=10.0, tw=1.0, m=32)
        obj = simulate_program(prog, [a.copy() for a in xs], params)
        jit = simulate_program(prog, [a.copy() for a in xs], params,
                               jit=True, engine="process")
        assert jit.time == obj.time
        for o, j in zip(obj.values, jit.values):
            assert np.array_equal(np.asarray(o), np.asarray(j))


def _assert_same_run(a, b, ordered_events=True):
    """Two SimResults agree in values (bitwise, dtype and Python type)
    and in every clock and counter the machine model produces."""
    _assert_bitwise(a.values, b.values)
    assert [type(v) for v in a.values] == [type(v) for v in b.values]
    assert a.time == b.time
    assert a.stats.clocks == b.stats.clocks
    assert a.stats.messages == b.stats.messages
    assert a.stats.words == b.stats.words
    assert a.stats.compute_ops == b.stats.compute_ops
    assert a.stats.timeline == b.stats.timeline
    if ordered_events:
        assert a.stats.events == b.stats.events
    else:  # rank threads deliver in any wall-clock order
        assert sorted(a.stats.events) == sorted(b.stats.events)
    assert a.faults == b.faults


def _both(prog, xs, params, engine="cooperative", faults=None):
    """The same run under ``vectorize=True`` and under ``jit=True``."""
    def run(**mode):
        return simulate_program(prog, [x.copy() if isinstance(x, np.ndarray)
                                       else x for x in xs],
                                params, faults=faults, engine=engine, **mode)

    return run(vectorize=True), run(jit=True)


_REDUCE_BCAST = Program([ReduceStage(ADD), BcastStage()], name="reduce;bcast")


class TestEngineLadder:
    """``simulate_program(jit=True)``: the fused rung is exact, and every
    decline takes the rung below and says why."""

    @pytest.mark.parametrize("engine", ["cooperative", "threaded"])
    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_generated_programs_match_vectorized(self, p, engine):
        params = MachineParams(p=p, ts=10.0, tw=1.0, m=4)
        rng = random.Random(100 + p)
        cases = [(generate_random(rng, domain).program, domain.value_gen)
                 for domain in (INT_DOMAIN, VEC_DOMAIN) for _ in range(12)]
        cases += [
            (_REDUCE_BCAST, INT_DOMAIN.value_gen),
            (_REDUCE_BCAST, VEC_DOMAIN.value_gen),
            (_REDUCE_BCAST, lambda _rng: np.zeros(0, dtype=np.int64)),
            (_sr2_program(block=4, p=8), lambda _rng: np.zeros(0, dtype=np.int64)),
            (_sr2_program(block=4, p=8), lambda _rng: np.asarray(2)),
        ]
        fused = 0
        for prog, value_gen in cases:
            xs = [value_gen(rng) for _ in range(p)]
            fused += engine_lower(prog, xs, params).rung == "fused"
            vec, jit = _both(prog, xs, params, engine)
            _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        assert fused >= len(cases) // 2  # the rung under test was taken
        assert "schedule-mismatch" not in STATS.fallbacks
        assert "runtime-shape" not in STATS.fallbacks

    def test_no_operator_sees_an_array_on_the_fused_rung(self, monkeypatch):
        seen = []
        call = BinOp.__call__

        def spy(self, a, b):
            seen.append((type(a), type(b)))
            return call(self, a, b)

        monkeypatch.setattr(BinOp, "__call__", spy)
        prog = Program([ScanStage(MUL), AllReduceStage(ADD)])
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=256)
        for engine in ("cooperative", "threaded"):
            seen.clear()
            simulate_program(prog, _arrays(block=256, seed=20), params,
                             jit=True, engine=engine)
            assert seen  # the engine did run its combines ...
            assert not any(issubclass(t, (np.ndarray, np.generic))
                           for pair in seen for t in pair)  # ... on tokens
        assert not STATS.fallbacks
        assert STATS.full_jit_runs == STATS.runs == 2
        assert STATS.cache_hits + STATS.cache_misses == 2
        # the contrast: float blocks keep the raw swap, which carries arrays
        seen.clear()
        fprog = Program([AllReduceStage(FADD)])
        simulate_program(fprog, [np.ones(4) for _ in range(P)], params, jit=True)
        assert any(issubclass(t, np.ndarray) for pair in seen for t in pair)

    def test_float_blocks_keep_the_engines_combining_order(self):
        # butterfly ((a+b)+(c+d)) and left fold (((a+b)+c)+d) round apart
        prog = Program([AllReduceStage(FADD)])
        xs = [np.array([v]) for v in (1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 7.0, 1.0)]
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=1)
        assert engine_lower(prog, xs, params).rung == "raw"
        for engine in ("cooperative", "threaded"):
            vec, jit = _both(prog, xs, params, engine)
            _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        fold = run_jit(prog, [a.copy() for a in xs], strict=True)
        assert not np.array_equal(fold[0], jit.values[0])
        assert STATS.fallbacks["float-blocks"] == 3

    @pytest.mark.parametrize("engine", ["cooperative", "threaded"])
    def test_fault_plan_declines_with_identical_summary(self, engine):
        prog = _sr2_program(block=64)
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=64)
        plan = FaultPlan(crashes=(RankCrash(rank=5, at_clock=0.0),),
                         jitter=0.5, seed=3)
        vec, jit = _both(prog, _arrays(block=64, seed=21), params, engine,
                         faults=plan)
        assert jit.faults is not None and jit.faults == vec.faults
        _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        assert STATS.fallbacks == {"fault-plan": 1}
        # an empty plan is no plan
        reset_stats()
        vec, jit = _both(prog, _arrays(block=64, seed=21), params, engine,
                         faults=FaultPlan())
        _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        assert not STATS.fallbacks

    def test_undef_input_block_declines(self):
        prog = Program([MapStage(_inc, label="inc"), ScanStage(ADD)])
        xs = _arrays(block=16, seed=22)
        xs[3] = UNDEF
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=16)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why) == ("raw", "nonconforming-input")
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert jit.values[3] is UNDEF

    def test_unproven_hull_runs_checked_kernels(self):
        # one large element: the hull cannot be proven, the run is fine
        prog = Program([ReduceStage(MUL), BcastStage()])
        xs = [np.ones(8, dtype=np.int64) for _ in range(P)]
        xs[2][5] = 2 ** 40
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=8)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why) == ("checked", "bounds-unproven")
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert jit.values[0][5] == 2 ** 40

    def test_overflow_replays_in_object_mode(self):
        # Python-int blocks: the replay is object mode, hence exact
        prog = Program([AllReduceStage(MUL)])
        xs = [2 ** 20] * P
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=1)
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert jit.values == (2 ** 160,) * P
        assert STATS.fallbacks["bounds-unproven"] == 1
        assert STATS.full_jit_runs == 0


# ---------------------------------------------------------------------------
# Derived stages: comcast / iter through their defining pipelines
# ---------------------------------------------------------------------------

#: left-hand sides of every Comcast and Local rule, per generator domain
_DERIVED_WINDOWS = [
    ("int", lambda: (BcastStage(), ScanStage(ADD))),
    ("int", lambda: (BcastStage(), ScanStage(MIN))),
    ("int", lambda: (BcastStage(), ScanStage(MUL), ScanStage(ADD))),
    ("int", lambda: (BcastStage(), ScanStage(ADD), ScanStage(ADD))),
    ("int", lambda: (BcastStage(), ReduceStage(MUL))),
    ("int", lambda: (BcastStage(), AllReduceStage(MAX))),
    ("int", lambda: (BcastStage(), ScanStage(ADD), ReduceStage(MAX))),
    ("int", lambda: (BcastStage(), ScanStage(ADD), ReduceStage(ADD))),
    ("vec", lambda: (BcastStage(), ScanStage(EW_ADD))),
    ("vec", lambda: (BcastStage(), ScanStage(EW_ADD), ScanStage(EW_MAX))),
    ("vec", lambda: (BcastStage(), ReduceStage(EW_MAX))),
    ("vec", lambda: (BcastStage(), AllReduceStage(EW_ADD))),
    ("vec", lambda: (BcastStage(), ScanStage(EW_ADD), ReduceStage(EW_ADD))),
]

_SR2 = sr2_op(MUL, ADD)

#: hand-made ``map pair ; stage ; map π₁`` sandwiches around derived
#: stages (the planner emits them only behind a reduce, where the blocks
#: are no longer all defined) and the doubling pipeline
_DERIVED_SANDWICHES = [
    Program([pair_stage("t"), ComcastStage(bs_comcast_op(_SR2)),
             projection_stage("t")], name="pair;comcast;pi1"),
    Program([pair_stage("t"), ComcastStage(bs_comcast_op(_SR2), impl="doubling"),
             projection_stage("t"), ScanStage(ADD)], name="pair;doubling;pi1"),
    Program([MapStage(_inc, label="inc"), pair_stage("t"),
             IterStage(br_iter_op(_SR2), general=True, then_bcast=True),
             projection_stage("t")], name="pair;iter;bcast;pi1"),
    Program([pair_stage("t"), IterStage(br_iter_op(_SR2), general=True),
             projection_stage("t"), BcastStage()], name="pair;iter;pi1"),
    Program([ComcastStage(bss_comcast_op(ADD), impl="doubling"),
             IterStage(bsr_iter_op(ADD), general=True)], name="bss;bsr"),
]


def _has_derived(prog):
    return any(st.definition() is not None for st in prog.stages)


def _planned_derived_cases(rng, p, rounds):
    """Planner-optimized random int/vec programs containing comcast/iter
    stages (some switched to the doubling pipeline), with their value
    generators, plus the hand-made sandwiches."""
    # nothing pays at p = 1: take the plan of the nearest real machine
    params = MachineParams(p=max(p, 2), ts=10.0, tw=1.0, m=4)
    cases = []
    for _ in range(rounds):
        for domain, window in _DERIVED_WINDOWS:
            gen = generate_from_case(rng, RuleCase("derived", True, domain,
                                                   window))
            prog = optimize(gen.program, params, rules=FULL_RULES,
                            strategy="beam").program
            if not _has_derived(prog):
                continue
            if rng.random() < 0.3:
                prog = Program([replace(st, impl="doubling")
                                if isinstance(st, ComcastStage) else st
                                for st in prog.stages], name=prog.name)
            cases.append((prog, gen.domain.value_gen))
    for domain in (INT_DOMAIN, VEC_DOMAIN):
        cases += [(prog, domain.value_gen) for prog in _DERIVED_SANDWICHES]
    return cases


class TestDerivedStages:
    """comcast/iter stages take the fused rung through their definitions:
    exact there, and every decline keeps the path it had and says why."""

    @pytest.mark.parametrize("engine", ["cooperative", "threaded"])
    @pytest.mark.parametrize("p", [1, 3, 4, 8])
    def test_planned_programs_match_vectorized(self, p, engine, monkeypatch):
        arrays_seen = []
        call = BinOp.__call__

        def spy(self, a, b):
            if isinstance(a, (np.ndarray, np.generic)) \
                    or isinstance(b, (np.ndarray, np.generic)):
                arrays_seen.append(self.name)
            return call(self, a, b)

        params = MachineParams(p=p, ts=10.0, tw=1.0, m=4)
        rng = random.Random(1400 + p)
        cases = _planned_derived_cases(rng, p, rounds=20)
        assert len(cases) >= 200
        fused = 0
        for prog, value_gen in cases:
            xs = [value_gen(rng) for _ in range(p)]
            on_fused = engine_lower(prog, xs, params).rung == "fused"
            fused += on_fused
            vec = simulate_program(prog, xs, params, vectorize=True,
                                   engine=engine)
            with monkeypatch.context() as patch:
                patch.setattr(BinOp, "__call__", spy)
                arrays_seen.clear()
                jit = simulate_program(prog, xs, params, jit=True,
                                       engine=engine)
                if on_fused:  # the engine ran on tokens only
                    assert not arrays_seen, prog.pretty()
            _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
            assert defined_equal(jit.values, prog.run(xs)), prog.pretty()
        assert fused >= len(cases) * 2 // 3  # the rung under test was taken
        assert "schedule-mismatch" not in STATS.fallbacks
        assert "runtime-shape" not in STATS.fallbacks

    @pytest.mark.parametrize("p", [1, 3, 4, 8])
    def test_run_jit_matches_vectorized(self, p):
        rng = random.Random(1500 + p)
        for prog, value_gen in _planned_derived_cases(rng, p, rounds=2):
            xs = [value_gen(rng) for _ in range(p)]
            _assert_bitwise(run_jit(prog, xs, strict=True),
                            run_vectorized(prog, xs, strict=True))
        assert STATS.full_jit_runs >= STATS.runs * 2 // 3

    def test_exec_block_comcast_is_a_full_jit_run(self):
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=1000)
        prog = optimize(Program([BcastStage(), ScanStage(ADD)]), params,
                        rules=FULL_RULES, strategy="beam").program
        assert prog.pretty() == "comcast[repeat] (op_comp_bs[add])"
        cp = compiled_program(prog)
        assert cp.uncompiled == "" and cp.pretty().startswith("[jit ]")
        xs = _arrays(seed=40)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why, low.below.rung) == ("fused", "", "checked")
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert not STATS.fallbacks
        assert STATS.full_jit_runs == STATS.runs == 2

    def test_non_general_iter_still_raises_off_powers_of_two(self):
        prog = Program([IterStage(br_iter_op(ADD))])
        xs = _arrays(block=8, p=3, seed=41)
        with pytest.raises(ValueError):
            run_vectorized(prog, xs, strict=True)
        with pytest.raises(ValueError):
            run_jit(prog, xs, strict=True)
        # the engines compute the general form there, under every mode
        params = MachineParams(p=3, ts=10.0, tw=1.0, m=8)
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert np.array_equal(jit.values[0], xs[0] * 3)

    @pytest.mark.parametrize("stage", [
        ComcastStage(bs_comcast_op(FADD)),
        ComcastStage(bs_comcast_op(FADD), impl="doubling"),
        IterStage(br_iter_op(FADD), general=True, then_bcast=True),
    ], ids=lambda st: st.pretty())
    def test_float_blocks_keep_the_digit_order(self, stage):
        prog = Program([stage])
        p = 7
        xs = [np.array([0.1, 1e16, 1.0 / 3.0]) for _ in range(p)]
        params = MachineParams(p=p, ts=10.0, tw=1.0, m=3)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why) == ("checked", "float-blocks")
        assert STATS.full_jit_runs == 0
        for engine in ("cooperative", "threaded"):
            vec, jit = _both(prog, xs, params, engine)
            _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        reset_stats()
        _assert_bitwise(run_jit(prog, xs, strict=True),
                        run_vectorized(prog, xs, strict=True))
        # the closure declined, and the decline is filed under its reason
        assert STATS.fallbacks == {"float-blocks": 1}
        assert STATS.full_jit_runs == 0
        # the left fold of the definition rounds differently: not exact here
        fold = Program(stage.definition()).run(xs)
        assert not all(np.array_equal(f, v)
                       for f, v in zip(fold, jit.values) if f is not UNDEF)

    @pytest.mark.parametrize("engine", ["cooperative", "threaded"])
    @pytest.mark.parametrize("stage", [
        ComcastStage(bss2_comcast_op(MUL, ADD)),
        IterStage(bsr2_iter_op(MUL, ADD), then_bcast=True),
    ], ids=lambda st: st.pretty())
    def test_fault_plan_declines_with_identical_summary(self, stage, engine):
        prog = Program([stage, ScanStage(ADD), BcastStage()])
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=64)
        plan = FaultPlan(crashes=(RankCrash(rank=5, at_clock=0.0),),
                         jitter=0.5, seed=3)
        xs = _arrays(block=64, lo=0, hi=2, seed=42)
        vec, jit = _both(prog, xs, params, engine, faults=plan)
        assert jit.faults is not None and jit.faults == vec.faults
        _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        assert STATS.fallbacks == {"fault-plan": 1}
        reset_stats()
        vec, jit = _both(prog, xs, params, engine, faults=FaultPlan())
        _assert_same_run(vec, jit, ordered_events=engine == "cooperative")
        assert not STATS.fallbacks

    def test_unproven_hull_runs_checked_kernels(self):
        prog = Program([ComcastStage(bs_comcast_op(MUL))])
        xs = [np.ones(8, dtype=np.int64) for _ in range(P)]
        xs[0][5] = 2 ** 7  # root^8 = 2^56 is fine; the hull of [1, 2^7] is not
        xs[3][1] = 2 ** 40
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=8)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why) == ("checked", "bounds-unproven")
        assert STATS.full_jit_runs == 0
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert jit.values[7][5] == 2 ** 56

    def test_overflow_replays_in_object_mode(self):
        prog = Program([IterStage(br_iter_op(MUL), then_bcast=True)])
        xs = [2 ** 20] * P
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=1)
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert jit.values == (2 ** 160,) * P
        assert STATS.fallbacks["bounds-unproven"] == 1
        assert STATS.full_jit_runs == 0

    @pytest.mark.parametrize("rule,window", [
        (SR_REDUCTION, (ScanStage(ADD), ReduceStage(ADD))),
        (SR_REDUCTION, (ScanStage(ADD), AllReduceStage(ADD))),
        (SS_SCAN, (ScanStage(ADD), ScanStage(ADD))),
    ], ids=["reduce_balanced", "allreduce_balanced", "scan_balanced"])
    def test_balanced_stages_stay_uncompiled(self, rule, window):
        # their definition exists only inside the pair … π₁ sandwich
        assert rule.match(window)
        prog = Program(rule.rewrite(window))
        (balanced,) = [st for st in prog.stages if st.is_collective]
        assert balanced.definition() is None
        why = f"uncompiled:{balanced.pretty()}"
        assert compiled_program(prog).uncompiled == why
        params = MachineParams(p=P, ts=10.0, tw=1.0, m=64)
        xs = _arrays(block=64, seed=43)
        low = engine_lower(prog, xs, params)
        assert (low.rung, low.why) == ("checked", why)
        vec, jit = _both(prog, xs, params)
        _assert_same_run(vec, jit)
        assert STATS.full_jit_runs == 0

    @pytest.mark.parametrize("stage", [
        ComcastStage(bs_comcast_op(MUL)),
        ComcastStage(bss2_comcast_op(MUL, ADD), impl="doubling"),
        ComcastStage(bss_comcast_op(ADD)),
        IterStage(br_iter_op(MUL)),
        IterStage(bsr2_iter_op(MUL, ADD), general=True),
        IterStage(bsr_iter_op(ADD), then_bcast=True),
    ], ids=lambda st: st.pretty())
    def test_bounds_are_the_definitions(self, stage):
        around = ([MapStage(_dbl, label="dbl")], [ScanStage(ADD)])
        derived = [*around[0], stage, *around[1]]
        spliced = [*around[0], *stage.definition(), *around[1]]
        verdicts = set()
        for p in (1, 2, 5, 8):
            for hi in (1, 3, 40, 2 ** 6, 2 ** 10, 2 ** 20, 2 ** 61):
                for lo in (-hi, 0, hi):
                    got = analyze_stages(derived, (lo, hi), p)
                    assert got == analyze_stages(spliced, (lo, hi), p)
                    verdicts.add(got)
        assert verdicts == {True, False}  # the sweep crosses the boundary


class TestDirectWriteScan:
    """A scan without a post map combines straight into its output rows."""

    @pytest.mark.parametrize("block", [None, 0, 7, 5000])
    def test_one_slot_and_sr2_tapes(self, block):
        rng = np.random.default_rng(30)
        shape = () if block is None else (block,)
        xs = [rng.integers(-3, 4, shape).astype(np.int64) for _ in range(5)]
        originals = [a.copy() for a in xs]

        # 1-slot tape: against NumPy's own running fold
        out = compiled_program(Program([ScanStage(ADD)])).run(list(xs))
        want = np.add.accumulate(np.stack(originals), axis=0)
        for row, w in zip(out, want):
            assert np.array_equal(row, w) and row.dtype == np.int64

        # SR2 2-slot tape: slot 0 against the scratch path, which the
        # pi_1 post map still takes, and both against the checked kernels
        op = sr2_op(MUL, ADD)
        direct_prog = Program([pair_stage("t"), ScanStage(op)])
        scratch_prog = Program([pair_stage("t"), ScanStage(op),
                                projection_stage("t")])
        direct = compiled_program(direct_prog).run(list(xs))
        scratch = compiled_program(scratch_prog).run(list(xs))
        checked = run_vectorized(direct_prog, list(xs), strict=True)
        for d, s, c in zip(direct, scratch, checked):
            assert np.array_equal(d[0], s)
            assert np.array_equal(d[0], c[0]) and np.array_equal(d[1], c[1])
        assert STATS.kernelized_steps == 0

        for a, o in zip(xs, originals):
            assert np.array_equal(a, o)  # inputs not mutated
        rows = list(out) + [c for d in direct for c in d]
        for i, a in enumerate(rows):  # no row aliases an input or a row
            assert not any(np.shares_memory(a, b)
                           for b in xs + rows[:i] if a.size)


class TestOracleAndChaos:
    def test_seventh_backend_agrees_with_functional(self):
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        gp = GeneratedProgram(program=prog, domain="int", functions={},
                              note="jit oracle")
        xs = [2, 3, 1, 2]
        out = run_backend("jit", gp, xs, PARAMS)
        assert out is not SKIPPED
        assert defined_equal(prog.run(list(xs)), out)

    def test_backend_skips_unsupported_domains(self):
        prog = Program([ScanStage(CONCAT)])
        gp = GeneratedProgram(program=prog, domain="list", functions={},
                              note="jit skip")
        out = run_backend("jit", gp, [(1,), (2,)], PARAMS)
        assert out is SKIPPED

    def test_differential_check_with_all_backends(self):
        prog = _sr2_program(block=1, p=4)
        gp = GeneratedProgram(program=prog, domain="int", functions={},
                              note="jit differential")
        mismatch = differential_check(gp, [2, 3, 1, 2],
                                      MachineParams(p=4, ts=10.0, tw=1.0,
                                                    m=1))
        assert mismatch is None

    def test_chaos_with_jit_engine(self):
        report = run_chaos(seed=11, iters=4, plans_per_case=2,
                           engines=("cooperative", "jit"))
        assert report.ok, report.describe()


class TestCaches:
    def test_compile_cache_hit_on_second_run(self):
        prog = _sr2_program()
        xs = _arrays(seed=12)
        run_jit(prog, [a.copy() for a in xs], strict=True)
        compiles = STATS.compiles
        run_jit(prog, [a.copy() for a in xs], strict=True)
        assert STATS.compiles == compiles  # served from cache
        assert STATS.cache_hits >= 1

    def test_the_bounds_verdict_is_proven_once_per_hull(self, monkeypatch):
        from repro.jit import compiler

        calls = []

        def counting(steps, iv, p):
            calls.append((iv, p))
            return prove(steps, iv, p)

        prove = compiler.prove
        monkeypatch.setattr(compiler, "prove", counting)
        cp = compiled_program(Program([ScanStage(MUL)]))
        for _ in range(3):
            assert cp.proven_safe(("int", (1, 3)), P) == (True, "")
            assert cp.proven_safe(("int", (1, 2 ** 40)), P) == (
                False, "bounds-unproven")
        assert calls == [((1, 3), P), ((1, 2 ** 40), P)]
        assert cp.proven_safe(("int", (1, 3)), 2 * P) == (True, "")
        assert len(calls) == 3  # the verdict depends on p too

    def test_params_change_is_a_cache_miss(self):
        prog = _sr2_program()
        xs = _arrays(seed=13)
        run_jit(prog, [a.copy() for a in xs], strict=True)
        run_jit(prog, [a.copy() for a in xs], strict=True,
                params=MachineParams(p=P, ts=99.0, tw=3.0, m=512))
        assert STATS.compiles == 2
        assert STATS.cache_misses == 2

    def test_registry_change_invalidates_cache(self):
        prog = Program([ScanStage(ADD)])
        compiled_program(prog)
        assert STATS.compiles == 1
        version = registry_version()
        register_binop_kernel("add", primitive("add"))  # same row, new version
        assert registry_version() == version + 1
        compiled_program(prog)
        assert STATS.compiles == 2  # stale entry not served

    def test_registration_replaces_the_whole_row(self):
        """A kernel registered under a built-in name re-points every tier:
        the name has no raw form and no proof until a full row states
        them, so the JIT declines it — by name — rather than running
        ``np.add`` under a name that no longer means addition.  (Before
        the rows were one table, ``run_jit`` answered ``[12, 15]`` here
        where ``run_vectorized`` answered ``[10, 10]``.)"""
        add_row, ((_, inc_row),) = primitive("add"), map_rows("inc")

        def saturating(a, b):
            return np.minimum(a + b, 10)

        def inc2(x):
            return x + 2

        xs = [np.array([4, 5], dtype=np.int64) for _ in range(3)]
        params = MachineParams(p=3, ts=10.0, tw=1.0, m=2)
        plain = Program([MapStage(_inc, label="inc"), ScanStage(ADD)])
        cases = [
            (lambda: register_binop_kernel("add", saturating),
             lambda: register_binop_kernel("add", add_row),
             Program([ScanStage(BinOp("add", saturating, commutative=True))]),
             "no-raw:add", [[4, 5], [8, 10], [10, 10]]),
            (lambda: register_map_kernel("inc", inc2),
             lambda: register_map_kernel("inc", inc_row),
             Program([MapStage(inc2, label="inc"), ScanStage(ADD)]),
             "no-tape:inc", [[6, 7], [12, 14], [18, 21]]),
        ]
        for register, restore, prog, why, want in cases:
            register()
            try:
                assert [v.tolist() for v in prog.run(list(xs))] == want
                for got in (run_vectorized(prog, list(xs), strict=True),
                            run_jit(prog, list(xs), strict=True),
                            simulate_program(prog, list(xs), params,
                                             jit=True).values):
                    _assert_bitwise(prog.run(list(xs)), got)
                reset_stats()
                low = engine_lower(prog, list(xs), params)
                assert (low.rung, low.why) == ("checked", why)
                assert dict(STATS.fallbacks) == {why: 1}
            finally:
                restore()
            # the original row back under the name: every reading returns
            assert engine_lower(plain, list(xs), params).rung == "fused"
            assert STATS.fallbacks == {why: 1}
        # ``inc`` is add∘1 on its tape and keeps a checked kernel of its
        # own: with ``add`` re-pointed it declines rather than follow
        only_inc = Program([MapStage(_inc, label="inc")])
        register_binop_kernel("add", saturating)
        try:
            for got in (run_vectorized(only_inc, list(xs), strict=True),
                        run_jit(only_inc, list(xs), strict=True)):
                _assert_bitwise(only_inc.run(list(xs)), got)
            low = engine_lower(only_inc, list(xs), params)
            assert (low.rung, low.why) == ("checked", "no-interval:add")
        finally:
            register_binop_kernel("add", add_row)

    def test_clear_planner_caches_resets_jit_cache(self):
        # satellite regression: the JIT compile cache participates in
        # clear_planner_caches(), so a planner-level reset can never
        # leave a stale compiled kernel behind
        prog = _sr2_program()
        compiled_program(prog)
        assert STATS.compiles == 1
        clear_planner_caches()
        compiled_program(prog)
        assert STATS.compiles == 2
        assert STATS.cache_hits == 0

    def test_unsupported_raises_kernel_unsupported(self):
        # callers catching KernelUnsupported (every skip site) also catch
        # the jit-specific JitUnsupported — one exception vocabulary
        prog = Program([ScanStage(CONCAT)])
        with pytest.raises(KernelUnsupported):
            compiled_program(prog)
        assert issubclass(JitUnsupported, KernelUnsupported)


class TestStatsAndCli:
    def test_stats_describe_and_reset(self):
        prog = _sr2_program()
        run_jit(prog, _arrays(seed=14), strict=True)
        text = STATS.describe()
        assert "compiles" in text and "fused stages" in text
        for line in ("pool hits", "pool misses", "pool idle bytes"):
            assert line in text
        snap = STATS.snapshot()
        assert snap["runs"] == 1
        reset_stats()
        assert STATS.runs == 0

    def test_cli_jit_stats_on_file(self, capsys, tmp_path):
        f = tmp_path / "prog.mpi"
        f.write_text("Program P (x);\n"
                     "MPI_Scan (x, y, mul);\n"
                     "MPI_Reduce (y, z, add);\n")
        code = cli_main(["jit", "stats", str(f), "--p", "4", "--m", "1024"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[jit ]" in out
        assert "full jit runs" in out

    def test_cli_jit_stats_shows_the_program_as_written_and_as_planned(
            self, capsys, tmp_path):
        f = tmp_path / "prog.mpi"
        f.write_text("Program P (x);\nMPI_Bcast (x);\nMPI_Scan (x, y, add);\n")
        code = cli_main(["jit", "stats", str(f), "--p", "8", "--m", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "as written: bcast ; scan (add)" in out
        assert ("as planned (FULL_RULES, beam): "
                "comcast[repeat] (op_comp_bs[add])") in out
        assert out.count("engine rung under jit=True: fused") == 2
        # a decline names its reason: the balanced scan has no closure
        f.write_text("Program P (x);\nMPI_Scan (x, y, add);\n"
                     "MPI_Scan (y, z, add);\n")
        code = cli_main(["jit", "stats", str(f), "--p", "8", "--m", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scan_balanced" in out
        assert ("engine rung under jit=True: checked (declined the fused "
                "rung: uncompiled:scan_balanced (op_ss[add]))") in out

    def test_cli_jit_clear(self, capsys):
        code = cli_main(["jit", "clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cleared" in out

    def test_cli_conformance_accepts_jit_engine(self, capsys):
        code = cli_main(["conformance", "--chaos", "--seed", "2",
                         "--iters", "2", "--engine", "jit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all chaos checks passed" in out

    def test_cli_bench_summary(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_demo.json").write_text(json.dumps(
            {"series": [{"backend": "jit", "median_s": 0.1}],
             "speedup": 2.5}))
        outdir = tmp_path / "out"
        outdir.mkdir()
        code = cli_main(["bench", "summary", "--results", str(results),
                         "--out", str(outdir)])
        out = capsys.readouterr().out
        assert code == 0
        copied = json.loads((outdir / "BENCH_demo.json").read_text())
        assert "host" in copied  # stamped during aggregation
        assert "BENCH_demo.json" in out

    def test_numba_flag_is_inert_without_numba(self, monkeypatch):
        # the numba path is gone; the variable is simply unread
        monkeypatch.setenv("REPRO_JIT_NUMBA", "1")
        prog = Program([ReduceStage(ADD)])
        xs = _arrays(seed=15)
        jit = run_jit(prog, [a.copy() for a in xs], strict=True)
        vec = run_vectorized(prog, [a.copy() for a in xs], strict=True)
        _assert_bitwise(vec, jit)
