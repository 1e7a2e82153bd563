"""Vectorized block-kernel layer: exactness, fallback, fusion, engines.

The contract under test (``docs/PERFORMANCE.md``): ``run_vectorized``
produces results identical to object mode — kernels where possible,
exact fallback everywhere else — and the kernelized programs behave the
same through the reference evaluator, the machine engines, and the
conformance oracle.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.core.cost import MachineParams
from repro.core.derived_ops import sr2_op
from repro.core import search as search_mod
from repro.core.operators import (
    ADD,
    AND,
    CONCAT,
    DISTRIBUTIVE_PAIRS,
    MAX,
    MIN,
    MUL,
    OR,
    XOR,
    BinOp,
    declare_distributes,
)
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.rewrite import fuse_local_stages
from repro.core.segmented import segmented_op
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.core.store import clear_caches
from repro.kernels import (
    KernelOverflow,
    KernelUnsupported,
    MAX_SAFE_INT,
    PackedBlock,
    binop_kernel,
    build_plan,
    checked_add,
    checked_mul,
    devectorize_block,
    elementwise,
    has_binop_kernel,
    kernelize_binop,
    pack_block,
    run_vectorized,
    unpack_block,
    vectorize_block,
    vectorize_program,
)
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, dbl, defined_equal, inc

INT_XS = [3, -1, 2, 0, 1, -2, 3, 1]



# ---------------------------------------------------------------------------
# Registry resolution
# ---------------------------------------------------------------------------


class TestRegistry:
    @pytest.mark.parametrize("op", [ADD, MUL, MAX, MIN, AND, OR, XOR])
    def test_base_operators_have_kernels(self, op):
        assert has_binop_kernel(op)

    def test_concat_has_no_kernel(self):
        assert not has_binop_kernel(CONCAT)
        with pytest.raises(KernelUnsupported):
            kernelize_binop(CONCAT)

    def test_structural_resolution(self):
        assert has_binop_kernel(sr2_op(MUL, ADD))
        assert has_binop_kernel(segmented_op(ADD))
        assert has_binop_kernel(elementwise(MUL))
        assert not has_binop_kernel(sr2_op(CONCAT, ADD))
        assert not has_binop_kernel(segmented_op(CONCAT))

    def test_kernelized_op_is_dropin_on_objects(self):
        k = kernelize_binop(ADD)
        assert k.name == "add"
        assert k(2, 3) == 5                      # object path: original fn
        assert k(np.int64(2), np.int64(3)) == 5  # kernel path

    @pytest.mark.parametrize("op", [ADD, MUL, MAX, MIN, AND, OR, XOR])
    @pytest.mark.parametrize("a", [True, False, 0, 1, -2, 3])
    @pytest.mark.parametrize("b", [True, False, 0, 1, -2, 3])
    def test_kernels_match_python_semantics(self, op, a, b):
        kernel = binop_kernel(op)
        got = devectorize_block(kernel(vectorize_block(a), vectorize_block(b)))
        assert defined_equal([got], [op(a, b)])


def test_a_same_named_operator_gets_no_kernel():
    """``mymul`` is max under the name ``mul``: every backend must compute
    max (4), where the kernelized ones compute the product (24)."""
    from repro.jit import run_jit

    mymul = BinOp("mul", max, associative=True, commutative=True)
    prog = Program([AllReduceStage(mymul)])
    params = MachineParams(p=4, ts=10.0, tw=1.0, m=1)
    xs = [1, 2, 3, 4]
    want = [4] * 4
    assert prog.run(list(xs)) == want
    assert list(simulate_program(prog, xs, params).values) == want
    for backend in ({"jit": True}, {"jit": True, "engine": "threaded"}):
        assert list(simulate_program(prog, xs, params, **backend).values) == want
    assert list(run_vectorized(prog, list(xs))) == want
    assert list(run_jit(prog, list(xs))) == want


def test_a_same_labelled_map_gets_no_kernel():
    """A square labelled ``dbl``: every backend must square (16 on the
    last rank), where the kernelized ones double (8)."""
    from repro.jit import run_jit

    prog = Program([MapStage(lambda x: x * x, label="dbl")])
    params = MachineParams(p=4, ts=10.0, tw=1.0, m=1)
    xs = [1, 2, 3, 4]
    want = [1, 4, 9, 16]
    assert prog.run(list(xs)) == want
    for backend in ({"jit": True}, {"jit": True, "engine": "threaded"}):
        assert list(simulate_program(prog, xs, params, **backend).values) == want
    assert list(run_vectorized(prog, list(xs))) == want
    assert list(run_jit(prog, list(xs))) == want


# ---------------------------------------------------------------------------
# Block conversion edge cases
# ---------------------------------------------------------------------------


class TestBlocks:
    def test_undef_roundtrip(self):
        assert vectorize_block(UNDEF) is UNDEF
        assert devectorize_block(UNDEF) is UNDEF

    def test_scalar_roundtrip_is_exact(self):
        for v in (0, -5, True, 2.5, MAX_SAFE_INT):
            out = devectorize_block(vectorize_block(v))
            assert out == v and type(out) is type(v)

    def test_huge_int_rejected(self):
        with pytest.raises(KernelUnsupported):
            vectorize_block(MAX_SAFE_INT + 1)

    def test_sequences_rejected(self):
        # lists/tuples have *sequence* semantics in object mode
        # (add concatenates); lowering them would change the meaning
        for bad in ([1, 2], (1, 2), "xy"):
            with pytest.raises(KernelUnsupported):
                vectorize_block(bad)

    def test_object_dtype_rejected(self):
        with pytest.raises(KernelUnsupported):
            vectorize_block(np.asarray([2 ** 70, 1], dtype=object))

    def test_empty_block(self):
        empty = np.asarray([], dtype=np.int64)
        out = run_vectorized(Program([ScanStage(ADD)]),
                             [empty, empty.copy()], strict=True)
        assert all(isinstance(v, np.ndarray) and v.size == 0 for v in out)

    def test_checked_arithmetic_raises_instead_of_wrapping(self):
        big = np.asarray([2 ** 62], dtype=np.int64)
        with pytest.raises(KernelOverflow):
            checked_add(big, big)
        with pytest.raises(KernelOverflow):
            checked_mul(big, big)
        # in-range stays exact
        assert checked_add(big, -big).item() == 0


# ---------------------------------------------------------------------------
# Evaluator: parity, fallback, p=1, UNDEF
# ---------------------------------------------------------------------------


class TestRunVectorized:
    @pytest.mark.parametrize("stages", [
        [ScanStage(MUL), ReduceStage(ADD)],
        [MapStage(inc, label="inc"), ScanStage(ADD)],
        [ScanStage(MAX), MapStage(dbl, label="dbl"), ReduceStage(MIN)],
        [ReduceStage(ADD), BcastStage()],
    ])
    def test_matches_object_mode(self, stages):
        prog = Program(stages)
        assert defined_equal(run_vectorized(prog, INT_XS, strict=True),
                             prog.run(list(INT_XS)))

    def test_single_processor(self):
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        assert run_vectorized(prog, [5], strict=True) == prog.run([5])

    def test_undef_blocks_survive(self):
        # reduce leaves non-root blocks UNDEF; the following map must
        # propagate them through the vectorized path too
        prog = Program([ReduceStage(ADD), MapStage(inc, label="inc"),
                        MapStage(dbl, label="dbl")])
        got = run_vectorized(prog, INT_XS, strict=True)
        assert defined_equal(got, prog.run(list(INT_XS)))
        assert got[0] == (sum(INT_XS) + 1) * 2
        assert all(v is UNDEF for v in got[1:])

    def test_dtype_promotion_overflow_falls_back_to_objects(self):
        # 2^40 * ... overflows int64; object mode promotes to bigints and
        # the vectorized run must return those exact bigints
        prog = Program([ScanStage(MUL)])
        xs = [2 ** 40] * 4
        want = prog.run(list(xs))
        got = run_vectorized(prog, xs, strict=True)  # dynamic: replays
        assert got == want
        assert got[-1] == 2 ** 160

    def test_unsupported_domain_falls_back(self):
        prog = Program([ScanStage(CONCAT)])
        xs = [(1,), (2,), (3,)]
        assert run_vectorized(prog, xs) == prog.run(list(xs))
        with pytest.raises(KernelUnsupported):
            run_vectorized(prog, xs, strict=True)

    def test_optimized_pipeline_parity_on_arrays(self):
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=16)
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        opt = optimize(prog, params).program
        rng = np.random.default_rng(7)
        xs = [rng.integers(-3, 4, 16).astype(np.int64) for _ in range(8)]
        obj = opt.run([x.copy() for x in xs])
        vec = run_vectorized(opt, [x.copy() for x in xs], strict=True)
        assert np.array_equal(obj[0], vec[0])
        assert all(v is UNDEF for v in vec[1:])


# ---------------------------------------------------------------------------
# Fusion and plan structure
# ---------------------------------------------------------------------------


class TestFusionAndPlan:
    def test_fused_origin_names_source_rule(self):
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=16)
        opt = optimize(Program([ScanStage(MUL), ReduceStage(ADD),
                                MapStage(inc, label="inc")]), params).program
        fused = fuse_local_stages(opt)
        pi1_fused = [s for s in fused.stages
                     if not s.is_collective and "pi_1" in s.label]
        assert pi1_fused, fused.pretty()
        assert "SR2-Reduction" in pi1_fused[0].origin

    def test_plain_maps_fuse_under_generic_origin(self):
        prog = Program([MapStage(inc, label="inc"),
                        MapStage(dbl, label="dbl")])
        fused = fuse_local_stages(prog)
        assert len(fused.stages) == 1
        assert fused.stages[0].origin == "local-fusion"
        assert fused.stages[0].label == "inc;dbl"

    def test_plan_groups_rule_sandwich(self):
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=16)
        opt = optimize(Program([ScanStage(MUL), ReduceStage(ADD)]),
                       params).program
        plan = build_plan(opt)
        fused_steps = [s for s in plan.steps if s.kind == "fused-collective"]
        assert len(fused_steps) == 1
        assert fused_steps[0].origin == "SR2-Reduction"
        assert len(fused_steps[0].stages) == 3  # pair ; collective ; pi_1

    def test_vectorized_program_still_runs_objects(self):
        # kernelized stages dispatch: plain Python blocks take the
        # original functions, so the lowered program is a drop-in
        prog = Program([MapStage(inc, label="inc"), ScanStage(ADD)])
        assert vectorize_program(prog).run(list(INT_XS)) == \
            prog.run(list(INT_XS))

    def test_unknown_map_label_unsupported(self):
        prog = Program([MapStage(lambda x: x * 3, label="tripled")])
        with pytest.raises(KernelUnsupported):
            vectorize_program(prog)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


class TestEngines:
    def _opt(self):
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
        return optimize(Program([ScanStage(MUL), ReduceStage(ADD)]),
                        params).program, params

    def test_machine_engine_vectorized_parity(self):
        prog, params = self._opt()
        base = simulate_program(prog, INT_XS, params)
        vec = simulate_program(prog, INT_XS, params, jit=True)
        assert defined_equal(vec.values, base.values)
        assert vec.time == base.time  # same abstract cost charged

    def test_threaded_engine_vectorized_parity(self):
        prog, params = self._opt()
        base = simulate_program(prog, INT_XS, params, engine="threaded")
        vec = simulate_program(prog, INT_XS, params, jit=True,
                               engine="threaded")
        assert defined_equal(vec.values, base.values)
        assert vec.time == base.time

    def test_engine_fallback_on_unsupported(self):
        prog = Program([ScanStage(CONCAT)])
        xs = [(1,), (2,), (3,), (4,)]
        params = MachineParams(p=4, ts=1.0, tw=1.0, m=1)
        base = simulate_program(prog, xs, params)
        vec = simulate_program(prog, xs, params, jit=True)
        assert vec.values == base.values

    def test_pack_roundtrip(self):
        payload = (np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64))
        packed = pack_block(payload)
        assert isinstance(packed, PackedBlock)
        assert packed.components == 2
        out = unpack_block(packed)
        assert all(np.array_equal(a, b) for a, b in zip(out, payload))

    @pytest.mark.parametrize("payload", [
        3, (1, 2), (np.arange(3),), UNDEF, [np.arange(3), np.arange(3)],
        (np.arange(3), np.arange(4)),                        # shape mismatch
        (np.arange(3), np.arange(3, dtype=np.float64)),      # dtype mismatch
        (np.arange(3), UNDEF),                               # partial state
    ])
    def test_pack_leaves_non_uniform_payloads_alone(self, payload):
        assert pack_block(payload) is None


# ---------------------------------------------------------------------------
# Oracle backend
# ---------------------------------------------------------------------------


class TestOracleBackend:
    def test_vectorized_backend_registered(self):
        from repro.testing.oracle import BACKENDS

        assert "vectorized" in BACKENDS

    def test_differential_agreement(self):
        from repro.testing.generator import INT_DOMAIN
        from repro.testing.generator import GeneratedProgram
        from repro.testing.oracle import differential_check

        gp = GeneratedProgram(
            program=Program([ScanStage(MUL), ReduceStage(ADD)]),
            domain=INT_DOMAIN,
        )
        params = MachineParams(p=4, ts=1.0, tw=1.0, m=1)
        assert differential_check(gp, [1, -2, 3, 2], params) is None

    def test_list_domain_skipped(self):
        from repro.testing.generator import LIST_DOMAIN, GeneratedProgram
        from repro.testing.oracle import SKIPPED, run_backend

        gp = GeneratedProgram(program=Program([ScanStage(CONCAT)]),
                              domain=LIST_DOMAIN)
        params = MachineParams(p=3, ts=1.0, tw=1.0, m=1)
        out = run_backend("vectorized", gp, [(1,), (2,), (3,)], params)
        assert out is SKIPPED

    def test_conformance_smoke_with_vectorized(self):
        from repro.testing.conformance import run_conformance

        report = run_conformance(seed=5, iters=10)
        assert not report.failures, report.failures


# ---------------------------------------------------------------------------
# Optimizer shape table (the candidate rules of a window's stage classes)
# ---------------------------------------------------------------------------


class TestMatchCache:
    def test_repeated_optimization_hits_cache(self):
        from repro.core import search as search_mod

        shapes = search_mod._SHAPES
        clear_caches()
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=16)
        first = optimize(prog, params)
        populated = len(shapes)
        assert 0 < populated <= shapes.bound
        # a window's candidate rules do not depend on the machine: a second
        # run over the same rewrite graph at other parameters adds no new
        # entries
        second = optimize(prog, MachineParams(p=16, ts=5.0, tw=2.0, m=8))
        assert len(shapes) == populated
        assert first.program.pretty() == second.program.pretty()
        # ... and neither does another program made of the same windows
        optimize(Program([ScanStage(MUL), ReduceStage(ADD),
                          ScanStage(MUL), ReduceStage(ADD)]), params,
                 strategy="greedy")
        assert len(shapes) > populated  # the seam is new,
        seam = len(shapes)
        optimize(Program([ScanStage(MUL), ReduceStage(ADD)] * 3), params,
                 strategy="greedy")
        assert len(shapes) == seam      # a third copy is not
        clear_caches()
        assert not any(map(len, (shapes, search_mod._REWRITES,
                                 search_mod._KEY_PARTS)))

    @pytest.mark.parametrize("commutative_first", [True, False])
    def test_same_named_operators_of_another_algebra_stay_apart(
            self, commutative_first):
        """A match is decided on the window itself, not on a key that
        prints alike: an ``add`` declared non-commutative prints like ADD
        but never takes ADD's rewrites, whichever of the two is planned
        first."""
        nc = BinOp("add", operator.add, associative=True, commutative=False)
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=1)
        clear_caches()
        plans = {}
        for op in (ADD, nc) if commutative_first else (nc, ADD):
            result = optimize(Program([ScanStage(op), ScanStage(op)]),
                              params, FULL_RULES, strategy="exhaustive")
            plans[op.commutative] = (result.cost_after, [
                step.rule.name for step in result.derivation.steps])
        assert plans == {True: (1842.0, ["SS-Scan"]), False: (3624.0, [])}
        clear_caches()

    def test_a_late_distributivity_declaration_is_seen(self):
        """``distributes_over`` reads the registry of operator pairs at
        every match: a pair declared after a search saw its window is
        seen by the next one, though the window's shape stays in the
        shape table."""
        otimes = BinOp("late_times", operator.mul, commutative=True)
        oplus = BinOp("late_plus", operator.add, commutative=True)
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=1)
        clear_caches()

        def rules_fired():
            result = optimize(Program([ScanStage(otimes), ScanStage(oplus)]),
                              params, FULL_RULES, strategy="exhaustive")
            return [step.rule.name for step in result.derivation.steps]

        assert rules_fired() == []
        assert len(search_mod._SHAPES) > 0
        declare_distributes(otimes, oplus)
        try:
            assert rules_fired() == ["SS2-Scan"]
        finally:
            DISTRIBUTIVE_PAIRS.discard((otimes, oplus))
            clear_caches()

    def test_cached_matches_independent_of_machine(self):
        # matches must not depend on p: optimize at several machine sizes
        # and check the derivations stay individually correct
        clear_caches()
        prog = Program([ScanStage(MUL), ReduceStage(ADD)])
        for p in (2, 3, 8):
            params = MachineParams(p=p, ts=10.0, tw=1.0, m=16)
            result = optimize(prog, params)
            xs = list(range(1, p + 1))
            assert defined_equal(result.program.run(xs), prog.run(xs))
