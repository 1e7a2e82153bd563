"""Optimizer tests: strategies, machine-directed choices, semantics
preservation, and the paper's Figure-3 optimization of program Example."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import build_composed_pipeline, build_example
from repro.core.cost import (
    HIGH_LATENCY,
    LOW_LATENCY,
    MachineParams,
    PARSYTEC_LIKE,
    program_cost,
)
from repro.core.operators import ADD, MUL, BinOp
from repro.core.optimizer import exhaustive_optimize, greedy_optimize, optimize
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
from repro.semantics.functional import defined_equal, inc


class TestBasicOptimization:
    def test_example_program_figure_3(self):
        """scan;reduce in Example fuses via SR2-Reduction (Figure 3)."""
        prog = build_example()
        res = optimize(prog, PARSYTEC_LIKE)
        assert "SR2-Reduction" in res.derivation.rules_used
        assert res.cost_after < res.cost_before
        assert res.speedup > 1.0

    def test_optimized_program_semantically_equal(self):
        prog = build_example()
        res = optimize(prog, PARSYTEC_LIKE)
        xs = [1, 2, 3, 4, 5, 6, 7, 8]
        assert defined_equal(prog.run(xs), res.program.run(xs))

    def test_no_matches_returns_input(self):
        prog = Program([MapStage(inc, label="inc")])
        res = optimize(prog, PARSYTEC_LIKE)
        assert res.program.stages == prog.stages
        assert res.cost_before == res.cost_after

    def test_report_mentions_rules_and_costs(self):
        res = optimize(build_example(), PARSYTEC_LIKE)
        text = res.report()
        assert "SR2-Reduction" in text
        assert "speedup" in text

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            optimize(build_example(), PARSYTEC_LIKE, strategy="quantum")


class TestMachineDirectedChoice:
    """Rules with conditions fire only where Table 1 says they pay off."""

    def test_ss2_applied_on_high_latency_only(self):
        prog = Program([ScanStage(MUL), ScanStage(ADD)])
        high = optimize(prog, HIGH_LATENCY.with_(m=64))  # ts >> 2m
        low = optimize(prog, LOW_LATENCY)                # ts << 2m
        assert "SS2-Scan" in high.derivation.rules_used
        assert "SS2-Scan" not in low.derivation.rules_used
        assert low.program.stages == prog.stages

    def test_sr_applied_on_high_latency_only(self):
        prog = Program([ScanStage(ADD), ReduceStage(ADD)])
        high = optimize(prog, HIGH_LATENCY.with_(m=64))
        low = optimize(prog, LOW_LATENCY.with_(ts=0.5, m=1024))
        assert "SR-Reduction" in high.derivation.rules_used
        assert "SR-Reduction" not in low.derivation.rules_used

    def test_bs_comcast_always_applied(self):
        prog = Program([BcastStage(), ScanStage(ADD)])
        for params in (PARSYTEC_LIKE, LOW_LATENCY, HIGH_LATENCY):
            res = optimize(prog, params)
            assert "BS-Comcast" in res.derivation.rules_used


class TestTripleFusions:
    def test_bss_fusion_choice_depends_on_machine(self):
        prog = Program([BcastStage(), ScanStage(ADD), ScanStage(ADD)])
        # Full BSS fusion beats comcast+scan iff tw + ts/m > 4.
        high = optimize(prog, HIGH_LATENCY)  # tw = 10: fuse everything
        assert [type(s) for s in high.program.stages] == [ComcastStage]
        assert "BSS-Comcast" in high.derivation.rules_used
        # On the Parsytec-like machine (tw + ts/m ≈ 2.6) the cheaper plan is
        # BS-Comcast on the first two stages, keeping the second scan.
        mid = optimize(prog, PARSYTEC_LIKE)
        assert [type(s) for s in mid.program.stages] == [ComcastStage, ScanStage]
        assert mid.cost_after < program_cost(prog, PARSYTEC_LIKE)

    def test_local_rule_wins_at_tail(self):
        prog = Program([BcastStage(), ScanStage(MUL), ReduceStage(ADD)])
        res = optimize(prog, PARSYTEC_LIKE)
        assert any(isinstance(s, IterStage) for s in res.program.stages)
        assert res.program.collective_count() == 0

    def test_exhaustive_finds_chained_rewrites(self):
        # bcast;allreduce -> iter;bcast (CR-Alllocal); exhaustive search
        # must also consider rewrites *enabled* by earlier steps.
        prog = Program([BcastStage(), AllReduceStage(ADD), ScanStage(ADD)])
        res = exhaustive_optimize(prog, PARSYTEC_LIKE)
        xs = [3, 1, 4, 1, 5, 9, 2, 6]
        assert defined_equal(prog.run(xs), res.program.run(xs))
        assert res.cost_after <= program_cost(prog, PARSYTEC_LIKE)


class TestStrategies:
    def test_greedy_never_worse_than_input(self):
        prog = build_composed_pipeline()
        res = greedy_optimize(prog, PARSYTEC_LIKE)
        assert res.cost_after <= res.cost_before

    def test_exhaustive_at_least_as_good_as_greedy(self):
        prog = build_composed_pipeline()
        g = greedy_optimize(prog, PARSYTEC_LIKE)
        e = exhaustive_optimize(prog, PARSYTEC_LIKE)
        assert e.cost_after <= g.cost_after + 1e-9

    def test_explored_counts_reported(self):
        res = exhaustive_optimize(build_example(), PARSYTEC_LIKE)
        assert res.programs_explored >= 2


class TestLossyGating:
    def test_lossy_rule_not_applied_midstream_by_default(self):
        prog = Program([BcastStage(), ReduceStage(ADD), ScanStage(ADD)])
        res = optimize(prog, PARSYTEC_LIKE)
        # BR-Local would destroy non-root blocks read by the scan
        assert not any(isinstance(s, IterStage) for s in res.program.stages)

    def test_lossy_rule_applied_with_allow_lossy(self):
        prog = Program([BcastStage(), ReduceStage(ADD), ScanStage(ADD)])
        res = optimize(prog, PARSYTEC_LIKE, allow_lossy=True)
        assert any(isinstance(s, IterStage) for s in res.program.stages)


class TestCrossProgramComposition:
    def test_composition_exposes_bs_comcast_seam(self):
        """Example ; Next_Example creates the bcast;scan fusion point
        of the paper's Figure 1."""
        pipeline = build_composed_pipeline()
        res = optimize(pipeline, PARSYTEC_LIKE)
        assert "BS-Comcast" in res.derivation.rules_used

    def test_composition_semantics_preserved(self):
        pipeline = build_composed_pipeline()
        res = optimize(pipeline, PARSYTEC_LIKE)
        xs = [2, 7, 1, 8, 2, 8, 1, 8]
        assert defined_equal(pipeline.run(xs), res.program.run(xs))


_PARAM_STRATEGY = dict(
    ts=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
    tw=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    m=st.integers(1, 4096),
    p=st.sampled_from([2, 4, 8, 16, 32, 64]),
)


class TestOptimizerProperties:
    @given(**_PARAM_STRATEGY)
    @settings(max_examples=60, deadline=None)
    def test_never_increases_model_cost(self, ts, tw, m, p):
        params = MachineParams(p=p, ts=ts, tw=tw, m=m)
        prog = build_example()
        res = optimize(prog, params)
        assert res.cost_after <= res.cost_before + 1e-9

    @given(**_PARAM_STRATEGY)
    @settings(max_examples=60, deadline=None)
    def test_preserves_semantics_at_any_parameters(self, ts, tw, m, p):
        params = MachineParams(p=p, ts=ts, tw=tw, m=m)
        prog = Program([BcastStage(), ScanStage(ADD), ScanStage(ADD)])
        res = optimize(prog, params)
        xs = [5] * p
        assert defined_equal(prog.run(xs), res.program.run(xs))


#: max under MUL's and ADD's names: never declared to distribute over
#: anything, and not the operator whose name it prints
_MAX_AS_MUL = BinOp("mul", max, associative=True, commutative=True)
_MAX_AS_ADD = BinOp("add", max, associative=True, commutative=True)


@pytest.mark.parametrize("rule,stages", [
    ("SR2-Reduction", (ScanStage(_MAX_AS_MUL), AllReduceStage(ADD))),
    ("SR-Reduction", (ScanStage(ADD), AllReduceStage(_MAX_AS_ADD))),
    ("SS-Scan", (ScanStage(_MAX_AS_ADD), ScanStage(ADD))),
], ids=["distributive", "same-reduction", "same-scan"])
def test_a_same_named_operator_inherits_no_distributivity(rule, stages):
    """A law is a fact about the operator, not its name: max printed as
    ``mul`` inherits no distributivity over ADD (the SR2 plan computes 36
    where the program as written computes 72, the sum of the prefix
    maxima), and max printed as ``add`` is not ADD, so no same-operator
    rule fuses the two folds.  The plan computes what the program as
    written computes on the machine."""
    from repro.machine.run import simulate_program

    prog = Program(list(stages))
    params = MachineParams(p=8, ts=600, tw=2, m=1)
    xs = [9, 1, 4, 1, 0, 0, 0, 0]
    written = list(simulate_program(prog, xs, params).values)
    planned = optimize(prog, params)
    assert written == prog.run(list(xs))
    assert rule not in planned.derivation.rules_used
    assert list(simulate_program(planned.program, xs, params).values) == written
