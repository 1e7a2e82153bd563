"""Cost model tests: Table 1 literal forms, generic-vs-closed consistency,
improvement predicates, and the paper's §4.2 worked derivation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.cost import (
    CostFormula,
    MachineParams,
    PARSYTEC_LIKE,
    bcast_formula,
    program_cost,
    reduce_formula,
    scan_formula,
    stage_cost,
)
from repro.core.operators import ADD, MUL
from repro.core.rewrite import apply_match, find_matches
from repro.core.rules import ALL_RULES, rule_by_name
from repro.core.stages import BcastStage, MapStage, Program, ScanStage


class TestMachineParams:
    def test_log_p(self):
        assert MachineParams(p=8, ts=1, tw=1).log_p == 3
        assert MachineParams(p=1, ts=1, tw=1).log_p == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineParams(p=0, ts=1, tw=1)
        with pytest.raises(ValueError):
            MachineParams(p=2, ts=-1, tw=1)
        with pytest.raises(ValueError):
            MachineParams(p=2, ts=1, tw=1, m=-1)

    def test_with_(self):
        params = PARSYTEC_LIKE.with_(m=5)
        assert params.m == 5 and params.ts == PARSYTEC_LIKE.ts


class TestBaseFormulas:
    """Paper equations (15)-(17)."""

    def test_bcast(self):
        assert bcast_formula() == CostFormula.of(1, 1, 0)

    def test_reduce(self):
        assert reduce_formula() == CostFormula.of(1, 1, 1)

    def test_scan(self):
        assert scan_formula() == CostFormula.of(1, 1, 2)

    def test_formula_evaluation(self):
        params = MachineParams(p=8, ts=100, tw=2, m=16)
        assert bcast_formula().evaluate(params) == 3 * (100 + 16 * 2)
        assert scan_formula().evaluate(params) == 3 * (100 + 16 * 4)

    def test_formula_arithmetic(self):
        s = bcast_formula() + scan_formula()
        assert s == CostFormula.of(2, 2, 2)
        d = s - bcast_formula()
        assert d == scan_formula()

    def test_always_positive(self):
        assert CostFormula.of(1, 0, 0).always_positive()
        assert not CostFormula.of(0, 0, 0).always_positive()
        assert not CostFormula.of(1, 0, -1).always_positive()

    def test_pretty(self):
        assert CostFormula.of(2, 2, 3).pretty() == "2ts + m*(2tw + 3)"
        assert CostFormula.of(0, 0, 1).pretty() == "m*(1)"
        assert CostFormula.of(1, 1, 0).pretty() == "ts + m*(tw)"
        assert CostFormula.of(0, 0, 0).pretty() == "0"


class TestTable1Literals:
    """The exact before/after columns of the paper's Table 1."""

    EXPECTED = {
        "SR2-Reduction": ((2, 2, 3), (1, 2, 3)),
        "SR-Reduction": ((2, 2, 3), (1, 2, 4)),
        "SS2-Scan": ((2, 2, 4), (1, 2, 6)),
        "SS-Scan": ((2, 2, 4), (1, 3, 8)),
        "BS-Comcast": ((2, 2, 2), (1, 1, 2)),
        "BSS2-Comcast": ((3, 3, 4), (1, 1, 5)),
        "BSS-Comcast": ((3, 3, 4), (1, 1, 8)),
        "BR-Local": ((2, 2, 1), (0, 0, 1)),
        "BSR2-Local": ((3, 3, 3), (0, 0, 3)),
        "BSR-Local": ((3, 3, 3), (0, 0, 4)),
        "CR-Alllocal": ((2, 2, 1), (1, 1, 1)),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_closed_forms(self, name):
        rule = rule_by_name(name)
        before, after = self.EXPECTED[name]
        assert rule.before_formula() == CostFormula.of(*before)
        assert rule.after_formula() == CostFormula.of(*after)

    EXPECTED_ALWAYS = {
        "SR2-Reduction": True,
        "SR-Reduction": False,
        "SS2-Scan": False,
        "SS-Scan": False,
        "BS-Comcast": True,
        "BSS2-Comcast": False,   # condition: tw + ts/m > 1/2
        "BSS-Comcast": False,
        "BR-Local": True,
        "BSR2-Local": True,
        "BSR-Local": False,
        "CR-Alllocal": True,
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_ALWAYS))
    def test_always_column(self, name):
        assert rule_by_name(name).always_improves() == self.EXPECTED_ALWAYS[name]


class TestTable1AgainstGenericStageCosts:
    """The closed forms must equal summed generic stage costs for unit ops."""

    #: the rows with Table-1 columns in the paper's catalogue; each is
    #: checked on its own exemplar, the left-hand side over unit operators
    NAMES = sorted(rule.name for rule in ALL_RULES)

    @pytest.mark.parametrize("name", NAMES)
    def test_before_and_after_match_stage_costs(self, name):
        rule = rule_by_name(name)
        prog = Program(rule.exemplar)
        params = MachineParams(p=16, ts=123.0, tw=3.0, m=17)
        (match,) = [m for m in find_matches(prog, p=16) if m.rule.name == name]
        rewritten, _ = apply_match(prog, match, p=16, force_unsafe=True)
        assert program_cost(prog, params) == pytest.approx(
            rule.before_formula().evaluate(params)
        )
        assert program_cost(rewritten, params) == pytest.approx(
            rule.after_formula().evaluate(params)
        )


class TestImprovementPredicates:
    def test_sr_reduction_threshold_ts_equals_m(self):
        rule = rule_by_name("SR-Reduction")
        at = lambda ts, m: rule.improves(MachineParams(p=8, ts=ts, tw=1, m=m))
        assert at(101, 100)
        assert not at(100, 100)  # strict inequality
        assert not at(99, 100)

    def test_ss2_scan_threshold_ts_equals_2m(self):
        """The paper's §4.2 worked example: pays off iff ts > 2m."""
        rule = rule_by_name("SS2-Scan")
        at = lambda ts, m: rule.improves(MachineParams(p=8, ts=ts, tw=1, m=m))
        assert at(201, 100)
        assert not at(200, 100)
        assert not at(150, 100)

    def test_ss_scan_threshold(self):
        # ts > m*(tw + 4)
        rule = rule_by_name("SS-Scan")
        p = MachineParams(p=8, ts=601, tw=2.0, m=100)
        assert rule.improves(p)
        assert not rule.improves(p.with_(ts=600))

    def test_bss_comcast_threshold(self):
        # tw + ts/m > 2
        rule = rule_by_name("BSS-Comcast")
        assert rule.improves(MachineParams(p=8, ts=150, tw=1.0, m=100))
        assert not rule.improves(MachineParams(p=8, ts=100, tw=1.0, m=100))

    def test_bsr_local_threshold(self):
        # tw + ts/m >= 1/3 (we use strict > on the margin)
        rule = rule_by_name("BSR-Local")
        assert rule.improves(MachineParams(p=8, ts=40, tw=0.0, m=100))
        assert not rule.improves(MachineParams(p=8, ts=30, tw=0.0, m=100))


class TestStageCosts:
    def test_map_cost_scales_with_ops(self):
        params = MachineParams(p=4, ts=10, tw=1, m=8)
        assert stage_cost(MapStage(lambda x: x, ops_per_element=0), params) == 0
        assert stage_cost(MapStage(lambda x: x, ops_per_element=3), params) == 24

    def test_wide_operator_charges_more_words(self):
        from repro.core.derived_ops import sr2_op

        params = MachineParams(p=4, ts=10, tw=1, m=8)
        narrow = stage_cost(ScanStage(ADD), params)
        wide = stage_cost(ScanStage(sr2_op(MUL, ADD)), params)
        assert wide > narrow

    def test_unknown_stage_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            stage_cost(Weird(), MachineParams(p=2, ts=1, tw=1))

    def test_single_processor_costs_nothing_for_collectives(self):
        params = MachineParams(p=1, ts=100, tw=10, m=8)
        assert stage_cost(BcastStage(), params) == 0
        assert stage_cost(ScanStage(ADD), params) == 0


class TestPipelinedTransfer:
    """The Lowery & Langou chunked-transfer crossover (arXiv:1310.4645)."""

    def test_cost_formula_literal(self):
        from repro.core.cost import pipelined_transfer_cost

        params = MachineParams(p=2, ts=10.0, tw=2.0)
        # (n + depth - 1) * (ts + (m/n) tw), n=4, depth=2, m=100
        assert pipelined_transfer_cost(params, 100.0, chunks=4, depth=2) \
            == pytest.approx(5 * (10.0 + 25.0 * 2.0))

    def test_one_chunk_recovers_flat_cost(self):
        from repro.core.cost import pipelined_transfer_cost

        params = MachineParams(p=2, ts=10.0, tw=2.0)
        assert pipelined_transfer_cost(params, 64.0, chunks=1, depth=1) \
            == pytest.approx(10.0 + 64.0 * 2.0)

    def test_invalid_arguments_rejected(self):
        from repro.core.cost import pipelined_transfer_cost

        params = MachineParams(p=2, ts=1.0, tw=1.0)
        with pytest.raises(ValueError):
            pipelined_transfer_cost(params, 8.0, chunks=0)
        with pytest.raises(ValueError):
            pipelined_transfer_cost(params, 8.0, chunks=1, depth=0)

    def test_chunk_count_near_analytic_optimum(self):
        from repro.core.cost import pipeline_chunk_count, pipelined_transfer_cost

        params = MachineParams(p=2, ts=600.0, tw=2.0)
        words = 1 << 16
        n = pipeline_chunk_count(params, words, depth=2)
        # sqrt((depth-1) m tw / ts) = sqrt(65536*2/600) ~ 14.8
        assert 13 <= n <= 16
        best = pipelined_transfer_cost(params, words, n, depth=2)
        for cand in (n - 1, n + 1):
            assert best <= pipelined_transfer_cost(params, words, cand, depth=2)

    def test_small_messages_never_chunk(self):
        from repro.core.cost import pipeline_chunk_count

        params = MachineParams(p=2, ts=600.0, tw=2.0)
        assert pipeline_chunk_count(params, 1.0) == 1
        assert pipeline_chunk_count(params, 100.0, depth=1) == 1
        free = MachineParams(p=2, ts=600.0, tw=0.0)
        assert pipeline_chunk_count(free, 1 << 20) == 1  # no wire cost: no win

    def test_zero_startup_chunks_maximally(self):
        from repro.core.cost import pipeline_chunk_count

        params = MachineParams(p=2, ts=0.0, tw=2.0)
        assert pipeline_chunk_count(params, 64.0) == 64
