"""Property tests: every optimization rule is a semantic equality.

For each rule, the left-hand side and the rewritten right-hand side are
run on random distributed lists over an operator zoo (commutative,
non-commutative, matrix, modular) and must agree modulo undefined blocks
— the executable counterpart of the paper's formal proofs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators import ADD, CONCAT, MATADD2, MATMUL2, MAX, MIN, MUL
from repro.core.rewrite import apply_match, find_matches
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.semantics.functional import defined_equal
from helpers import (
    COMMUTATIVE_DOMAINS,
    DISTRIBUTIVE_DOMAINS,
    MATRICES,
    NONCOMMUTATIVE_DOMAINS,
)


def rewrite_with(prog: Program, rule_name: str, p: int) -> Program:
    matches = [m for m in find_matches(prog, p=p) if m.rule.name == rule_name]
    assert matches, f"{rule_name} does not match {prog.pretty()}"
    out, _ = apply_match(prog, matches[0], p=p, force_unsafe=True)
    return out


def assert_rule_equivalence(prog: Program, rule_name: str, xs: list) -> None:
    rewritten = rewrite_with(prog, rule_name, p=len(xs))
    assert defined_equal(prog.run(xs), rewritten.run(xs)), (
        f"{rule_name} changed semantics on {xs}:\n"
        f"  lhs {prog.run(xs)}\n  rhs {rewritten.run(xs)}"
    )


# ---------------------------------------------------------------------------
# SR2-Reduction / SS2-Scan (distributivity rules)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("otimes,oplus,elems", DISTRIBUTIVE_DOMAINS,
                         ids=lambda d: getattr(d, "name", None))
class TestDistributiveRules:
    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=30)
    def test_sr2_reduction(self, otimes, oplus, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(otimes), ReduceStage(oplus)])
        assert_rule_equivalence(prog, "SR2-Reduction", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=30)
    def test_sr2_allreduction(self, otimes, oplus, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(otimes), AllReduceStage(oplus)])
        assert_rule_equivalence(prog, "SR2-Reduction", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=30)
    def test_ss2_scan(self, otimes, oplus, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(otimes), ScanStage(oplus)])
        assert_rule_equivalence(prog, "SS2-Scan", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=30)
    def test_bss2_comcast(self, otimes, oplus, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n  # only the root block matters after the bcast
        prog = Program([BcastStage(), ScanStage(otimes), ScanStage(oplus)])
        assert_rule_equivalence(prog, "BSS2-Comcast", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=30)
    def test_bsr2_local(self, otimes, oplus, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), ScanStage(otimes), ReduceStage(oplus)])
        assert_rule_equivalence(prog, "BSR2-Local", xs)


# ---------------------------------------------------------------------------
# SR-Reduction / SS-Scan / BSS-Comcast / BSR-Local (commutativity rules)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op,elems", COMMUTATIVE_DOMAINS,
                         ids=[op.name for op, _ in COMMUTATIVE_DOMAINS])
class TestCommutativeRules:
    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_sr_reduction(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(op), ReduceStage(op)])
        assert_rule_equivalence(prog, "SR-Reduction", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_sr_allreduction(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(op), AllReduceStage(op)])
        assert_rule_equivalence(prog, "SR-Reduction", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_ss_scan(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(op), ScanStage(op)])
        assert_rule_equivalence(prog, "SS-Scan", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_bss_comcast(self, op, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), ScanStage(op), ScanStage(op)])
        assert_rule_equivalence(prog, "BSS-Comcast", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_bsr_local(self, op, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), ScanStage(op), ReduceStage(op)])
        assert_rule_equivalence(prog, "BSR-Local", xs)


# ---------------------------------------------------------------------------
# BS-Comcast / BR-Local / CR-Alllocal (no algebraic side condition)
# ---------------------------------------------------------------------------

_ANY_OP_DOMAINS = COMMUTATIVE_DOMAINS + NONCOMMUTATIVE_DOMAINS


@pytest.mark.parametrize("op,elems", _ANY_OP_DOMAINS,
                         ids=[op.name for op, _ in _ANY_OP_DOMAINS])
class TestUnconditionalRules:
    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_bs_comcast(self, op, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), ScanStage(op)])
        assert_rule_equivalence(prog, "BS-Comcast", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_br_local(self, op, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), ReduceStage(op)])
        assert_rule_equivalence(prog, "BR-Local", xs)

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=25)
    def test_cr_alllocal(self, op, elems, data, n):
        b = data.draw(elems)
        xs = [b] * n
        prog = Program([BcastStage(), AllReduceStage(op)])
        assert_rule_equivalence(prog, "CR-Alllocal", xs)


# ---------------------------------------------------------------------------
# Comcast doubling implementation ≡ repeat implementation
# ---------------------------------------------------------------------------


class TestComcastImplEquivalence:
    @given(b=st.integers(-20, 20), n=st.integers(1, 33))
    @settings(max_examples=40)
    def test_bs_doubling_equals_repeat(self, b, n):
        from dataclasses import replace

        from repro.core.rules.comcast import BS_COMCAST

        prog = Program([BcastStage(), ScanStage(ADD)])
        (comcast,) = BS_COMCAST.rewrite(prog.stages)
        fast = Program([comcast])
        slow = Program([replace(comcast, impl="doubling")])
        xs = [b] * n
        assert fast.run(xs) == slow.run(xs) == prog.run(xs)


# ---------------------------------------------------------------------------
# Figure 6: bcast + repeat states (BS-Comcast, ⊕ = +, b = 2, 6 procs)
# ---------------------------------------------------------------------------


class TestFigure6:
    def test_final_values(self):
        prog = Program([BcastStage(), ScanStage(ADD)])
        rewritten = rewrite_with(prog, "BS-Comcast", p=6)
        assert rewritten.run([2, 0, 0, 0, 0, 0]) == [2, 4, 6, 8, 10, 12]

    def test_intermediate_pair_states(self):
        from repro.core.derived_ops import bs_comcast_op
        from repro.semantics.functional import pair, repeat_fn

        op = bs_comcast_op(ADD)
        # processor 3 (k = 0b11): (2,2) -o-> (4,4) -o-> (8,8); π1 = 8
        s = pair(2)
        s = op.odd(s)
        assert s == (4, 4)
        s = op.odd(s)
        assert s == (8, 8)
        assert op.compute(3, 2) == 8
        # processor 5 (k = 0b101): o, e, o
        assert op.compute(5, 2) == 12
