"""Extension rules: semantics, matching, costs, optimizer interplay."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import MachineParams, PARSYTEC_LIKE, program_cost
from repro.core.operators import ADD, CONCAT, MAX
from repro.core.optimizer import optimize
from repro.core.rewrite import apply_match, find_matches
from repro.core.rules import ALL_RULES, EXTENSION_RULES, FULL_RULES, rule_by_name
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.machine import simulate_program
from repro.semantics.functional import defined_equal
from helpers import COMMUTATIVE_DOMAINS, NONCOMMUTATIVE_DOMAINS


def rewrite_with(prog, rule_name, p):
    ms = [m for m in find_matches(prog, EXTENSION_RULES, p=p)
          if m.rule.name == rule_name]
    assert ms, f"{rule_name} did not match"
    out, _ = apply_match(prog, ms[0], p=p)
    return out


class TestRegistry:
    def test_extensions_not_in_paper_catalogue(self):
        paper = {r.name for r in ALL_RULES}
        for rule in EXTENSION_RULES:
            assert rule.name not in paper

    def test_full_rules_superset(self):
        assert set(r.name for r in FULL_RULES) >= set(r.name for r in ALL_RULES)
        assert rule_by_name("RB-Allreduce").name == "RB-Allreduce"

    def test_all_extensions_always_improve(self):
        for rule in EXTENSION_RULES:
            assert rule.always_improves(), rule.name


_DOMAINS = COMMUTATIVE_DOMAINS + NONCOMMUTATIVE_DOMAINS


@pytest.mark.parametrize("op,elems", _DOMAINS, ids=[o.name for o, _ in _DOMAINS])
class TestSemantics:
    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=20)
    def test_rb_allreduce(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ReduceStage(op), BcastStage()])
        out = rewrite_with(prog, "RB-Allreduce", n)
        assert defined_equal(prog.run(xs), out.run(xs))

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=20)
    def test_ab_allreduce(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([AllReduceStage(op), BcastStage()])
        out = rewrite_with(prog, "AB-Allreduce", n)
        assert defined_equal(prog.run(xs), out.run(xs))

    @given(data=st.data(), n=st.integers(1, 17))
    @settings(max_examples=20)
    def test_sb_bcast(self, op, elems, data, n):
        xs = [data.draw(elems) for _ in range(n)]
        prog = Program([ScanStage(op), BcastStage()])
        out = rewrite_with(prog, "SB-Bcast", n)
        assert defined_equal(prog.run(xs), out.run(xs))


class TestBBBcast:
    @given(st.lists(st.integers(), min_size=1, max_size=12))
    def test_semantics(self, xs):
        prog = Program([BcastStage(), BcastStage()])
        out = rewrite_with(prog, "BB-Bcast", len(xs))
        assert prog.run(xs) == out.run(xs)


class TestCostsAndSimulation:
    @pytest.mark.parametrize("rule_name,prog", [
        (rule.name, Program(rule.exemplar)) for rule in EXTENSION_RULES])
    def test_simulated_improvement(self, rule_name, prog):
        p = 16
        params = MachineParams(p=p, ts=300.0, tw=2.0, m=64)
        out = rewrite_with(prog, rule_name, p)
        xs = [3] * p
        t_before = simulate_program(prog, xs, params).time
        t_after = simulate_program(out, xs, params).time
        assert t_after < t_before
        assert defined_equal(
            list(simulate_program(prog, xs, params).values),
            list(simulate_program(out, xs, params).values),
        )
        # closed forms match generic stage costs
        rule = rule_by_name(rule_name)
        assert program_cost(prog, params) == pytest.approx(
            rule.before_formula().evaluate(params))
        assert program_cost(out, params) == pytest.approx(
            rule.after_formula().evaluate(params))


class TestOptimizerWithExtensions:
    def test_reduce_bcast_chain_collapses(self):
        prog = Program([ReduceStage(ADD), BcastStage(), BcastStage()])
        res = optimize(prog, PARSYTEC_LIKE, rules=FULL_RULES)
        # reduce;bcast;bcast -> allreduce;bcast -> allreduce (or via BB first)
        assert [type(s) for s in res.program.stages] == [AllReduceStage]

    def test_extensions_enable_paper_rules(self):
        # scan;reduce;bcast: with extensions, reduce;bcast -> allreduce,
        # then SR-Reduction fuses scan;allreduce into one balanced pass.
        prog = Program([ScanStage(ADD), ReduceStage(ADD), BcastStage()])
        params = MachineParams(p=16, ts=5000.0, tw=2.0, m=64)  # ts >> m
        base = optimize(prog, params, rules=ALL_RULES)
        ext = optimize(prog, params, rules=FULL_RULES)
        assert ext.cost_after <= base.cost_after
        assert "RB-Allreduce" in ext.derivation.rules_used
        xs = list(range(16))
        assert defined_equal(prog.run(xs), ext.program.run(xs))

    def test_paper_default_unchanged(self):
        # the default registry stays the paper's 11 rules
        prog = Program([ReduceStage(ADD), BcastStage()])
        res = optimize(prog, PARSYTEC_LIKE)  # rules=ALL_RULES default
        assert res.derivation.rules_used == ()
