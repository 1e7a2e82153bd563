"""The conformance harness itself: smoke run, broken-rule detection,
shrinking, determinism, and the CLI entry point.

The deliberately-broken-rule tests are the suite's proof that the oracle
has teeth: a rule whose rewrite is semantically wrong *must* produce a
soundness violation with a shrunk, seed-replayable counterexample.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.operators import ADD, MUL
from repro.core.rules import ALL_RULES
from repro.core.rules.reduction import SR2_REDUCTION
from repro.core.stages import BcastStage, MapStage, Program, ReduceStage, ScanStage
from repro.semantics.functional import defined_equal
from repro.testing import (
    PAPER_RULES,
    RULE_CASES,
    check_rule_soundness,
    differential_check,
    generate_from_case,
    generate_random,
    run_conformance,
    shrink_counterexample,
)
from repro.testing.generator import INT_DOMAIN, GeneratedProgram


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSmoke:
    """The CI-sized run: every paper rule covered both ways, no failures."""

    def test_smoke_run_passes(self):
        report = run_conformance(seed=0, iters=25)
        assert report.ok, report.describe()
        assert report.covered_both_ways(), report.describe()
        assert report.cases == 25
        assert report.backend_runs > 0
        assert report.matches_checked > 0

    def test_rule_cases_cover_all_paper_rules_both_ways(self):
        covered = {(c.rule_name, c.positive) for c in RULE_CASES}
        for rule in PAPER_RULES:
            assert (rule, True) in covered, f"no positive case for {rule}"
            assert (rule, False) in covered, f"no negative case for {rule}"

    def test_deterministic_replay(self):
        a = run_conformance(seed=3, iters=10)
        b = run_conformance(seed=3, iters=10)
        assert a.coverage == b.coverage
        assert a.backend_runs == b.backend_runs
        assert a.matches_checked == b.matches_checked
        assert [f.detail for f in a.failures] == [f.detail for f in b.failures]

    def test_different_seeds_draw_different_programs(self):
        ga = generate_random(random.Random(1))
        gb = generate_random(random.Random(2))
        # not guaranteed in general, but these seeds differ (pinned)
        assert ga.program.pretty() != gb.program.pretty() or \
            ga.domain.name != gb.domain.name


#: SR2 with a semantically wrong rewrite: drops the scan contribution
_BROKEN_SR2 = replace(
    SR2_REDUCTION,
    rhs=lambda rule, window, general: (ReduceStage(window[1].op),))


class TestBrokenRuleIsCaught:
    def test_soundness_violation_reported(self):
        rng = random.Random(0)
        case = next(c for c in RULE_CASES
                    if c.rule_name == "SR2-Reduction" and c.positive)
        gp = generate_from_case(rng, case)
        violations, fired, checked = check_rule_soundness(
            gp, rng, rules=(_BROKEN_SR2,))
        assert "SR2-Reduction" in fired
        assert checked > 0
        assert violations, "broken rewrite was not caught"
        v = violations[0]
        # the counterexample must itself be a real disagreement
        assert not defined_equal(list(v.expected), list(v.actual))
        assert "seed" in v.describe()

    def test_counterexample_is_shrunk(self):
        """The reported program must be minimal: the bare rule window."""
        rng = random.Random(0)
        case = next(c for c in RULE_CASES
                    if c.rule_name == "SR2-Reduction" and c.positive)
        gp = generate_from_case(rng, case, max_extra=2)
        violations, _, _ = check_rule_soundness(gp, rng, rules=(_BROKEN_SR2,))
        assert violations
        v = violations[0]
        # shrinking strips context down to the two-stage window, p=2
        assert v.program_pretty.count(";") <= 1
        assert len(v.inputs) <= 2

    def test_broken_rule_caught_end_to_end(self):
        """run_conformance with a poisoned rule set must fail and replay."""
        rules = tuple(r for r in ALL_RULES
                      if r.name != "SR2-Reduction") + (_BROKEN_SR2,)
        report = run_conformance(seed=0, iters=25, rules=rules)
        assert not report.ok
        kinds = {f.kind for f in report.failures}
        assert kinds & {"soundness", "cost"}
        failure = report.failures[0]
        assert "--seed 0" in failure.describe()
        assert f"--iters {failure.iteration + 1}" in failure.describe()


class TestShrinker:
    def test_shrinks_stages_and_machine(self):
        prog = Program([
            MapStage(lambda x: x + 1, label="inc", ops_per_element=1),
            ScanStage(ADD),
            MapStage(lambda x: x + 1, label="inc", ops_per_element=1),
            ReduceStage(MUL),
        ])
        xs = [3, -2, 1, 2, 0, 1, 2, 3]

        def still_fails(p, values):
            # "fails" whenever a scan survives and there are >= 2 ranks
            return len(values) >= 2 and any(
                isinstance(s, ScanStage) for s in p.stages)

        small_prog, small_xs = shrink_counterexample(prog, xs, still_fails)
        assert len(small_prog.stages) == 1
        assert isinstance(small_prog.stages[0], ScanStage)
        assert len(small_xs) == 2

    def test_shrinks_values(self):
        prog = Program([ScanStage(ADD)])
        xs = [37, -14]

        def still_fails(p, values):
            return len(values) == 2  # any 2-rank input "fails"

        _, small_xs = shrink_counterexample(prog, xs, still_fails)
        assert small_xs == [0, 0]

    def test_exception_in_predicate_is_not_a_failure(self):
        prog = Program([ScanStage(ADD), ReduceStage(ADD)])
        xs = [1, 2]

        def still_fails(p, values):
            if len(p.stages) < 2:
                raise RuntimeError("invalid candidate")
            return True

        small_prog, small_xs = shrink_counterexample(prog, xs, still_fails)
        assert len(small_prog.stages) == 2  # raising candidates rejected

    def test_empty_program_never_accepted(self):
        prog = Program([ScanStage(ADD)])
        small_prog, small_xs = shrink_counterexample(
            prog, [1], lambda p, v: True)
        assert len(small_prog.stages) == 1
        assert len(small_xs) == 1


class TestDifferentialOracle:
    def test_detects_injected_backend_bug(self):
        """A program whose functional output we corrupt must mismatch."""
        from repro.core.cost import MachineParams

        prog = Program([ScanStage(ADD)])
        gp = GeneratedProgram(program=prog, domain=INT_DOMAIN,
                              functions={}, note="test")
        params = MachineParams(p=4, ts=1.0, tw=1.0, m=1)
        assert differential_check(gp, [1, 2, 3, 4], params) is None

        # corrupt: a map relabeled as the identity that isn't one breaks
        # agreement between functional (which calls fn) and codegen label
        bad = Program([ScanStage(ADD),
                       MapStage(lambda x: x + 1, label="id",
                                ops_per_element=0)])
        bad_gp = GeneratedProgram(program=bad, domain=INT_DOMAIN,
                                  functions={"id": lambda x: x}, note="test")
        mismatch = differential_check(bad_gp, [1, 2, 3, 4], params)
        assert mismatch is not None
        assert "codegen" in mismatch.disagreeing
        assert "disagrees" in mismatch.describe()

    def test_bcast_scan_agrees_everywhere(self):
        from repro.core.cost import MachineParams

        prog = Program([BcastStage(), ScanStage(ADD)])
        gp = GeneratedProgram(program=prog, domain=INT_DOMAIN,
                              functions={}, note="test")
        for p in (1, 2, 3, 8):
            params = MachineParams(p=p, ts=10.0, tw=1.0, m=4)
            assert differential_check(gp, list(range(p)), params) is None


class TestConformanceCLI:
    def test_cli_smoke(self, capsys):
        code, out = run_cli(capsys, "conformance", "--seed", "0",
                            "--iters", "15")
        assert code == 0
        assert "all checks passed" in out
        for rule in PAPER_RULES:
            assert rule in out

    def test_cli_reports_coverage_marks(self, capsys):
        code, out = run_cli(capsys, "conformance", "--iters", "15")
        assert code == 0
        assert "GAP" not in out

    def test_cli_extensions_flag(self, capsys):
        code, out = run_cli(capsys, "conformance", "--iters", "16",
                            "--extensions", "--seed", "5")
        assert code == 0
