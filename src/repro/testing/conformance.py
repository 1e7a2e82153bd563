"""The conformance driver behind ``python -m repro conformance``.

One *case* = one generated program put through the full gauntlet:

1. **coverage**   — if the case was built from a rule template, verify the
   rule fires on the positive window and refuses the negative one;
2. **differential** — run the program through every backend on several
   machine sizes (always including ``p=1``) and compare outputs;
3. **soundness**  — equivalence-check every safe rewrite site
   ``find_matches`` reports, on randomized inputs;
4. **cost**       — ``optimize`` under sampled machine parameters must
   never increase model cost and must preserve semantics;
5. **optimized differential** — when the optimizer rewrote the program,
   push the *optimized* form through the backends too, so the machine
   implementations of the rule-introduced stages (balanced collectives,
   comcast, iter) face the same oracle.

Cases come from :func:`repro.testing.generator.deal_cases`: a cycle through
:data:`~repro.testing.generator.RULE_CASES` (one positive + one negative
template per paper rule) and the planner traps, then one purely random
program, so ``--iters 15`` already covers every paper rule
both ways.  Everything derives from ``--seed``: case ``i`` of seed ``N``
is reproducible with ``--seed N --iters i+1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.cost import MachineParams
from repro.core.optimizer import optimize
from repro.core.rules import ALL_RULES, Rule, rule_by_name
from repro.testing.generator import (
    PLANNER_CASES,
    RULE_CASES,
    GeneratedProgram,
    RuleCase,
    deal_cases,
)
from repro.testing.planner import check_planner_agreement
from repro.testing.oracle import (
    BACKENDS,
    BackendMismatch,
    differential_check,
    shrink_counterexample,
)
from repro.testing.soundness import (
    check_cost_monotonicity,
    check_rule_soundness,
    sample_machine_params,
)

__all__ = ["PAPER_RULES", "CaseFailure", "ConformanceReport", "run_conformance"]

#: the seven fusion rules of the paper the oracle must cover both ways
PAPER_RULES: tuple[str, ...] = (
    "SR2-Reduction",
    "SR-Reduction",
    "SS2-Scan",
    "SS-Scan",
    "BS-Comcast",
    "BSS2-Comcast",
    "BSS-Comcast",
)


@dataclass(frozen=True)
class CaseFailure:
    """One conformance failure, with everything needed to replay it."""

    kind: str  # "coverage" | "differential" | "soundness" | "cost" | "planner"
    iteration: int
    case_seed: int
    base_seed: int
    detail: str

    def describe(self) -> str:
        return (
            f"[{self.kind}] iteration {self.iteration} "
            f"(case seed {self.case_seed})\n"
            f"{self.detail}\n"
            f"replay   : python -m repro conformance "
            f"--seed {self.base_seed} --iters {self.iteration + 1}"
        )


@dataclass
class ConformanceReport:
    """Aggregate outcome of one conformance run."""

    seed: int
    iters: int
    cases: int = 0
    backend_runs: int = 0
    matches_checked: int = 0
    optimizations_checked: int = 0
    planner_checks: int = 0
    #: rule name -> {"positive": n, "negative": n}
    coverage: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: list[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record_coverage(self, rule_name: str, positive: bool) -> None:
        slot = self.coverage.setdefault(rule_name,
                                        {"positive": 0, "negative": 0})
        slot["positive" if positive else "negative"] += 1

    def covered_both_ways(self, rules: Iterable[str] = PAPER_RULES) -> bool:
        return all(
            self.coverage.get(r, {}).get("positive", 0) > 0
            and self.coverage.get(r, {}).get("negative", 0) > 0
            for r in rules
        )

    def describe(self) -> str:
        lines = [
            f"conformance: seed={self.seed} iters={self.iters} "
            f"cases={self.cases}",
            f"  backend runs      : {self.backend_runs}",
            f"  rewrite sites     : {self.matches_checked}",
            f"  optimizer checks  : {self.optimizations_checked}",
            f"  planner contracts : {self.planner_checks}",
            "  rule coverage (positive/negative):",
        ]
        for rule in PAPER_RULES:
            slot = self.coverage.get(rule, {"positive": 0, "negative": 0})
            mark = "ok " if slot["positive"] and slot["negative"] else "GAP"
            lines.append(f"    {mark} {rule:<14} {slot['positive']:>3} / "
                         f"{slot['negative']:>3}")
        extra = sorted(set(self.coverage) - set(PAPER_RULES))
        if extra:
            lines.append(f"  extension rules fired: {', '.join(extra)}")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for failure in self.failures:
                lines.append("")
                lines.append(failure.describe())
        else:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _case_sizes(rng: random.Random, sizes: Sequence[int]) -> list[int]:
    """Machine sizes for one case: always p=1 plus two drawn sizes."""
    picked = {1, rng.choice(sizes), rng.choice(sizes)}
    return sorted(picked)


def _check_template_coverage(gp: GeneratedProgram, case, report,
                             iteration: int, case_seed: int) -> None:
    rule = rule_by_name(case.rule_name)
    fired = rule.match(gp.window)
    if fired == case.positive:
        report.record_coverage(case.rule_name, case.positive)
        return
    expectation = "fire on" if case.positive else "refuse"
    report.failures.append(CaseFailure(
        kind="coverage",
        iteration=iteration,
        case_seed=case_seed,
        base_seed=report.seed,
        detail=(f"{case.describe()}: expected the rule to {expectation} "
                f"this window, but match() returned {fired}"),
    ))


def run_conformance(
    seed: int = 0,
    iters: int = 100,
    rules: Iterable[Rule] = ALL_RULES,
    backends: Sequence[str] = BACKENDS,
    machine_sizes: Sequence[int] = (2, 3, 4, 5, 8),
    max_failures: int = 5,
) -> ConformanceReport:
    """Run ``iters`` conformance cases; stop early after ``max_failures``."""
    rules = tuple(rules)
    report = ConformanceReport(seed=seed, iters=iters)
    seen_failures: set[tuple[str, str]] = set()

    def record(failure: CaseFailure) -> None:
        # the same violation often recurs across machine sizes; report once
        key = (failure.kind, failure.detail)
        if key not in seen_failures:
            seen_failures.add(key)
            report.failures.append(failure)

    # every rule template once, every planner trap once, then one random case
    for i, case_seed, rng, gp, case in deal_cases(
            seed, iters, RULE_CASES + PLANNER_CASES):
        if isinstance(case, RuleCase):
            _check_template_coverage(gp, case, report, i, case_seed)
        report.cases += 1

        # -- differential oracle over every backend ------------------------
        sizes = _case_sizes(rng, machine_sizes)
        params_proto = sample_machine_params(rng)
        for n in sizes:
            params = params_proto.with_(p=max(n, 1))
            xs = gp.inputs(rng, n)
            report.backend_runs += len(backends)
            mismatch = differential_check(gp, xs, params, backends)
            if mismatch is not None:
                mismatch = _shrink_mismatch(gp, mismatch, params, backends)
                record(CaseFailure(
                    kind="differential", iteration=i, case_seed=case_seed,
                    base_seed=seed, detail=mismatch.describe(),
                ))
                break

        # -- rule soundness on every match site ----------------------------
        violations, fired, checked = check_rule_soundness(gp, rng, rules)
        report.matches_checked += checked
        for name in fired:
            report.record_coverage(name, positive=True)
        for violation in violations:
            record(CaseFailure(
                kind="soundness", iteration=i, case_seed=case_seed,
                base_seed=seed, detail=violation.describe(),
            ))

        # -- cost monotonicity + optimized-program differential ------------
        cost_violations = check_cost_monotonicity(gp, rng, rules)
        report.optimizations_checked += 1
        for violation in cost_violations:
            record(CaseFailure(
                kind="cost", iteration=i, case_seed=case_seed,
                base_seed=seed, detail=violation.describe(),
            ))
        if not cost_violations:
            _check_optimized_differential(gp, rng, rules, backends,
                                          report, i, case_seed)

        # -- planner-tier agreement (beam vs greedy vs exhaustive) ---------
        planner_violations = check_planner_agreement(gp, rng, rules)
        report.planner_checks += 1
        for violation in planner_violations:
            record(CaseFailure(
                kind="planner", iteration=i, case_seed=case_seed,
                base_seed=seed, detail=violation.describe(),
            ))

        if len(report.failures) >= max_failures:
            break

    return report


def _check_optimized_differential(gp, rng, rules, backends, report,
                                  iteration: int, case_seed: int) -> None:
    """Push the optimizer's output through the backends too."""
    params = sample_machine_params(rng)
    result = optimize(gp.program, params, rules=rules)
    if not result.derivation.steps:
        return
    optimized = gp.with_program(result.program, f"optimized:{gp.note}")
    n = min(params.p, 8)
    xs = optimized.inputs(rng, n)
    report.backend_runs += len(backends)
    mismatch = differential_check(optimized, xs, params.with_(p=n), backends)
    if mismatch is not None:
        report.failures.append(CaseFailure(
            kind="differential", iteration=iteration, case_seed=case_seed,
            base_seed=report.seed,
            detail=f"(optimized form of {gp.program.pretty()})\n"
                   + mismatch.describe(),
        ))


def _shrink_mismatch(gp: GeneratedProgram, mismatch: BackendMismatch,
                     params: MachineParams,
                     backends: Sequence[str]) -> BackendMismatch:
    """Minimize a differential counterexample, preserving the report shape."""

    def check(prog, xs):
        return differential_check(gp.with_program(prog), xs,
                                  params.with_(p=max(len(xs), 1)), backends)

    small_prog, small_xs = shrink_counterexample(
        gp.program, list(mismatch.inputs),
        lambda prog, xs: check(prog, xs) is not None)
    final = check(small_prog, small_xs)
    return final if final is not None else mismatch
