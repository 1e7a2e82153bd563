"""Rule-soundness and cost-monotonicity oracles.

Two machine-checkable facsimiles of the paper's hand proofs:

* :func:`check_rule_soundness` — for every rule and every site
  :func:`repro.core.rewrite.find_matches` reports on a program, applying
  the rule must preserve semantics modulo undefined blocks on randomized
  inputs.  Lossy (Local-class) rewrites are only applied at sites the
  engine marks safe — exactly the discipline the optimizer follows.
* :func:`check_cost_monotonicity` — :func:`repro.core.optimizer.optimize`
  must never return a program with higher model cost than its input,
  under *any* sampled :class:`MachineParams`, and the optimized program
  must still agree with the original on random inputs.

Failures come back shrunk (via :func:`shrink_counterexample`) and carry
the seed that regenerates them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.cost import MachineParams, program_cost
from repro.core.optimizer import optimize
from repro.core.rewrite import apply_match, find_matches
from repro.core.rules import ALL_RULES, Rule
from repro.core.stages import Program
from repro.semantics.functional import defined_equal
from repro.testing.generator import GeneratedProgram, derive_seed
from repro.testing.oracle import shrink_counterexample

__all__ = [
    "SoundnessViolation",
    "CostViolation",
    "check_rule_soundness",
    "check_cost_monotonicity",
    "rule_failure_predicate",
]


@dataclass(frozen=True)
class SoundnessViolation:
    """A rewrite that changed program semantics (already shrunk)."""

    rule_name: str
    program_pretty: str
    rewritten_pretty: str
    inputs: tuple
    expected: tuple
    actual: tuple
    seed: int

    def describe(self) -> str:
        return (
            f"rule      : {self.rule_name}\n"
            f"program   : {self.program_pretty}\n"
            f"rewritten : {self.rewritten_pretty}\n"
            f"inputs    : {list(self.inputs)}  (p={len(self.inputs)})\n"
            f"expected  : {list(self.expected)}\n"
            f"actual    : {list(self.actual)}\n"
            f"seed      : {self.seed}"
        )


@dataclass(frozen=True)
class CostViolation:
    """An optimize() run that increased cost or changed semantics."""

    kind: str  # "cost" or "semantics"
    program_pretty: str
    optimized_pretty: str
    params: MachineParams
    cost_before: float
    cost_after: float
    seed: int
    detail: str = ""

    def describe(self) -> str:
        return (
            f"kind      : {self.kind}\n"
            f"program   : {self.program_pretty}\n"
            f"optimized : {self.optimized_pretty}\n"
            f"machine   : p={self.params.p} ts={self.params.ts} "
            f"tw={self.params.tw} m={self.params.m}\n"
            f"cost      : {self.cost_before:.3f} -> {self.cost_after:.3f}\n"
            f"seed      : {self.seed}"
            + (f"\ndetail    : {self.detail}" if self.detail else "")
        )


def rule_failure_predicate(rules: Sequence[Rule], trials: int = 6,
                           seed: int = 0):
    """A ``still_fails(program, xs)`` closure for the shrinker.

    True iff some safe match of ``rules`` on ``program`` produces a
    rewritten program that disagrees with the original on ``xs`` (or on
    one of a few derived retries — shrinking may move the divergence).
    """

    def still_fails(program: Program, xs: list) -> bool:
        p = len(xs)
        for match in find_matches(program, rules, p=p):
            if not match.safe:
                continue
            rewritten, _ = apply_match(program, match, p=p)
            if not defined_equal(program.run(list(xs)), rewritten.run(list(xs))):
                return True
        return False

    return still_fails


def check_rule_soundness(
    gp: GeneratedProgram,
    rng: random.Random,
    rules: Iterable[Rule] = ALL_RULES,
    sizes: Sequence[int] = (1, 2, 3, 4, 8),
    trials: int = 4,
) -> tuple[list[SoundnessViolation], set[str], int]:
    """Equivalence-check every safe match site on randomized inputs.

    Returns ``(violations, rules_that_fired, matches_checked)`` — the
    fired-rule set feeds the conformance coverage report.
    """
    rules = tuple(rules)
    program = gp.program
    violations: list[SoundnessViolation] = []
    fired: set[str] = set()
    checked = 0
    case_seed = rng.randrange(2**31)
    for n in sizes:
        matches = find_matches(program, rules, p=n)
        for match in matches:
            fired.add(match.rule.name)
            if not match.safe:
                continue
            rewritten, _ = apply_match(program, match, p=n)
            checked += 1
            for trial in range(trials):
                trial_rng = random.Random(derive_seed(case_seed, n * 1_009 + trial))
                xs = gp.inputs(trial_rng, n)
                expected = program.run(list(xs))
                actual = rewritten.run(list(xs))
                if defined_equal(expected, actual):
                    continue
                small_prog, small_xs = shrink_counterexample(
                    program, xs,
                    rule_failure_predicate((match.rule,)),
                )
                # re-derive the rewritten form of the shrunk program
                small_rewritten = rewritten
                for small_match in find_matches(small_prog, (match.rule,),
                                                p=len(small_xs)):
                    if small_match.safe:
                        small_rewritten, _ = apply_match(
                            small_prog, small_match, p=len(small_xs))
                        break
                violations.append(SoundnessViolation(
                    rule_name=match.rule.name,
                    program_pretty=small_prog.pretty(),
                    rewritten_pretty=small_rewritten.pretty(),
                    inputs=tuple(small_xs),
                    expected=tuple(small_prog.run(list(small_xs))),
                    actual=tuple(small_rewritten.run(list(small_xs))),
                    seed=case_seed,
                ))
                break  # one violation per match site is enough
    return violations, fired, checked


def sample_machine_params(rng: random.Random) -> MachineParams:
    """A random point of the machine-parameter space Table 1 ranges over."""
    return MachineParams(
        p=rng.choice((2, 4, 8, 16, 64)),
        ts=rng.choice((0.0, 1.0, 77.0, 600.0, 5000.0)),
        tw=rng.choice((0.0, 0.5, 2.0, 8.0)),
        m=rng.choice((1, 16, 256, 1024)),
    )


def check_cost_monotonicity(
    gp: GeneratedProgram,
    rng: random.Random,
    rules: Iterable[Rule] = ALL_RULES,
    n_params: int = 2,
    trials: int = 3,
) -> list[CostViolation]:
    """optimize() must never raise cost, and must preserve semantics."""
    rules = tuple(rules)
    program = gp.program
    violations: list[CostViolation] = []
    case_seed = rng.randrange(2**31)
    params_rng = random.Random(case_seed)
    for _ in range(n_params):
        params = sample_machine_params(params_rng)
        result = optimize(program, params, rules=rules)
        if result.cost_after > result.cost_before + 1e-9:
            violations.append(CostViolation(
                kind="cost",
                program_pretty=program.pretty(),
                optimized_pretty=result.program.pretty(),
                params=params,
                cost_before=result.cost_before,
                cost_after=result.cost_after,
                seed=case_seed,
            ))
            continue
        # the returned cost must be the real cost of the returned program
        recomputed = program_cost(result.program, params)
        if abs(recomputed - result.cost_after) > 1e-6:
            violations.append(CostViolation(
                kind="cost",
                program_pretty=program.pretty(),
                optimized_pretty=result.program.pretty(),
                params=params,
                cost_before=result.cost_after,
                cost_after=recomputed,
                seed=case_seed,
                detail="reported cost_after disagrees with program_cost",
            ))
            continue
        for trial in range(trials):
            trial_rng = random.Random(derive_seed(case_seed, params.p * 1_009 + trial))
            xs = gp.inputs(trial_rng, min(params.p, 8))
            expected = program.run(list(xs))
            actual = result.program.run(list(xs))
            if not defined_equal(expected, actual):
                violations.append(CostViolation(
                    kind="semantics",
                    program_pretty=program.pretty(),
                    optimized_pretty=result.program.pretty(),
                    params=params,
                    cost_before=result.cost_before,
                    cost_after=result.cost_after,
                    seed=case_seed,
                    detail=f"outputs differ on {xs}",
                ))
                break
    return violations
