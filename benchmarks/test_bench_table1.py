"""Table 1: predicted vs. measured cost of every optimization rule.

For each of the paper's ten rules (plus CR-Alllocal) this benchmark

* evaluates the closed-form before/after costs at Parsytec-like machine
  parameters,
* *measures* both sides on the discrete-event simulator,
* asserts prediction == measurement (the simulator implements exactly
  the butterfly schemes the calculus prices), and
* asserts the "Improved if" verdict matches the measured winner.

The wall-clock benchmark kernel is the full 11-rule measurement sweep.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.core.cost import MachineParams, program_cost
from repro.core.rewrite import apply_match, find_matches
from repro.core.rules import rule_by_name
from repro.core.stages import Program
from repro.machine import simulate_program

PARAMS = MachineParams(p=16, ts=600.0, tw=2.0, m=128)

ORDER = [
    "SR2-Reduction", "SR-Reduction", "SS2-Scan", "SS-Scan", "BS-Comcast",
    "BSS2-Comcast", "BSS-Comcast", "BR-Local", "BSR2-Local", "BSR-Local",
    "CR-Alllocal",
]


def measure_all() -> list[tuple[str, float, float, float, float, bool, bool]]:
    rows = []
    xs = [2] * PARAMS.p
    for name in ORDER:
        rule = rule_by_name(name)
        lhs = Program(rule.exemplar)
        (match,) = [m for m in find_matches(lhs, p=PARAMS.p) if m.rule.name == name]
        rhs, _ = apply_match(lhs, match, p=PARAMS.p, force_unsafe=True)
        pred_before = rule.before_formula().evaluate(PARAMS)
        pred_after = rule.after_formula().evaluate(PARAMS)
        meas_before = simulate_program(lhs, xs, PARAMS).time
        meas_after = simulate_program(rhs, xs, PARAMS).time
        rows.append((
            name, pred_before, meas_before, pred_after, meas_after,
            rule.improves(PARAMS), meas_after < meas_before,
        ))
    return rows


def test_table1_predictions_match_measurements(benchmark):
    rows = benchmark(measure_all)
    lines = [
        f"machine: p={PARAMS.p}, ts={PARAMS.ts}, tw={PARAMS.tw}, m={PARAMS.m}",
        f"{'rule':<15} {'pred before':>12} {'meas before':>12} "
        f"{'pred after':>12} {'meas after':>12} {'predicted?':>10} {'measured?':>10}",
    ]
    for name, pb, mb, pa, ma, predicted, measured in rows:
        lines.append(
            f"{name:<15} {pb:>12.1f} {mb:>12.1f} {pa:>12.1f} {ma:>12.1f} "
            f"{'win' if predicted else 'lose':>10} {'win' if measured else 'lose':>10}"
        )
        # prediction equals measurement (exact cost-model simulator)
        assert mb == pytest.approx(pb), name
        assert ma == pytest.approx(pa), name
        # and the Table-1 verdict matches the measured outcome
        assert predicted == measured, name
    emit("table1", lines)
