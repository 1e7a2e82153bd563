"""Figure 3: impact of rule SR2-Reduction on program Example.

The paper's Figure 3 is schematic — it shows the scan+reduce pair of
collectives collapsing into a single reduction, with the saved time
growing out of the removed start-ups.  We quantify it: program Example
is simulated before and after SR2-Reduction over a start-up-time sweep;
the saving must equal one ``log p * ts`` (one collective eliminated) and
therefore grow linearly with ts — "always" improving, per Table 1.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.apps import build_example
from repro.core.cost import MachineParams
from repro.core.optimizer import optimize
from repro.machine import simulate_program
from repro.semantics.functional import defined_equal

P, M, TW = 16, 256, 2.0
TS_SWEEP = [10.0, 50.0, 100.0, 300.0, 600.0, 1200.0, 5000.0]


def sweep() -> list[tuple[float, float, float]]:
    prog = build_example()
    xs = list(range(1, P + 1))
    rows = []
    for ts in TS_SWEEP:
        params = MachineParams(p=P, ts=ts, tw=TW, m=M)
        res = optimize(prog, params, rules=[r for r in _sr2_only()])
        t_before = simulate_program(prog, xs, params).time
        t_after = simulate_program(res.program, xs, params).time
        rows.append((ts, t_before, t_after))
    return rows


def _sr2_only():
    from repro.core.rules import SR2_REDUCTION

    return [SR2_REDUCTION]


def test_fig3_sr2_on_example(benchmark):
    rows = benchmark(sweep)
    import math

    log_p = math.log2(P)
    lines = [
        f"p = {P}, m = {M}, tw = {TW}  (program Example, rule SR2-Reduction)",
        f"{'ts':>8} {'before':>12} {'after':>12} {'saved':>10} {'log p * ts':>12}",
    ]
    for ts, before, after in rows:
        saved = before - after
        lines.append(f"{ts:>8.0f} {before:>12.0f} {after:>12.0f} "
                     f"{saved:>10.0f} {log_p * ts:>12.0f}")
        # SR2-Reduction improves ALWAYS, and the saving is exactly the
        # eliminated collective's start-ups (the op-count is unchanged: 3).
        assert after < before
        assert saved == pytest.approx(log_p * ts)
    emit("fig3_sr2_on_example", lines)

    # semantics preserved at a spot-check point
    prog = build_example()
    params = MachineParams(p=P, ts=600.0, tw=TW, m=M)
    res = optimize(prog, params)
    xs = list(range(1, P + 1))
    assert defined_equal(prog.run(xs), res.program.run(xs))
