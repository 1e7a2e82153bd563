"""Figure 8: BS-Comcast runtime vs. block size on 64 processors.

The paper's right plot: the same three implementations swept over the
block length at a fixed 64-processor machine.  Expected shape: all three
linear in m; ``bcast;repeat`` always lowest; ``comcast`` always below
``bcast;scan`` (it saves one start-up per phase), with the gap constant
in m — exactly what the MPICH measurements in the paper show.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import emit, emit_json
from repro.core.cost import MachineParams
from repro.core.rules.comcast import BS_COMCAST
from repro.core.stages import Program
from repro.machine import simulate_program

P = 64
BLOCKS = [1000, 5000, 10_000, 15_000, 20_000, 25_000, 30_000, 35_000]
TS, TW = 600.0, 2.0

LHS = Program(BS_COMCAST.exemplar, name="bcast;scan")
(_COMCAST,) = BS_COMCAST.rewrite(LHS.stages)
REPEAT = Program([_COMCAST], name="bcast;repeat")
DOUBLING = Program([replace(_COMCAST, impl="doubling")], name="comcast")


def sweep() -> list[tuple[int, float, float, float]]:
    rows = []
    xs = [3] * P
    for m in BLOCKS:
        params = MachineParams(p=P, ts=TS, tw=TW, m=m)
        rows.append((
            m,
            simulate_program(LHS, xs, params).time,
            simulate_program(DOUBLING, xs, params).time,
            simulate_program(REPEAT, xs, params).time,
        ))
    return rows


def test_fig8_time_vs_block_size(benchmark):
    rows = benchmark(sweep)
    lines = [
        f"processors p = {P}, ts = {TS}, tw = {TW}",
        f"{'block':>8} {'bcast;scan':>14} {'comcast':>14} {'bcast;repeat':>14}",
    ]
    for m, t_lhs, t_dbl, t_rep in rows:
        lines.append(f"{m:>8} {t_lhs:>14.0f} {t_dbl:>14.0f} {t_rep:>14.0f}")
        assert t_rep < t_dbl < t_lhs, f"ordering broken at m={m}"
    # linear growth in m: second differences vanish
    for col in (1, 2, 3):
        series = [r[col] for r in rows]
        diffs = [b - a for a, b in zip(series, series[1:])]
        assert max(diffs[1:-1]) - min(diffs[1:-1]) < 1e-6 * max(series)
    # the comcast-vs-scan gap is the saved start-ups: constant in m
    gaps = [t_lhs - t_dbl for _, t_lhs, t_dbl, _ in rows]
    assert max(gaps) - min(gaps) < 1e-6 * max(gaps)
    emit("fig8_time_vs_block_size", lines)
    emit_json("fig8", {
        "figure": "fig8",
        "op": "bs_comcast(add)",
        "p": P,
        "ts": TS,
        "tw": TW,
        "series": [
            {"block": m, "backend": name, "sim_time": t}
            for m, t_lhs, t_dbl, t_rep in rows
            for name, t in (("bcast;scan", t_lhs), ("comcast", t_dbl),
                            ("bcast;repeat", t_rep))
        ],
    })
