"""Figure 7: BS-Comcast runtime vs. number of processors (block 32·10³).

Reproduces the paper's left plot: three implementations of the same
computation, swept over machine size at fixed block length 32000:

* ``bcast; scan``   — the rule's left-hand side (two collectives);
* ``comcast``       — the cost-optimal successive-doubling pipeline;
* ``bcast; repeat`` — broadcast + logarithmic local computation (the
  implementation the Comcast rules target).

Expected shape (and the paper's measurement): for every processor count
``bcast;repeat < comcast < bcast;scan``, all growing with log p.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import emit, emit_json
from repro.core.cost import MachineParams
from repro.core.rules.comcast import BS_COMCAST
from repro.core.stages import Program
from repro.machine import simulate_program

BLOCK = 32_000
PROC_COUNTS = [2, 4, 8, 16, 32, 64]
TS, TW = 600.0, 2.0

LHS = Program(BS_COMCAST.exemplar, name="bcast;scan")
(_COMCAST,) = BS_COMCAST.rewrite(LHS.stages)
REPEAT = Program([_COMCAST], name="bcast;repeat")
DOUBLING = Program([replace(_COMCAST, impl="doubling")], name="comcast")


def sweep() -> list[tuple[int, float, float, float]]:
    rows = []
    for p in PROC_COUNTS:
        params = MachineParams(p=p, ts=TS, tw=TW, m=BLOCK)
        xs = [7] * p
        t_lhs = simulate_program(LHS, xs, params).time
        t_dbl = simulate_program(DOUBLING, xs, params).time
        t_rep = simulate_program(REPEAT, xs, params).time
        rows.append((p, t_lhs, t_dbl, t_rep))
    return rows


def test_fig7_time_vs_processors(benchmark):
    rows = benchmark(sweep)
    lines = [
        f"block size m = {BLOCK}, ts = {TS}, tw = {TW}",
        f"{'procs':>6} {'bcast;scan':>14} {'comcast':>14} {'bcast;repeat':>14}",
    ]
    for p, t_lhs, t_dbl, t_rep in rows:
        lines.append(f"{p:>6} {t_lhs:>14.0f} {t_dbl:>14.0f} {t_rep:>14.0f}")
        # the paper's measured ordering at every machine size:
        assert t_rep < t_dbl < t_lhs, f"ordering broken at p={p}"
    # all three grow with the machine size (log p factor)
    for col in (1, 2, 3):
        series = [r[col] for r in rows]
        assert series == sorted(series)
    # results agree: all three compute [b, 2b, 3b, ...]
    p = 8
    params = MachineParams(p=p, ts=TS, tw=TW, m=BLOCK)
    want = [7 * (k + 1) for k in range(p)]
    for prog in (LHS, DOUBLING, REPEAT):
        assert list(simulate_program(prog, [7] * p, params).values) == want
    emit("fig7_time_vs_processors", lines)
    emit_json("fig7", {
        "figure": "fig7",
        "op": "bs_comcast(add)",
        "block": BLOCK,
        "ts": TS,
        "tw": TW,
        "series": [
            {"p": p, "backend": name, "sim_time": t}
            for p, t_lhs, t_dbl, t_rep in rows
            for name, t in (("bcast;scan", t_lhs), ("comcast", t_dbl),
                            ("bcast;repeat", t_rep))
        ],
    })
