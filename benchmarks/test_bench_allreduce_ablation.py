"""Ablation: allreduce algorithms — latency vs. bandwidth optimality.

The paper's Table 1 prices the butterfly allreduce
(``log p * (ts + m*(tw+1))``).  Modern MPI libraries switch to
Rabenseifner's reduce-scatter + allgather for large blocks
(``~2 log p * ts + 2 m tw``); our simulator's variable message sizes let
us reproduce that crossover.  Expected shape: butterfly wins for small
``m`` (fewer start-ups), Rabenseifner wins for large ``m`` (half the
bandwidth), crossover where ``log p * ts ≈ m*(tw*(log p - 2) - ...)``.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.core.cost import MachineParams
from repro.core.operators import ADD, EW_ADD
from repro.machine.collectives import (
    allgatherv_machine,
    allreduce_butterfly,
    reduce_scatter_machine,
)
from repro.machine.engine import run_spmd

P = 16
TS, TW = 600.0, 2.0
BLOCKS = [4, 16, 64, 256, 1024, 4096, 16384, 65536]


def _butterfly(ctx, x):
    out = yield from allreduce_butterfly(ctx, x, ADD)
    return out


def _decomposed(ctx, x):
    """The pair the planner reaches through Decompose-Allreduce."""
    segment = yield from reduce_scatter_machine(ctx, x, EW_ADD)
    out = yield from allgatherv_machine(ctx, segment)
    return out


def sweep():
    rows = []
    for m in BLOCKS:
        params = MachineParams(p=P, ts=TS, tw=TW, m=m)
        # semantic payloads stay small; the model's m drives the timing
        # (one element per rank, so every segment of the partition is
        # 1/p of the block, as the closed form assumes)
        t_bfly = run_spmd(_butterfly, list(range(P)), params).time
        t_dec = run_spmd(_decomposed, [[r] * P for r in range(P)],
                         params).time
        rows.append((m, t_bfly, t_dec))
    return rows


def test_allreduce_crossover(benchmark):
    rows = benchmark(sweep)
    lines = [
        f"p = {P}, ts = {TS}, tw = {TW}",
        f"{'m':>8} {'butterfly':>14} {'decomposed':>14} {'winner':>14}",
    ]
    winners = []
    for m, t_b, t_r in rows:
        winner = "butterfly" if t_b < t_r else "decomposed"
        winners.append(winner)
        lines.append(f"{m:>8} {t_b:>14.0f} {t_r:>14.0f} {winner:>14}")
    emit("ablation_allreduce", lines)

    # the crossover shape: butterfly first, decomposed eventually, and
    # once decomposed wins it keeps winning (single crossover)
    assert winners[0] == "butterfly"
    assert winners[-1] == "decomposed"
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips == 1
