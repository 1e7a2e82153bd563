"""Rabenseifner (reduce-scatter + allgather) allreduce tests.

The allreduce under test is the pair the planner reaches through
Decompose-Allreduce — ``reduce_scatter_machine`` then
``allgatherv_machine`` over ``elementwise_op(op)`` — which is what every
case here ran against once the hand-written second copy of that schedule
(``machine/collectives/rabenseifner.py``) was deleted.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import MachineParams
from repro.core.operators import ADD, CONCAT, MATMUL2, elementwise_op
from repro.machine.collectives import (
    allgatherv_machine,
    allreduce_butterfly,
    reduce_scatter_machine,
)
from repro.machine.engine import run_spmd

PARAMS = MachineParams(p=8, ts=100.0, tw=2.0, m=8)


def allreduce_rabenseifner(ctx, block, op):
    """``reduce_scatter ; allgatherv`` of an m-element block under the
    elementwise lift of ``op``, default (balanced) partition."""
    segment = yield from reduce_scatter_machine(ctx, block, elementwise_op(op))
    out = yield from allgatherv_machine(ctx, segment, width=op.width)
    return out


def run(fn, blocks, op, params=PARAMS):
    def prog(ctx, x):
        out = yield from fn(ctx, x, op)
        return out

    return run_spmd(prog, blocks, params)


class TestSemantics:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 8, 12, 16, 32])
    def test_noncommutative_rank_order(self, p):
        n = 8
        blocks = [[f"<{r}.{j}>" for j in range(n)] for r in range(p)]
        res = run(allreduce_rabenseifner, blocks, CONCAT,
                  MachineParams(p=p, ts=10, tw=1, m=n))
        want = ["".join(f"<{r}.{j}>" for r in range(p)) for j in range(n)]
        assert all(list(v) == want for v in res.values)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64])
    def test_odd_block_lengths(self, n):
        p = 8
        blocks = [[(r * 31 + j) % 17 for j in range(n)] for r in range(p)]
        res = run(allreduce_rabenseifner, blocks, ADD,
                  MachineParams(p=p, ts=10, tw=1, m=max(n, 1)))
        want = [sum(blocks[r][j] for r in range(p)) for j in range(n)]
        assert all(list(v) == want for v in res.values)

    def test_block_shorter_than_machine(self):
        p, n = 16, 3
        blocks = [[r, r, r] for r in range(p)]
        res = run(allreduce_rabenseifner, blocks, ADD,
                  MachineParams(p=p, ts=10, tw=1, m=n))
        want = [sum(range(p))] * 3
        assert all(list(v) == want for v in res.values)

    def test_matrix_blocks(self):
        p, n = 4, 4
        blocks = [[((1, r + j), (0, 1)) for j in range(n)] for r in range(p)]
        res = run(allreduce_rabenseifner, blocks, MATMUL2,
                  MachineParams(p=p, ts=10, tw=1, m=n))
        for j in range(n):
            want = blocks[0][j]
            for r in range(1, p):
                want = MATMUL2(want, blocks[r][j])
            assert all(v[j] == want for v in res.values)

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 12])
    def test_non_power_of_two_folds(self, p):
        # excess ranks fold pairwise into a power-of-two core and unfold
        # afterwards; the allgatherv half runs its segment ring
        n = 6
        blocks = [[(r * 13 + j) % 11 for j in range(n)] for r in range(p)]
        res = run(allreduce_rabenseifner, blocks, ADD,
                  MachineParams(p=p, ts=10, tw=1, m=n))
        want = [sum(blocks[r][j] for r in range(p)) for j in range(n)]
        assert all(list(v) == want for v in res.values)

    @given(
        p=st.sampled_from([2, 3, 4, 5, 6, 8]),
        n=st.integers(1, 24),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_butterfly(self, p, n, seed):
        import random

        rng = random.Random(seed)
        blocks = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(p)]
        params = MachineParams(p=p, ts=10, tw=1, m=n)
        a = run(allreduce_rabenseifner, blocks, ADD, params)
        # butterfly over whole blocks with an elementwise list operator
        from repro.core.operators import BinOp

        LADD = BinOp("ladd", lambda x, y: [a + b for a, b in zip(x, y)],
                     commutative=True)
        b = run(allreduce_butterfly, blocks, LADD, params)
        assert [list(v) for v in a.values] == [list(v) for v in b.values]


class TestBandwidthLatencyTradeoff:
    def test_butterfly_wins_small_blocks(self):
        p = 16
        params = MachineParams(p=p, ts=600.0, tw=2.0, m=4)
        t_r = run(allreduce_rabenseifner, [[r] * 4 for r in range(p)], ADD,
                  params).time
        t_b = run(allreduce_butterfly, [list(range(4))] * p,
                  _LADD, params).time
        assert t_b < t_r

    def test_rabenseifner_wins_large_blocks(self):
        p = 16
        params = MachineParams(p=p, ts=600.0, tw=2.0, m=16384)
        t_r = run(allreduce_rabenseifner, [[r] * 8 for r in range(p)], ADD,
                  params).time
        t_b = run(allreduce_butterfly, [r for r in range(p)], ADD, params).time
        assert t_r < t_b


from repro.core.operators import BinOp as _BinOp  # noqa: E402

_LADD = _BinOp("ladd", lambda x, y: [a + b for a, b in zip(x, y)],
               commutative=True)
