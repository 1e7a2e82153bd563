"""Bandwidth-optimal collective vocabulary: reduce_scatter / allgatherv.

Three layers of checks:

* machine algorithms vs the reference semantics, differentially across
  the cooperative, threaded and vectorized substrates, with emphasis on
  *irregular* distributions (empty segments, ``p = 1``, non-divisible
  block lengths, one rank holding everything);
* golden cost-model values — the closed forms are pinned numerically and
  cross-validated against simulated makespans on power-of-two machines;
* planner agreement — every search strategy picks the decomposition in
  the bandwidth regime (large ``m``) and the butterfly in the latency
  regime (small ``m``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import (
    MachineParams,
    allgatherv_cost,
    decomposed_allreduce_cost,
    program_cost,
    reduce_scatter_cost,
    stage_cost,
)
from repro.core.operators import ADD, CONCAT, EW_ADD, EW_MAX, elementwise_op
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllGatherVStage,
    AllReduceStage,
    Program,
    ReduceScatterStage,
)
from repro.machine import simulate_program
from repro.machine.collectives import allgatherv_machine, reduce_scatter_machine
from repro.machine.engine import run_spmd
from repro.semantics.vocabulary import (
    allgatherv_fn,
    balanced_counts,
    reduce_scatter_fn,
    split_by_counts,
)

PARAMS = MachineParams(p=8, ts=100.0, tw=2.0, m=16)
SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16]

EW_CONCAT = elementwise_op(CONCAT)  # non-commutative: rank-order sensitive


def run_collective(fn, inputs, *args, params=PARAMS, **kwargs):
    def prog(ctx, x):
        result = yield from fn(ctx, x, *args, **kwargs)
        return result

    return run_spmd(prog, inputs, params)


def _irregular_counts(n: int, p: int, seed: int) -> tuple[int, ...]:
    """A deterministic irregular partition of ``n`` over ``p`` ranks.

    Deliberately lumpy: some ranks get empty segments, one rank may get
    nearly everything.
    """
    import random

    rng = random.Random(seed)
    counts = [0] * p
    for _ in range(n):
        counts[rng.randrange(p)] += 1
    return tuple(counts)


class TestReduceScatterMachine:
    @pytest.mark.parametrize("p", SIZES)
    def test_balanced_matches_reference(self, p):
        n = 11  # non-divisible for most p
        blocks = [[(r * 31 + j) % 17 for j in range(n)] for r in range(p)]
        want = reduce_scatter_fn(blocks, EW_ADD)
        res = run_collective(reduce_scatter_machine, blocks, EW_ADD,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_irregular_counts_match_reference(self, p, seed):
        n = 13
        counts = _irregular_counts(n, p, seed)
        blocks = [[(r * 7 + j) % 23 for j in range(n)] for r in range(p)]
        want = reduce_scatter_fn(blocks, EW_ADD, counts)
        res = run_collective(reduce_scatter_machine, blocks, EW_ADD,
                             counts=counts,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]

    @pytest.mark.parametrize("p", [2, 4, 5, 8])
    def test_single_rank_holds_everything(self, p):
        n = 9
        counts = tuple([0] * (p - 1) + [n])  # the last rank takes it all
        blocks = [[r + j for j in range(n)] for r in range(p)]
        want = reduce_scatter_fn(blocks, EW_ADD, counts)
        res = run_collective(reduce_scatter_machine, blocks, EW_ADD,
                             counts=counts,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]

    def test_p1_identity(self):
        res = run_collective(reduce_scatter_machine, [[1, 2, 3]], EW_ADD,
                             params=MachineParams(p=1, ts=10, tw=1, m=3))
        assert list(res.values[0]) == [1, 2, 3]

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_noncommutative_rank_order(self, p):
        n = 7
        blocks = [[f"<{r}.{j}>" for j in range(n)] for r in range(p)]
        want = reduce_scatter_fn(blocks, EW_CONCAT)
        res = run_collective(reduce_scatter_machine, blocks, EW_CONCAT,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]


class TestAllGatherVMachine:
    @pytest.mark.parametrize("p", SIZES)
    def test_balanced_matches_reference(self, p):
        n = 11
        counts = balanced_counts(n, p)
        block = [(3 * j) % 19 for j in range(n)]
        segs = split_by_counts(block, counts)
        want = allgatherv_fn(segs, counts)
        res = run_collective(allgatherv_machine, segs, counts=counts,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_irregular_counts_match_reference(self, p, seed):
        n = 13
        counts = _irregular_counts(n, p, seed)
        block = list(range(n))
        segs = split_by_counts(block, counts)
        want = allgatherv_fn(segs, counts)
        res = run_collective(allgatherv_machine, segs, counts=counts,
                             params=MachineParams(p=p, ts=10, tw=1, m=n))
        assert [list(v) for v in res.values] == [list(w) for w in want]

    def test_p1_identity(self):
        res = run_collective(allgatherv_machine, [[5, 6]],
                             params=MachineParams(p=1, ts=10, tw=1, m=2))
        assert list(res.values[0]) == [5, 6]


class TestDecompositionIdentity:
    """reduce_scatter ; allgatherv  ≡  allreduce — end to end."""

    @given(
        p=st.sampled_from([1, 2, 3, 4, 5, 7, 8]),
        n=st.integers(1, 20),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_machine_pipeline_equals_allreduce(self, p, n, seed):
        import random

        rng = random.Random(seed)
        blocks = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(p)]
        params = MachineParams(p=p, ts=10, tw=1, m=n)

        def pipeline(ctx, x):
            seg = yield from reduce_scatter_machine(ctx, x, EW_ADD)
            out = yield from allgatherv_machine(ctx, seg)
            return out

        res = run_spmd(pipeline, blocks, params)
        want = [sum(blocks[r][j] for r in range(p)) for j in range(n)]
        assert all(list(v) == want for v in res.values)


class TestEnginesAgree:
    """Differential: cooperative vs threaded vs vectorized kernels."""

    @pytest.mark.parametrize("counts", [None, (5, 0, 2, 1), (0, 0, 8, 0)])
    def test_threaded_bit_identical(self, counts):
        p, n = 4, 8
        prog = Program([ReduceScatterStage(EW_ADD, counts=counts),
                        AllGatherVStage(counts=counts)])
        blocks = [[(r * 5 + j) % 13 for j in range(n)] for r in range(p)]
        params = MachineParams(p=p, ts=50, tw=2, m=n)
        a = simulate_program(prog, blocks, params)
        b = simulate_program(prog, blocks, params, engine="threaded")
        assert [list(v) for v in a.values] == [list(v) for v in b.values]
        assert a.stats.clocks == b.stats.clocks

    @pytest.mark.parametrize("counts", [None, (5, 0, 2, 1)])
    def test_vectorized_matches_object_mode(self, counts):
        p, n = 4, 8
        prog = Program([ReduceScatterStage(EW_ADD, counts=counts),
                        AllGatherVStage(counts=counts)])
        blocks = [np.arange(n, dtype=np.int64) * (r + 1) for r in range(p)]
        params = MachineParams(p=p, ts=50, tw=2, m=n)
        a = simulate_program(prog, blocks, params)
        v = simulate_program(prog, blocks, params, jit=True)
        assert [list(np.asarray(x)) for x in a.values] == \
               [list(np.asarray(x)) for x in v.values]
        assert a.time == v.time

    def test_max_operator_across_engines(self):
        p, n = 8, 6
        prog = Program([ReduceScatterStage(EW_MAX), AllGatherVStage()])
        blocks = [np.array([(r * 11 + j) % 9 - 4 for j in range(n)],
                           dtype=np.int64) for r in range(p)]
        params = MachineParams(p=p, ts=50, tw=2, m=n)
        a = simulate_program(prog, blocks, params)
        b = simulate_program(prog, blocks, params, engine="threaded",
                             jit=True)
        assert [list(np.asarray(x)) for x in a.values] == \
               [list(np.asarray(x)) for x in b.values]


class TestGoldenCostModel:
    """Pinned closed forms + simulated-time cross-validation."""

    def test_decomposed_formula_literal(self):
        # the measured form at unit width/op-count on a power-of-two
        # machine:  2·log p·ts + 2·m·tw·(1 − 1/p) + m·(1 − 1/p)
        p, ts, tw, m = 8, 100.0, 2.0, 1 << 14
        params = MachineParams(p=p, ts=ts, tw=tw, m=m)
        want = (2 * 3 * ts + 2 * m * tw * (1 - 1 / p) + m * (1 - 1 / p))
        assert decomposed_allreduce_cost(params, EW_ADD) == pytest.approx(want)

    def test_golden_values(self):
        params = MachineParams(p=8, ts=100.0, tw=2.0, m=1024)
        # halving: 3 startups, volume m*(1-1/p) words + as many combines
        assert reduce_scatter_cost(params, EW_ADD) == pytest.approx(
            3 * 100.0 + 1024 * (7 / 8) * (2.0 + 1.0))
        # doubling: 3 startups, volume m*(1-1/p) words
        assert allgatherv_cost(params) == pytest.approx(
            3 * 100.0 + 1024 * (7 / 8) * 2.0)
        # butterfly allreduce: log p startups, full block every phase
        assert stage_cost(AllReduceStage(EW_ADD), params) == pytest.approx(
            3 * (100.0 + 1024 * (2.0 + 1.0)))

    def test_crossover_direction(self):
        small = MachineParams(p=8, ts=600.0, tw=2.0, m=4)
        large = MachineParams(p=8, ts=600.0, tw=2.0, m=1 << 14)
        bfly_small = stage_cost(AllReduceStage(EW_ADD), small)
        bfly_large = stage_cost(AllReduceStage(EW_ADD), large)
        assert decomposed_allreduce_cost(small, EW_ADD) > bfly_small
        assert decomposed_allreduce_cost(large, EW_ADD) < bfly_large

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_sim_time_matches_model(self, p):
        # power-of-two machine, divisible block: exact agreement
        n = 16 * p
        params = MachineParams(p=p, ts=250.0, tw=3.0, m=n)
        prog = Program([ReduceScatterStage(EW_ADD), AllGatherVStage()])
        blocks = [[(r + j) % 5 for j in range(n)] for r in range(p)]
        sim = simulate_program(prog, blocks, params)
        assert sim.time == pytest.approx(program_cost(prog, params))
        assert sim.time == pytest.approx(decomposed_allreduce_cost(params, EW_ADD))


class TestPlannerAgreement:
    @pytest.mark.parametrize("strategy", ["greedy", "beam", "exhaustive"])
    def test_decomposition_picked_at_large_m(self, strategy):
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=1 << 14)
        prog = Program([AllReduceStage(EW_ADD)])
        result = optimize(prog, params, rules=FULL_RULES, strategy=strategy)
        kinds = [type(s) for s in result.program.stages]
        assert kinds == [ReduceScatterStage, AllGatherVStage]
        assert result.cost_after == pytest.approx(
            decomposed_allreduce_cost(params, EW_ADD))

    @pytest.mark.parametrize("strategy", ["greedy", "beam", "exhaustive"])
    def test_butterfly_kept_at_small_m(self, strategy):
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=4)
        prog = Program([AllReduceStage(EW_ADD)])
        result = optimize(prog, params, rules=FULL_RULES, strategy=strategy)
        assert [type(s) for s in result.program.stages] == [AllReduceStage]

    @pytest.mark.parametrize("strategy", ["beam", "exhaustive"])
    def test_compose_direction(self, strategy):
        # a hand-decomposed pipeline is folded back in the latency regime
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=4)
        prog = Program([ReduceScatterStage(EW_ADD), AllGatherVStage()])
        result = optimize(prog, params, rules=FULL_RULES, strategy=strategy)
        assert [type(s) for s in result.program.stages] == [AllReduceStage]
