"""Cluster-of-SMPs model and hierarchical collectives tests."""

from __future__ import annotations

import pytest

from repro.core.operators import ADD, CONCAT
from repro.faults import FaultPlan, RankCrash
from repro.machine import ENGINES
from repro.machine.collectives import allreduce_butterfly, bcast_binomial, reduce_binomial
from repro.machine.engine import run_spmd
from repro.machine.run import run_ranks
from repro.machine.hierarchical import (
    TwoLevelParams,
    allreduce_hierarchical,
    bcast_hierarchical,
    reduce_hierarchical,
)
from repro.semantics.functional import UNDEF, defined_equal

#: 4 nodes x 4 cores; network start-up 100x the intra-node one
CLUSTER = TwoLevelParams(p=16, ts=1000.0, tw=4.0, m=32,
                         nodes=4, cores=4, ts_intra=10.0, tw_intra=0.2)


def run(fn, inputs, *args, params=CLUSTER):
    def prog(ctx, x):
        out = yield from fn(ctx, x, *args)
        return out

    return run_spmd(prog, inputs, params)


class TestTwoLevelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelParams(p=8, ts=1, tw=1, nodes=3, cores=3)
        with pytest.raises(ValueError):
            TwoLevelParams(p=4, ts=1, tw=1, nodes=2, cores=2, ts_intra=-1)

    def test_link_selection(self):
        assert CLUSTER.link(0, 3) == (10.0, 0.2)     # same node
        assert CLUSTER.link(0, 4) == (1000.0, 4.0)   # across nodes
        assert CLUSTER.node_of(7) == 1

    def test_flat_params_uniform_link(self):
        from repro.core.cost import MachineParams

        flat = MachineParams(p=4, ts=7.0, tw=1.0)
        assert flat.link(0, 3) == (7.0, 1.0)


class TestSemantics:
    @pytest.mark.parametrize("nodes,cores", [(1, 4), (2, 2), (4, 4), (2, 8), (8, 2)])
    def test_bcast(self, nodes, cores):
        p = nodes * cores
        params = TwoLevelParams(p=p, ts=1000, tw=4, m=8, nodes=nodes,
                                cores=cores, ts_intra=10, tw_intra=0.2)
        xs = ["blk"] + ["junk"] * (p - 1)
        res = run(bcast_hierarchical, xs, params=params)
        assert all(v == "blk" for v in res.values)

    @pytest.mark.parametrize("nodes,cores", [(1, 4), (2, 2), (4, 4), (2, 8)])
    def test_reduce_noncommutative(self, nodes, cores):
        p = nodes * cores
        params = TwoLevelParams(p=p, ts=1000, tw=4, m=8, nodes=nodes,
                                cores=cores, ts_intra=10, tw_intra=0.2)
        xs = [chr(97 + i) for i in range(p)]
        res = run(reduce_hierarchical, xs, CONCAT, params=params)
        assert res.values[0] == "".join(xs)
        assert all(v is UNDEF for v in res.values[1:])

    @pytest.mark.parametrize("nodes,cores", [(2, 2), (4, 4), (2, 8), (8, 2)])
    def test_allreduce(self, nodes, cores):
        p = nodes * cores
        params = TwoLevelParams(p=p, ts=1000, tw=4, m=8, nodes=nodes,
                                cores=cores, ts_intra=10, tw_intra=0.2)
        xs = [chr(97 + i) for i in range(p)]
        res = run(allreduce_hierarchical, xs, CONCAT, params=params)
        assert all(v == "".join(xs) for v in res.values)

    def test_flat_params_rejected(self):
        from repro.core.cost import MachineParams

        with pytest.raises(TypeError):
            run(bcast_hierarchical, [1, 2], params=MachineParams(p=2, ts=1, tw=1))


class TestHierarchicalWins:
    """On a cluster, one inter-node phase per node level beats the flat
    butterfly, which pays the slow network on most phases."""

    def test_bcast_faster_than_flat(self):
        xs = [5] + [0] * (CLUSTER.p - 1)
        t_h = run(bcast_hierarchical, xs).time
        t_f = run(bcast_binomial, xs).time
        assert t_h < t_f

    def test_allreduce_faster_than_flat(self):
        xs = list(range(CLUSTER.p))
        t_h = run(allreduce_hierarchical, xs, ADD).time
        t_f = run(allreduce_butterfly, xs, ADD).time
        assert t_h < t_f
        assert run(allreduce_hierarchical, xs, ADD).values == \
            run(allreduce_butterfly, xs, ADD).values

    def test_reduce_ties_flat_binomial(self):
        """Binomial reduce with node-major ranks IS hierarchy-shaped:
        after the intra phases only one rank per node communicates
        inter-node, so there is no NIC contention to save — the
        hierarchical algorithm exactly matches it."""
        xs = list(range(CLUSTER.p))
        t_h = run(reduce_hierarchical, xs, ADD).time
        t_f = run(reduce_binomial, xs, ADD).time
        assert t_h == pytest.approx(t_f)
        assert run(reduce_hierarchical, xs, ADD).values[0] == \
            run(reduce_binomial, xs, ADD).values[0]

    def test_contention_is_what_flat_bcast_pays(self):
        """Even with uniform link costs, the flat binomial broadcast
        funnels `cores` simultaneous messages through one NIC in its
        inter-node phases; the hierarchical version sends exactly one."""
        uniform = TwoLevelParams(p=16, ts=100, tw=2, m=32, nodes=4, cores=4,
                                 ts_intra=100, tw_intra=2)
        xs = [5] + [0] * 15
        t_h = run(bcast_hierarchical, xs, params=uniform).time
        t_f = run(bcast_binomial, xs, params=uniform).time
        assert t_h <= t_f + 1e-9

    def test_contention_free_model_unchanged(self):
        """The flat MachineParams stays contention-free: adding the
        domain hook must not alter any previous timing."""
        from repro.core.cost import MachineParams

        flat = MachineParams(p=16, ts=100.0, tw=2.0, m=32)
        xs = [5] + [0] * 15
        t = run(bcast_binomial, xs, params=flat).time
        assert t == pytest.approx(4 * (100.0 + 32 * 2.0))


class TestCrashDegradation:
    """The two-level collectives are the flat algorithms over groups, so a
    crash degrades them the flat way: ``UNDEF`` blocks on every engine,
    never a ``PeerDeadError`` out of the run (the hand-written copies had
    no fault handling and raised)."""

    SMALL = TwoLevelParams(p=8, ts=100.0, tw=2.0, m=4, nodes=4, cores=2,
                           ts_intra=5.0, tw_intra=0.5)
    CASES = {
        "bcast": (bcast_hierarchical, (), [7] + [0] * 7),
        "reduce": (reduce_hierarchical, (ADD,), list(range(1, 9))),
        "allreduce": (allreduce_hierarchical, (ADD,), list(range(1, 9))),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("victim", [pytest.param(5, id="non-leader"),
                                        pytest.param(4, id="leader")])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_crash_at_clock_zero_ends_in_undef_blocks(self, name, victim, engine):
        fn, args, xs = self.CASES[name]

        def rank_fn(ctx, x):
            out = yield from fn(ctx, x, *args)
            return out

        plan = FaultPlan(crashes=(RankCrash(rank=victim, at_clock=0.0),))
        ref = run_ranks(engine, rank_fn, xs, self.SMALL)
        res = run_ranks(engine, rank_fn, xs, self.SMALL, faults=plan)
        assert res.values[victim] is UNDEF
        assert defined_equal(res.values, ref.values)  # holes, never lies
        assert [r for r, _t in res.faults.deaths] == [victim]
        if name == "bcast":
            # the hole is confined to what hung below the victim
            lost = {5} if victim == 5 else {4, 5}
            assert {r for r, v in enumerate(res.values) if v is UNDEF} == lost
        else:
            # a lost contribution poisons the fold, as in the flat reduce
            assert all(v is UNDEF for v in res.values)
