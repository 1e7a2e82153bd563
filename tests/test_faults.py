"""Fault-injection layer: plans, engine semantics, and self-stabilization.

Covers the contract of ``docs/FAULTS.md``: zero-overhead happy path
(disabled injection is bit-identical to the fault-free build), transient
drops recover as pure extra latency, dead links surface as typed
``FaultTimeoutError`` naming the link, crashed ranks degrade collectives
to ``UNDEF`` holes (never wrong defined values), and both execution
engines observe an identical faulted world — values, masks, and clocks.
"""

from __future__ import annotations

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD, CONCAT, MUL
from repro.core.stages import (
    AllGatherStage,
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
    ScatterStage,
)
from repro.faults import (
    FaultPlan,
    FaultTimeoutError,
    LinkFault,
    PeerDeadError,
    RankCrash,
)
from repro.machine import ENGINES
from repro.machine.collectives import scatter_binomial, scatterv_binomial
from repro.machine.engine import DeadlockError, run_spmd
from repro.machine.run import simulate_program
from repro.mpi import Comm, spmd_run
from repro.mpi.threaded import ThreadedComm, threaded_spmd_run
from repro.semantics.functional import UNDEF, defined_equal

PARAMS = MachineParams(p=8, ts=10.0, tw=1.0, m=4)

MIXED = Program(
    [MapStage(lambda x: x + 1, label="inc", ops_per_element=1),
     ScanStage(ADD), ReduceStage(ADD), BcastStage()],
    name="mixed",
)

COLLECTIVES = {
    "scan": Program([ScanStage(ADD)]),
    "reduce": Program([ReduceStage(ADD)]),
    "allreduce": Program([AllReduceStage(ADD)]),
    "bcast": Program([BcastStage()]),
}


# ---------------------------------------------------------------------------
# Zero-overhead happy path
# ---------------------------------------------------------------------------


class TestZeroOverhead:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_disabled_injection_is_bit_identical(self, p):
        """faults=None and an empty plan reproduce the fault-free run exactly."""
        xs = list(range(1, p + 1))
        baseline = simulate_program(MIXED, xs, PARAMS)
        for faults in (None, FaultPlan()):
            res = simulate_program(MIXED, xs, PARAMS, faults=faults)
            assert res.values == baseline.values
            assert res.time == baseline.time
            assert res.stats.clocks == baseline.stats.clocks
            assert res.stats.compute_ops == baseline.stats.compute_ops
            assert res.stats.messages == baseline.stats.messages
            assert res.stats.words == baseline.stats.words
            assert res.faults is None

    def test_disabled_injection_threaded(self):
        xs = [3, 1, 4, 1, 5, 9, 2, 6]
        baseline = simulate_program(MIXED, xs, PARAMS, engine="threaded")
        for faults in (None, FaultPlan()):
            res = simulate_program(MIXED, xs, PARAMS, faults=faults,
                                   engine="threaded")
            assert res.values == baseline.values
            assert res.stats.clocks == baseline.stats.clocks
            assert res.stats.compute_ops == baseline.stats.compute_ops
            assert res.faults is None


# ---------------------------------------------------------------------------
# Drops, retries, timeouts
# ---------------------------------------------------------------------------


def _pingpong(comm: Comm, x):
    if comm.rank == 0:
        yield from comm.send(x, dest=1, words=4)
        return x
    got = yield from comm.recv(source=0)
    return got


class TestDropRetry:
    def test_transient_drop_is_pure_extra_latency(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=1),))
        clean = spmd_run(_pingpong, [7, None], PARAMS)
        faulted = spmd_run(_pingpong, [7, None], PARAMS, faults=plan)
        assert faulted.values == clean.values == (7, 7)
        # first retry penalty = 2 * (ts + words*tw) = 2 * 14
        assert faulted.time == clean.time + 2 * 14.0
        assert faulted.faults.retries == 1
        assert faulted.faults.any_fired

    def test_dead_link_raises_typed_timeout_naming_the_link(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
        with pytest.raises(FaultTimeoutError, match=r"0->1") as exc_info:
            spmd_run(_pingpong, [7, None], PARAMS, faults=plan)
        assert isinstance(exc_info.value, TimeoutError)
        # forensic per-rank state rides along
        assert "rank 0" in str(exc_info.value)

    def test_dead_link_threaded_same_error(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))

        def prog(comm: ThreadedComm, x):
            if comm.rank == 0:
                comm.send(x, dest=1, words=4)
                return x
            return comm.recv(source=0)

        with pytest.raises(FaultTimeoutError, match=r"0->1"):
            threaded_spmd_run(prog, [7, None], PARAMS, faults=plan)

    def test_delay_and_dup_charge_time_but_keep_values(self):
        plan = FaultPlan(link_faults=(
            LinkFault(0, 1, "delay", count=1, delay=5.0),
            LinkFault(1, 0, "dup", count=1),
        ))
        prog = COLLECTIVES["allreduce"]
        xs = [1, 2]
        clean = simulate_program(prog, xs, PARAMS)
        faulted = simulate_program(prog, xs, PARAMS, faults=plan)
        assert faulted.values == clean.values
        assert faulted.time > clean.time
        assert faulted.faults.duplicates == 1


# ---------------------------------------------------------------------------
# Crashes and self-stabilizing degradation
# ---------------------------------------------------------------------------


class TestCrashDegradation:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize("victim", [0, 3, 7])
    def test_crash_yields_undef_holes_never_lies(self, name, victim):
        prog = COLLECTIVES[name]
        xs = list(range(1, 9))
        plan = FaultPlan(crashes=(RankCrash(rank=victim, at_clock=0.0),))
        ref = simulate_program(prog, xs, PARAMS)
        res = simulate_program(prog, xs, PARAMS, faults=plan)
        assert res.values[victim] is UNDEF
        # soundness: every defined block equals the fault-free value
        assert defined_equal(res.values, ref.values)
        assert [r for r, _t in res.faults.deaths] == [victim]

    def test_crash_mid_run_degrades_partially(self):
        # rank 3 dies after the scan's first phase: lower prefixes survive
        xs = list(range(1, 9))
        plan = FaultPlan(crashes=(RankCrash(rank=3, at_clock=1.0),))
        ref = simulate_program(COLLECTIVES["scan"], xs, PARAMS)
        res = simulate_program(COLLECTIVES["scan"], xs, PARAMS, faults=plan)
        assert defined_equal(res.values, ref.values)
        assert any(v is UNDEF for v in res.values)
        assert any(v is not UNDEF for v in res.values)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("p", [pytest.param(6, id="ring"),
                                   pytest.param(8, id="doubling")])
    @pytest.mark.parametrize("victim", [0, 3])
    def test_allgather_crash_leaves_holes_in_the_gathered_list(
            self, victim, p, engine):
        prog, xs = Program([AllGatherStage()]), list(range(1, p + 1))
        plan = FaultPlan(crashes=(RankCrash(rank=victim, at_clock=0.0),))
        params = PARAMS.with_(p=p)
        ref = simulate_program(prog, xs, params, engine=engine)
        res = simulate_program(prog, xs, params, faults=plan, engine=engine)
        assert res.values[victim] is UNDEF
        for r in set(range(p)) - {victim}:
            assert res.values[r][victim] is UNDEF  # never forwarded
            assert res.values[r][r] == xs[r]
            assert defined_equal(res.values[r], ref.values[r])

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("victim,lost", [
        pytest.param(0, range(8), id="root"),
        pytest.param(4, range(4, 8), id="half"),
        pytest.param(6, (6, 7), id="pair"),
        pytest.param(5, (5,), id="leaf")])
    def test_scatter_crash_degrades_the_subtree_below_it(
            self, victim, lost, engine):
        prog = Program([ScatterStage()])
        xs = [list(range(10, 18))] + [None] * 7
        plan = FaultPlan(crashes=(RankCrash(rank=victim, at_clock=0.0),))
        res = simulate_program(prog, xs, PARAMS, faults=plan, engine=engine)
        assert res.values == tuple(UNDEF if r in lost else 10 + r
                                   for r in range(8))

    @pytest.mark.parametrize("scatter", [
        pytest.param(lambda ctx, x: scatter_binomial(ctx, x), id="scatter"),
        pytest.param(lambda ctx, x: scatterv_binomial(ctx, x, 1.0), id="scatterv"),
    ])
    def test_scatter_below_a_dead_parent_keeps_the_schedule(self, scatter):
        """Rank 4 dies holding ranks 5-7's blocks: 6 still forwards the
        hole to 7 (the v-variant used to skip the empty message and leave
        7 waiting: a ``DeadlockError``), and an undefined root list
        degrades every block."""
        def prog(ctx, x):
            return (yield from scatter(ctx, x))

        plan = FaultPlan(crashes=(RankCrash(rank=4, at_clock=0.0),))
        xs = [[[r] for r in range(8)]] + [None] * 7
        res = run_spmd(prog, xs, PARAMS, faults=plan)
        assert res.values == ([0], [1], [2], [3], UNDEF, UNDEF, UNDEF, UNDEF)
        res = run_spmd(prog, [UNDEF] + [None] * 7, PARAMS)
        assert res.values == (UNDEF,) * 8

    def test_uncaught_peer_death_is_typed_not_a_hang(self):
        # a raw point-to-point program does not catch PeerDeadError
        plan = FaultPlan(crashes=(RankCrash(rank=0, at_clock=0.0),))
        with pytest.raises(PeerDeadError, match=r"peer 0 crashed"):
            spmd_run(_pingpong, [7, None], PARAMS, faults=plan)


# ---------------------------------------------------------------------------
# Edge sweep: every link of every p=8 collective, transient and dead
# ---------------------------------------------------------------------------


def _edges_of(prog: Program) -> list:
    stats = simulate_program(prog, list(range(1, 9)), PARAMS).stats
    return sorted({(src, dst) for src, dst, _t, _w in stats.events})


@pytest.mark.parametrize("name", sorted(COLLECTIVES))
class TestEdgeSweep:
    def test_every_edge_recovers_from_transient_drop(self, name):
        prog = COLLECTIVES[name]
        xs = list(range(1, 9))
        ref = simulate_program(prog, xs, PARAMS)
        for src, dst in _edges_of(prog):
            plan = FaultPlan(link_faults=(LinkFault(src, dst, "drop", count=1),))
            res = simulate_program(prog, xs, PARAMS, faults=plan)
            assert res.values == ref.values, f"edge {src}->{dst}"
            assert res.time >= ref.time, f"edge {src}->{dst}"

    def test_every_edge_dead_raises_timeout_naming_it(self, name):
        prog = COLLECTIVES[name]
        xs = list(range(1, 9))
        for src, dst in _edges_of(prog):
            plan = FaultPlan(link_faults=(LinkFault(src, dst, "drop",
                                                    count=None),))
            with pytest.raises(TimeoutError) as exc_info:
                simulate_program(prog, xs, PARAMS, faults=plan)
            named = str(exc_info.value)
            assert (f"{src}->{dst}" in named or f"{dst}->{src}" in named), \
                f"edge {src}->{dst}: {named.splitlines()[0]}"


# ---------------------------------------------------------------------------
# Engine agreement under a fixed plan
# ---------------------------------------------------------------------------


MESSY_PLAN = FaultPlan(
    link_faults=(
        LinkFault(0, 1, "drop", count=1),
        LinkFault(2, 3, "delay", count=2, delay=7.5),
        LinkFault(4, 5, "dup", count=1),
    ),
    crashes=(RankCrash(rank=6, at_clock=20.0),),
    jitter=0.25,
    seed=42,
)


class TestEngineAgreement:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_machine_and_threaded_observe_the_same_world(self, name):
        prog = COLLECTIVES[name]
        xs = list(range(1, 9))
        mach = simulate_program(prog, xs, PARAMS, faults=MESSY_PLAN)
        thr = simulate_program(prog, xs, PARAMS, faults=MESSY_PLAN,
                               engine="threaded")
        assert mach.values == thr.values
        assert mach.stats.clocks == thr.stats.clocks
        assert mach.faults == thr.faults

    def test_agreement_on_multi_stage_program(self):
        xs = list(range(1, 9))
        mach = simulate_program(MIXED, xs, PARAMS, faults=MESSY_PLAN)
        thr = simulate_program(MIXED, xs, PARAMS, faults=MESSY_PLAN,
                               engine="threaded")
        assert mach.values == thr.values
        assert mach.stats.clocks == thr.stats.clocks


# ---------------------------------------------------------------------------
# Plans: sampling, validation, replayability
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_sample_is_deterministic(self):
        for seed in range(30):
            a = FaultPlan.sample(seed, p=8, horizon=50.0)
            b = FaultPlan.sample(seed, p=8, horizon=50.0)
            assert a == b
            assert a.describe() == b.describe()

    def test_sample_never_empty_for_multirank(self):
        for seed in range(50):
            assert not FaultPlan.sample(seed, p=4).is_empty

    def test_jitter_is_hash_randomization_free(self):
        plan = FaultPlan(jitter=1.0, seed=9)
        vals = [plan.jitter_for(0, 1, n) for n in range(5)]
        assert vals == [plan.jitter_for(0, 1, n) for n in range(5)]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(0, 0)
        with pytest.raises(ValueError):
            LinkFault(0, 1, kind="explode")
        with pytest.raises(ValueError):
            RankCrash(rank=-1)
        with pytest.raises(ValueError):
            FaultPlan(jitter=-1.0)

    def test_empty_plan_detection(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(crashes=(RankCrash(0),)).is_empty
        assert not FaultPlan(jitter=0.5).is_empty


# ---------------------------------------------------------------------------
# Shared deadlock forensics (describe_ranks)
# ---------------------------------------------------------------------------


def _mismatched(ctx, x):
    # both ranks send: a protocol bug, not a fault
    yield from ctx.send(1 - ctx.rank, x, 4)
    return x


class TestDeadlockForensics:
    def test_cooperative_reports_pending_transfers(self):
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(_mismatched, [1, 2], MachineParams(p=2, ts=1.0, tw=1.0, m=4))
        msg = str(exc_info.value)
        assert "pending src=0 dst=1 words=4" in msg
        assert "pending src=1 dst=0 words=4" in msg

    def test_threaded_reports_pending_transfers(self):
        def prog(comm: ThreadedComm, x):
            comm.send(x, dest=1 - comm.rank, words=4)
            return x

        with pytest.raises(DeadlockError) as exc_info:
            threaded_spmd_run(prog, [1, 2],
                              MachineParams(p=2, ts=1.0, tw=1.0, m=4))
        msg = str(exc_info.value)
        assert "pending src=0 dst=1 words=4" in msg
        assert "pending src=1 dst=0 words=4" in msg


# ---------------------------------------------------------------------------
# Root rotation on the threaded front end (mirrors tests/test_mpi.py)
# ---------------------------------------------------------------------------


class TestThreadedRootRotation:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_any_root_reduce_both_flavours(self, p):
        for op, xs, expected in (
            (ADD, list(range(1, p + 1)), p * (p + 1) // 2),
            (CONCAT, [chr(97 + i) for i in range(p)],
             "".join(chr(97 + i) for i in range(p))),
        ):
            for root in range(p):
                def prog(comm: ThreadedComm, x, op=op, root=root):
                    return comm.reduce(x, op=op, root=root)

                res = threaded_spmd_run(prog, xs, PARAMS)
                for rank, v in enumerate(res.values):
                    assert v == (expected if rank == root else None)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_any_root_scatter_gather(self, p):
        data = [i * 7 for i in range(p)]
        for root in range(p):
            def prog(comm: ThreadedComm, x, root=root):
                mine = comm.scatter(x, root=root)
                back = comm.gather(mine, root=root)
                return (mine, back)

            inputs = [data if r == root else None for r in range(p)]
            res = threaded_spmd_run(prog, inputs, PARAMS)
            for rank, (mine, back) in enumerate(res.values):
                assert mine == data[rank]
                assert back == (data if rank == root else None)

    def test_rotated_reduce_costs_match_classic(self):
        # commutative rotation is zero extra cost: same makespan any root
        def run(root):
            def prog(comm: ThreadedComm, x):
                return comm.reduce(x, op=MUL, root=root)
            return threaded_spmd_run(prog, [2] * 4, PARAMS).time

        assert len({run(root) for root in range(4)}) == 1
