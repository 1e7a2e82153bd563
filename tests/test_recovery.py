"""Checkpoint/restart recovery runtime (repro.recovery).

Covers the supervision contract end to end on both engines: fault-free
supervision is value-transparent; transient faults replay from
checkpoints; dead links are quarantined and rerouted; crashed ranks
shrink onto survivors; resilience replanning prefers fused forms;
unsurvivable plans end in a typed ``UnrecoverableError`` — never a hang,
never defined-but-wrong.  Plus the building blocks: checkpoints and
digests, the link strikes, the policy knobs, forensic replay epochs, and
the structured event log.
"""

from __future__ import annotations

import json
import signal

import numpy as np
import pytest

from repro.cli import main
from repro.core.cost import MachineParams
from repro.core.operators import ADD, MUL
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    GatherStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.faults import FaultPlan, FaultState, LinkFault, RankCrash
from repro.machine.run import simulate_program
from repro.recovery import (
    Checkpoint,
    RecoveryLog,
    RecoveryPolicy,
    Strikes,
    UnrecoverableError,
    backoff,
    digest_state,
    snapshot_block,
    supervise,
)
from repro.recovery.events import EVENT_KINDS
from repro.semantics.functional import UNDEF, inc

# the id is the name the tier-1 floor list knows these cases by
ENGINES = (pytest.param("cooperative", id="machine"), "threaded")
PARAMS = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
PROG = Program([BcastStage(), ScanStage(ADD), AllReduceStage(ADD)],
               name="bcast;scan;allreduce")
XS = list(range(1, 9))


@pytest.fixture(autouse=True)
def _hang_backstop():
    """The headline invariant is *never a hang*: every test in this file
    must finish long before this alarm (pytest-timeout is not a hard
    dependency, so the backstop is a plain SIGALRM)."""
    if hasattr(signal, "SIGALRM"):
        def _fire(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("recovery test exceeded the hang backstop")

        old = signal.signal(signal.SIGALRM, _fire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    else:  # pragma: no cover - non-POSIX
        yield


def clean_values(program=PROG, xs=XS, params=PARAMS):
    return simulate_program(program, list(xs), params).values


class TestHappyPath:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_values_bit_identical_to_unsupervised(self, engine):
        ref = simulate_program(PROG, XS, PARAMS)
        res = supervise(PROG, XS, PARAMS, engine=engine)
        assert res.values == ref.values
        assert res.replays == 0
        assert res.attempts == len(PROG.stages)
        assert res.digest == digest_state(ref.values)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpoint_overhead_is_bounded(self, engine):
        ref = simulate_program(PROG, XS, PARAMS)
        res = supervise(PROG, XS, PARAMS, engine=engine)
        assert ref.time <= res.time <= 1.10 * ref.time

    def test_event_log_shape(self):
        res = supervise(PROG, XS, PARAMS)
        assert res.log.kinds() == (
            "start", "checkpoint", "checkpoint", "checkpoint", "complete")

    def test_engines_agree_on_time(self):
        a = supervise(PROG, XS, PARAMS, engine="cooperative")
        b = supervise(PROG, XS, PARAMS, engine="threaded")
        assert a.values == b.values
        assert a.time == b.time
        assert a.digest == b.digest


class TestTransientRecovery:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_transient_drop_no_replay_needed(self, engine):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", first=0, count=1),))
        res = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        assert res.values == clean_values()
        assert res.replays == 0  # absorbed by in-resolve retry
        assert res.quarantined == ()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dead_link_quarantine_and_reroute(self, engine):
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        res = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        assert res.values == clean_values()
        assert (0, 4) in res.quarantined
        assert res.replays >= 1
        assert res.faults.rerouted >= 1
        kinds = res.log.kinds()
        assert "quarantine" in kinds and "restore" in kinds

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_shrinks_onto_survivor(self, engine):
        plan = FaultPlan(crashes=(RankCrash(rank=3, at_clock=5.0),))
        res = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        assert res.values == clean_values()
        assert len(res.shrinks) == 1
        dead, adopted_by = res.shrinks[0]
        assert dead == 3 and adopted_by != 3
        assert "shrink" in res.log.kinds()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_combined_crash_and_dead_link(self, engine):
        plan = FaultPlan(
            link_faults=(LinkFault(1, 5, "drop", count=None),),
            crashes=(RankCrash(rank=6, at_clock=30.0),),
        )
        res = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        assert res.values == clean_values()

    def test_replan_prefers_fused_form(self):
        prog = Program([BcastStage(), ScanStage(ADD)], name="bcast;scan")
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        res = supervise(prog, XS, PARAMS, faults=plan)
        assert res.values == clean_values(prog)
        replans = res.log.of_kind("replan")
        assert replans, "quarantine should have triggered a replan"
        assert replans[0]["rounds_after"] < replans[0]["rounds_before"]
        # bcast;scan fuses to the single-stage comcast pipeline
        assert len(res.program.stages) < len(prog.stages)

    def test_replan_can_be_disabled(self):
        prog = Program([BcastStage(), ScanStage(ADD)], name="bcast;scan")
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        policy = RecoveryPolicy(prefer_fused_on_quarantine=False)
        res = supervise(prog, XS, PARAMS, faults=plan, policy=policy)
        assert res.values == clean_values(prog)
        assert not res.log.of_kind("replan")
        assert len(res.program.stages) == len(prog.stages)


class TestEdgeCases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_rank_machine(self, engine):
        params = MachineParams(p=1, ts=10.0, tw=1.0, m=4)
        prog = Program([MapStage(lambda x: 2 * x, label="double"),
                        ScanStage(ADD)], name="p1")
        ref = simulate_program(prog, [21], params)
        res = supervise(prog, [21], params, engine=engine)
        assert res.values == ref.values == (42,)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_at_clock_zero(self, engine):
        plan = FaultPlan(crashes=(RankCrash(rank=0, at_clock=0.0),))
        res = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        assert res.values == clean_values()
        assert res.shrinks and res.shrinks[0][0] == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_outbound_links_quarantined_raises_typed(self, engine):
        """Every outbound link of rank 0 dead at p=3: after both are
        quarantined no relay path exists — must surface a typed
        UnrecoverableError, never hang (the module alarm backstops)."""
        params = MachineParams(p=3, ts=10.0, tw=1.0, m=4)
        prog = Program([AllReduceStage(ADD)], name="allreduce")
        plan = FaultPlan(link_faults=(
            LinkFault(0, 1, "drop", count=None),
            LinkFault(0, 2, "drop", count=None),
        ))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(prog, [1, 2, 3], params, faults=plan, engine=engine)
        assert exc_info.value.policy == "link-quarantine"
        assert exc_info.value.stage == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dead_link_on_two_ranks_unrecoverable(self, engine):
        params = MachineParams(p=2, ts=10.0, tw=1.0, m=4)
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(Program([ScanStage(ADD)]), [1, 2], params,
                      faults=plan, engine=engine)
        assert exc_info.value.policy == "link-quarantine"

    def test_shrink_disabled_policy(self):
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_clock=0.0),))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(PROG, XS, PARAMS, faults=plan,
                      policy=RecoveryPolicy(allow_shrink=False))
        assert exc_info.value.policy == "shrink-disabled"

    def test_shrink_budget_exhausted(self):
        plan = FaultPlan(crashes=(RankCrash(rank=2, at_clock=0.0),))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(PROG, XS, PARAMS, faults=plan,
                      policy=RecoveryPolicy(max_shrinks=0))
        assert exc_info.value.policy == "shrink-budget"

    def test_retry_budget_exhausted(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(PROG, XS, PARAMS, faults=plan,
                      policy=RecoveryPolicy(max_stage_attempts=1))
        assert exc_info.value.policy == "retry-budget"

    def test_unrecoverable_chains_original_fault(self):
        params = MachineParams(p=2, ts=10.0, tw=1.0, m=4)
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
        with pytest.raises(UnrecoverableError) as exc_info:
            supervise(Program([ScanStage(ADD)]), [1, 2], params, faults=plan)
        assert exc_info.value.__cause__ is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_gather_keeps_reference_undef_mask(self, engine):
        """Legit UNDEF (gather is root-only) must not be mistaken for
        degradation: no replay, mask equals the fault-free reference."""
        prog = Program([GatherStage()], name="gather")
        ref = simulate_program(prog, XS, PARAMS)
        res = supervise(prog, XS, PARAMS, engine=engine)
        assert res.replays == 0
        assert tuple(v is UNDEF for v in res.values) \
            == tuple(v is UNDEF for v in ref.values)
        assert res.values == ref.values


class TestVectorizedRecovery:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_vectorized_happy_path_bit_identical(self, engine):
        prog = Program([MapStage(inc, label="inc"),
                        ScanStage(ADD), AllReduceStage(ADD)], name="vec")
        ref = simulate_program(prog, XS, PARAMS)
        res = supervise(prog, XS, PARAMS, engine=engine, vectorize=True)
        assert res.values == ref.values
        assert all(type(v) is type(r)
                   for v, r in zip(res.values, ref.values))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_vectorized_recovery_matches_object_mode(self, engine):
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),),
                         crashes=(RankCrash(rank=6, at_clock=50.0),))
        obj = supervise(PROG, XS, PARAMS, faults=plan, engine=engine)
        vec = supervise(PROG, XS, PARAMS, faults=plan, engine=engine,
                        vectorize=True)
        assert vec.values == obj.values == clean_values()
        assert vec.digest == obj.digest

    def test_packed_checkpoint_blocks_restore_bit_identical(self):
        """Array blocks snapshot/restore without aliasing or drift."""
        blocks = [np.arange(8, dtype=np.int64),
                  (np.ones(3), UNDEF),
                  np.float64(2.5)]
        ckpt = Checkpoint.capture(0, blocks, [0.0] * 3, ())
        blocks[0][0] = 999  # mutate the live array after the snapshot
        restored = ckpt.restore_blocks()
        assert restored[0][0] == 0  # checkpoint unaffected
        assert digest_state(restored) == ckpt.digest
        restored[0][1] = 777  # mutating a restore never corrupts the ckpt
        assert digest_state(ckpt.restore_blocks()) == ckpt.digest


class TestReplayEpochs:
    def test_reset_for_replay_archives_and_zeroes(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
        state = FaultState(plan, 2)
        state.resolve(0, 1, 10.0)  # times out after the retry budget
        first = state.summary()
        assert first.timeouts and first.retries > 0
        state.reset_for_replay()
        assert state.epoch == 1
        now = state.summary()
        assert now.timeouts == () and now.retries == 0
        assert now.drops == () and state.extra_delay == 0.0
        assert state.epoch_summaries() == (first, state.summary())

    def test_reset_keeps_cursor_and_deaths(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", first=0, count=1),))
        state = FaultState(plan, 3)
        state.resolve(0, 1, 10.0)
        state.record_death(2, 5.0)
        cursor = state.cursor()
        state.reset_for_replay()
        assert state.cursor() == cursor       # message indices survive
        assert state.is_dead(2)               # deaths are permanent
        assert state.summary().deaths == ()   # ...but attributed to epoch 0

    def test_total_summary_merges_epochs(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", first=0, count=5),
                                      ),
                         max_retries=1)
        state = FaultState(plan, 2)
        state.resolve(0, 1, 10.0)
        state.reset_for_replay()
        state.restore_cursor(())
        state.resolve(0, 1, 10.0)
        total = state.total_summary()
        assert total.epoch == 1
        assert len(total.timeouts) == 2
        assert dict(total.drops)[(0, 1)] == 4  # 2 drops per epoch, merged

    def test_supervised_run_attributes_epochs(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        res = supervise(PROG, XS, PARAMS, faults=plan)
        assert res.faults.epoch == res.replays
        # original-attempt timeouts are not double-counted onto replays
        assert len(res.faults.timeouts) == res.replays


class TestSupervisedFaultState:
    def test_cohosted_delivery_is_fault_free(self):
        state = FaultState(
            FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),)), 4)
        state.rehost(1, 0)  # virtual 1 now lives on physical 0
        out = state.resolve(0, 1, 10.0)
        assert not out.timed_out and out.extra_delay == 0.0
        assert state.cursor() == ()  # plan never consulted

    def test_quarantined_link_reroutes(self):
        state = FaultState(FaultPlan(), 4)
        state.quarantine((0, 1))
        out = state.resolve(0, 1, 7.0)
        assert not out.timed_out and out.extra_delay == 7.0
        assert state.summary().rerouted == 1

    def test_no_relay_times_out(self):
        state = FaultState(FaultPlan(), 2)
        state.quarantine((0, 1))
        out = state.resolve(0, 1, 7.0)
        assert out.timed_out
        assert (0, 1) in state.summary().timeouts

    def test_relay_skips_dead_and_quarantined(self):
        state = FaultState(FaultPlan(), 5)
        state.quarantine((0, 1))
        state.record_death(2, 0.0)
        state.quarantine((0, 3))
        assert state.find_relay(0, 1) == 4  # 2 dead, 3 unreachable from 0

    def test_rehost_revives_virtual(self):
        state = FaultState(FaultPlan(), 3)
        state.record_death(1, 4.0)
        assert state.is_dead(1)
        moved = state.rehost(1, 2)
        assert moved == [1]
        assert not state.is_dead(1)
        assert state.hosts == [0, 2, 2]

    def test_rehost_moves_cohosted_group(self):
        state = FaultState(FaultPlan(), 4)
        state.rehost(1, 2)          # 1 -> 2
        state.record_death(2, 9.0)  # virtual 2 dies, host 2 is down
        # co-hosted virtual 1 must die at its next comm action; virtual 2
        # is already dead, so the engine must not kill it twice
        assert state.should_crash(1, 0.0)
        assert not state.should_crash(2, 0.0) and state.is_dead(2)
        moved = state.rehost(2, 3)
        assert moved == [1, 2]
        assert state.hosts == [0, 3, 3, 3]


class TestBuildingBlocks:
    def test_digest_distinguishes_types(self):
        assert digest_state([1]) != digest_state([1.0])
        assert digest_state([1]) != digest_state(["1"])
        assert digest_state([1]) != digest_state([np.int64(1)])
        assert digest_state([(1, 2)]) != digest_state([(1,), (2,)])
        assert digest_state([UNDEF]) != digest_state([None])

    def test_digest_is_stable(self):
        blocks = [1, (2, UNDEF), np.arange(3), "x", 2.5]
        assert digest_state(blocks) == digest_state([snapshot_block(b)
                                                     for b in blocks])

    def test_digest_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            digest_state([object()])

    def test_health_board_threshold(self):
        links = Strikes(threshold=2)
        assert links.hit((0, 1)) is False
        assert links.hit((1, 0)) is False  # one count per directed link
        assert links.hit((0, 1)) is True
        links.clear((0, 1))
        assert links.counts == {(1, 0): 1}

    def test_health_board_strike_all_deduplicates(self):
        """An attempt strikes each timed-out link once, however many
        messages on it timed out; the quarantine event carries the
        strikes and the quarantined links as before."""
        res = supervise(PROG, XS, PARAMS, faults=FaultPlan(
            link_faults=(LinkFault(0, 4, "drop", count=None),)))
        (event,) = res.log.of_kind("quarantine")
        assert event["strikes"] == 1
        assert event["health"] == {"strikes": {"0->4": 1},
                                   "quarantined": ["0->4"]}

    def test_policy_resolution(self):
        policy = RecoveryPolicy().resolved(PARAMS)
        assert policy.backoff_base == 2 * (PARAMS.ts + PARAMS.m * PARAMS.tw)
        assert policy.backoff_cap == 8 * policy.backoff_base
        assert policy.max_shrinks == PARAMS.p - 1
        assert policy.checkpoint_ops == PARAMS.m / 8
        # the backoff doubles from the base, then saturates at the cap
        ladder = [backoff(a, policy.backoff_base, policy.backoff_cap)
                  for a in range(1, 8)]
        assert ladder[:4] == [policy.backoff_base * 2 ** k for k in range(4)]
        assert ladder[3:] == [policy.backoff_cap] * 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_stage_attempts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(quarantine_after=0)
        with pytest.raises(TypeError):
            RecoveryPolicy(backoff_factor=3.0)  # the growth is doubling

    def test_event_log_schema(self, tmp_path):
        log = RecoveryLog()
        with pytest.raises(ValueError, match="unknown recovery event"):
            log.emit("explode", stage=0)
        res = supervise(PROG, XS, PARAMS, faults=FaultPlan(
            link_faults=(LinkFault(0, 4, "drop", count=None),)), log=log)
        assert res.log is log
        doc = json.loads(log.to_json())
        assert doc["version"] == 2
        assert all(e["event"] in EVENT_KINDS for e in doc["events"])
        assert all("stage" in e for e in doc["events"])
        path = tmp_path / "events.json"
        log.write(path)
        assert json.loads(path.read_text()) == doc


class TestCLI:
    def test_recover_demo(self, capsys):
        assert main(["recover"]) == 0
        out = capsys.readouterr().out
        assert "UnrecoverableError" in out and "quarantine" in out

    def test_recover_writes_log(self, tmp_path, capsys):
        path = tmp_path / "events.json"
        assert main(["recover", "--log", str(path)]) == 0
        doc = json.loads(path.read_text())
        kinds = [e["event"] for e in doc["events"]]
        assert "quarantine" in kinds and "complete" in kinds

    def test_conformance_recover_requires_chaos(self, capsys):
        assert main(["conformance", "--recover"]) == 2
        assert "--chaos" in capsys.readouterr().err

    def test_conformance_chaos_recover_smoke(self, capsys):
        assert main(["conformance", "--chaos", "--recover",
                     "--iters", "4", "--plans", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos recovery" in out and "all chaos checks passed" in out
