"""Checkpoint/restart supervision of stage programs.

:func:`supervise` executes a :class:`~repro.core.stages.Program`
stage-by-stage on either execution engine, taking a content-hashed
checkpoint at every stage boundary.  Typed fault errors from the fault
layer never escape: a failed stage attempt is rolled back to the last
checkpoint and replayed after a capped exponential backoff; persistently
failing links are quarantined (traffic reroutes through a healthy
relay); a crashed rank triggers shrink-recovery — its virtual ranks are
re-hosted onto a survivor and the stage replays from checkpoint state.
After a quarantine the remaining stages are re-optimized with a
resilience term (``MachineParams.round_penalty``) so rule-fused forms —
fewer communication rounds, fewer fault exposures — win.

On the ``"process"`` engine the supervisor additionally survives *real*
faults: each stage attempt forks one OS process per rank into a fresh
shared-arena epoch (:class:`~repro.parallel.backend.ProcessStageRunner`);
a SIGKILLed or silent child surfaces as a typed
:class:`~repro.parallel.errors.ProcessIncidentError` from the parent's
heartbeat watchdog and is respawned from the last checkpoint with capped
exponential backoff, up to ``RecoveryPolicy.max_respawns`` incidents per
rank — after which the rank is declared permanently dead and
shrink-recovery adopts its blocks onto a survivor.  If one stage keeps
producing incidents (``process_fallback_after``), the rest of the run
loudly degrades to the threaded engine, replaying from the latest
checkpoint.

Outcome contract (chaos-tested, ``testing/chaos.py --recover``):
a supervised run either *completes* with per-rank values
``defined_equal`` to the fault-free run, or raises
:class:`~repro.recovery.errors.UnrecoverableError` naming the exhausted
policy.  Never a hang, never defined-but-wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.cost import MachineParams, program_rounds
from repro.core.stages import Program, Stage
from repro.faults import FaultPlan, FaultState, FaultSummary
from repro.faults.errors import FaultError
from repro.machine.engine import DeadlockError, SimResult
from repro.machine.rendezvous import ENGINES
from repro.machine.run import rank_program, run_ranks
from repro.recovery.checkpoint import Checkpoint, digest_state
from repro.recovery.errors import UnrecoverableError
from repro.recovery.events import RecoveryLog
from repro.recovery.health import Strikes, backoff
from repro.recovery.policy import RecoveryPolicy

__all__ = ["RecoveryResult", "supervise"]

Link = tuple[int, int]

@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one supervised run (successful by construction)."""

    #: final per-rank values
    values: tuple[Any, ...]
    #: simulated makespan including checkpoint/backoff/reroute overheads
    time: float
    #: full structured event log (JSON-serializable; see docs/FAULTS.md)
    log: RecoveryLog
    #: fault forensics aggregated over every attempt epoch
    faults: FaultSummary
    #: total stage attempts (== number of stages when nothing fired)
    attempts: int
    #: checkpoint restores performed
    replays: int
    #: physical links quarantined during the run
    quarantined: tuple[Link, ...]
    #: ``(dead_host, adopted_by)`` shrink operations, in order
    shrinks: tuple[tuple[int, int], ...]
    #: content digest of the final distributed state
    digest: str
    #: the program actually executed (suffix may differ after a replan)
    program: Program


def supervise(
    program: Program,
    inputs: Sequence[Any],
    params: MachineParams,
    faults: FaultPlan | None = None,
    policy: RecoveryPolicy | None = None,
    engine: str = "cooperative",
    log: RecoveryLog | None = None,
    spawn_hook=None,
    hb_timeout: float | None = None,
) -> RecoveryResult:
    """Run ``program`` under checkpoint/restart supervision.

    ``engine`` selects the execution substrate
    (:data:`repro.machine.ENGINES`: ``"cooperative"``, ``"threaded"``
    blocking, or ``"process"`` — one real OS process per rank); all
    produce the same values and the same recovery decisions for the same
    plan.  Blocks may be NumPy arrays; checkpoints are taken over them
    and restored bit-identically.

    Process-engine only: ``spawn_hook(procs, meta)`` is invoked after
    each attempt's children start (the chaos harness SIGKILLs real ranks
    through it) and ``hb_timeout`` bounds the watchdog's silence
    tolerance; both are ignored on the simulated engines.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if log is None:
        log = RecoveryLog()
    policy = (policy or RecoveryPolicy()).resolved(params)

    p = len(inputs)
    if p == 0:
        raise ValueError("cannot supervise an empty machine")
    from repro.parallel.backend import Ladder, ProcessStageRunner, open_arena

    # Process engine: one shared arena for the run, a fresh epoch per
    # attempt.  Where the backend cannot run, the ladder steps down loudly
    # — a "fallback" event — and the run goes on threaded, same values,
    # same recovery decisions.
    ladder = Ladder(engine, log)
    runner = None
    if ladder.gate(p, stage=-1) == "process":
        arena = open_arena(ladder, p, params, stage=-1)
        if arena is not None:
            runner = ProcessStageRunner(arena, params, hb_timeout=hb_timeout,
                                        spawn_hook=spawn_hook)
    try:
        return _supervise_loop(program, inputs, params, faults, policy,
                               ladder, log, runner)
    finally:
        if runner is not None:
            runner.close()


def _run_stage(engine: str, stage: Stage, blocks: Sequence[Any],
               clocks: Sequence[float], params: MachineParams,
               fstate: FaultState, runner=None,
               stage_index: int = 0, attempt: int = 1,
               log: RecoveryLog | None = None) -> SimResult:
    """Execute one stage on every rank, resuming checkpointed clocks."""
    if engine == "process":
        return runner.run_stage(stage, blocks, clocks, fstate,
                                stage_index=stage_index, attempt=attempt,
                                log=log)
    return run_ranks(engine, rank_program([stage]), blocks, params,
                     fault_state=fstate, initial_clocks=clocks)


def _replan(stages: list[Stage], i: int, params: MachineParams,
            policy: RecoveryPolicy, log: RecoveryLog) -> list[Stage]:
    """Re-optimize the not-yet-executed suffix preferring fused forms.

    Runs the rule engine over ``stages[i:]`` with the resilience term
    armed (``round_penalty``): every avoided communication round is now
    worth one full-block message, so semantics-preserving fusions that
    merely broke even on the paper's cost model win.  The completed
    prefix is never touched — its checkpoints stay valid.
    """
    from repro.core.optimizer import optimize

    suffix = Program(stages[i:], name="recovery-suffix")
    rparams = params.with_(round_penalty=policy.resilience_penalty)
    try:
        result = optimize(suffix, rparams, strategy="greedy")
    except Exception:  # a suffix the rule engine cannot handle: keep it
        return stages
    new_suffix = result.program
    if tuple(new_suffix.stages) == tuple(suffix.stages):
        return stages
    log.emit(
        "replan", stage=i,
        stages_before=len(suffix.stages), stages_after=len(new_suffix.stages),
        rounds_before=program_rounds(suffix, params),
        rounds_after=program_rounds(new_suffix, params),
        cost_before=result.cost_before, cost_after=result.cost_after,
    )
    return stages[:i] + list(new_suffix.stages)


def _supervise_loop(program: Program, inputs: Sequence[Any],
                    params: MachineParams, faults: FaultPlan | None,
                    policy: RecoveryPolicy, ladder, log: RecoveryLog,
                    runner) -> RecoveryResult:
    from repro.parallel.errors import ProcessIncidentError, WorkerCrashError

    p = len(inputs)
    engine = ladder.rung
    fstate = FaultState(faults if faults is not None else FaultPlan(), p)
    links = Strikes(policy.quarantine_after)  # timeouts per directed link
    respawns = Strikes(policy.max_respawns + 1)  # incidents per rank
    incidents = Strikes(policy.process_fallback_after)  # ... per stage
    stages: list[Stage] = list(program.stages)

    ckpt = Checkpoint.capture(-1, inputs, [0.0] * p, fstate.cursor())
    log.emit("start", stage=-1, engine=engine, p=p, stages=len(stages),
             digest=ckpt.digest,
             plan=faults.describe() if faults is not None else None)

    blocks: list[Any] = ckpt.restore_blocks()
    clocks: list[float] = list(ckpt.clocks)
    shrinks: list[tuple[int, int]] = []
    total_attempts = 0
    replays = 0
    i = 0
    attempts = 0  # attempts of the *current* stage

    while i < len(stages):
        stage = stages[i]
        known_dead = fstate.dead_hosts()
        failure: FaultError | None = None
        total_attempts += 1
        attempts += 1
        try:
            result = _run_stage(engine, stage, blocks, clocks, params, fstate,
                                runner=runner, stage_index=i, attempt=attempts,
                                log=log)
        except DeadlockError as exc:
            raise UnrecoverableError(
                "deadlock", i, "protocol deadlock cannot be replayed away"
            ) from exc
        except FaultError as exc:
            failure = exc
            result = None

        # ---- unplanned process incident: account, maybe promote ----------
        incident = isinstance(failure, ProcessIncidentError)
        storm = False
        if incident:
            victim = failure.rank
            storm = incidents.hit(i)
            dead = respawns.hit(victim)
            log.emit(
                "child_exit" if isinstance(failure, WorkerCrashError)
                else "heartbeat_miss",
                stage=i, attempt=attempts, rank=victim,
                exitcode=getattr(failure, "exitcode", None),
                silence=getattr(failure, "silence", None),
                respawns=respawns.counts[victim],
            )
            if dead:
                # the rank keeps dying for real: declare its host
                # permanently dead so shrink-recovery adopts its blocks
                fstate.record_death(victim, max(clocks))

        new_dead = sorted(fstate.dead_hosts() - known_dead)

        if failure is None and not new_dead:
            # committed: snapshot the stage boundary (checkpoint cost is
            # charged to every rank's clock, values are untouched)
            blocks = list(result.values)
            clocks = [c + policy.checkpoint_ops for c in result.stats.clocks]
            ckpt = Checkpoint.capture(i, blocks, clocks, fstate.cursor())
            blocks = ckpt.restore_blocks()
            log.emit("checkpoint", stage=i, digest=ckpt.digest,
                     clock=max(clocks), attempt=attempts)
            i += 1
            attempts = 0
            continue

        # ---- failed attempt: diagnose, adapt, roll back, replay ----------
        timeouts = sorted(fstate.timeouts)
        log.emit("fault", stage=i, attempt=attempts,
                 error=type(failure).__name__ if failure is not None else None,
                 timeouts=[list(t) for t in timeouts],
                 crashed=new_dead)

        # quarantine persistently failing links; a timeout on an already
        # quarantined link means rerouting itself failed (no healthy relay)
        quarantined_now = False
        for link in timeouts:
            if link in fstate.quarantined:
                raise UnrecoverableError(
                    "link-quarantine", i,
                    f"link {link[0]}->{link[1]} is quarantined and no healthy "
                    f"relay path around it exists",
                ) from failure
            if links.hit(link):
                fstate.quarantine(link)
                quarantined_now = True
                relay = fstate.find_relay(*link)
                health = {
                    "strikes": {f"{a}->{b}": n for (a, b), n
                                in sorted(links.counts.items())},
                    "quarantined": sorted(f"{a}->{b}"
                                          for a, b in fstate.quarantined)}
                log.emit("quarantine", stage=i,
                         link=list(link), strikes=links.counts[link],
                         relay=relay, health=health)

        # shrink-recovery: re-host the dead rank's blocks onto a survivor
        for host in new_dead:
            if not policy.allow_shrink:
                raise UnrecoverableError(
                    "shrink-disabled", i,
                    f"rank {host} crashed and shrink recovery is disabled",
                ) from failure
            if len(shrinks) >= policy.max_shrinks:
                raise UnrecoverableError(
                    "shrink-budget", i,
                    f"rank {host} crashed after {len(shrinks)} shrinks "
                    f"(budget {policy.max_shrinks})",
                ) from failure
            survivors = fstate.alive_hosts()
            if not survivors:
                raise UnrecoverableError(
                    "shrink", i, "no surviving ranks to shrink onto",
                ) from failure
            load = {r: 0 for r in survivors}
            for h in fstate.hosts:
                if h in load:
                    load[h] += 1
            adopted_by = min(survivors, key=lambda r: (load[r], r))
            moved = fstate.rehost(host, adopted_by)
            shrinks.append((host, adopted_by))
            log.emit("shrink", stage=i, dead=host, adopted_by=adopted_by,
                     virtual_ranks=moved, survivors=len(survivors))

        if quarantined_now and policy.prefer_fused_on_quarantine:
            stages = _replan(stages, i, params, policy, log)

        # process engine last resort: a stage that keeps producing real
        # incidents degrades the rest of the run to the threaded engine,
        # loudly, replaying from the latest checkpoint
        if storm and runner is not None:
            engine = ladder.demote(
                "process", f"{incidents.counts[i]} process incidents on one "
                f"stage (threshold {policy.process_fallback_after})", stage=i)
            runner.close()
            runner = None

        if attempts >= policy.max_stage_attempts:
            raise UnrecoverableError(
                "retry-budget", i,
                f"stage failed {attempts} attempts "
                f"(budget {policy.max_stage_attempts})",
            ) from failure

        # roll back to the last committed boundary: blocks, clocks (plus
        # the backoff, charged in simulated time), and the fault cursor —
        # replay is a pure function of the checkpoint on either engine
        wait = backoff(attempts, policy.backoff_base, policy.backoff_cap)
        blocks = ckpt.restore_blocks()
        clocks = [c + wait for c in ckpt.clocks]
        fstate.restore_cursor(ckpt.cursor)
        fstate.reset_for_replay()
        replays += 1
        log.emit("restore", stage=i, attempt=attempts + 1, backoff=wait,
                 from_stage=ckpt.stage, digest=ckpt.digest)
        if incident and runner is not None:
            # the next attempt forks the crashed rank's process anew into
            # a fresh arena epoch, resuming the checkpointed blocks
            log.emit("respawn", stage=i, rank=failure.rank,
                     attempt=attempts + 1,
                     respawns=respawns.counts[failure.rank], backoff=wait)

    time = max(clocks) if clocks else 0.0
    final_digest = digest_state(blocks)
    log.emit("complete", stage=len(stages) - 1, time=time,
             attempts=total_attempts, replays=replays,
             quarantined=sorted([list(q) for q in fstate.quarantined]),
             shrinks=[list(s) for s in shrinks], digest=final_digest)
    return RecoveryResult(
        values=tuple(blocks),
        time=time,
        log=log,
        faults=fstate.total_summary(),
        attempts=total_attempts,
        replays=replays,
        quarantined=tuple(sorted(fstate.quarantined)),
        shrinks=tuple(shrinks),
        digest=final_digest,
        program=Program(stages, name=program.name),
    )
