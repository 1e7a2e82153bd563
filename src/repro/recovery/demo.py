"""The ``python -m repro recover`` walkthrough.

Four self-contained scenarios showing the supervision runtime end to
end: zero-overhead happy path (values bit-identical to an unsupervised
run), a dead link quarantined and rerouted through a relay, a crashed
rank shrunk onto a survivor, and an unsurvivable plan ending in a typed
``UnrecoverableError``.  With ``engine="process"`` every scenario runs
on real forked workers and a fifth scenario SIGKILLs a live child
mid-stage to show the watchdog/respawn path.  Everything is
deterministic — rerunning prints byte-identical output.
"""

from __future__ import annotations

import os
import signal

from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import AllReduceStage, BcastStage, Program, ScanStage
from repro.faults import FaultPlan, LinkFault, RankCrash
from repro.machine.run import simulate_program
from repro.recovery.errors import UnrecoverableError
from repro.recovery.supervisor import supervise

__all__ = ["run_demo", "demo_event_log"]


def _banner(title: str) -> str:
    return f"\n=== {title} " + "=" * max(0, 66 - len(title))


def _events(result) -> list[str]:
    return [f"  {line}" for line in result.log.describe().splitlines()]


def _kill_once(rank: int, at_stage: int):
    """Spawn hook that SIGKILLs ``rank`` the first time ``at_stage``
    starts — a deterministic real crash for the process-engine demo."""
    fired = {"done": False}

    def hook(procs, info):
        if not fired["done"] and info.get("stage") == at_stage:
            fired["done"] = True
            os.kill(procs[rank].pid, signal.SIGKILL)

    return hook


def demo_event_log(params: MachineParams | None = None,
                   engine: str = "cooperative"):
    """A scenario's structured event log (for ``--log``/CI).

    Deterministic: the same quarantine/replan/restore decisions every
    run, so the uploaded artifact is diffable across CI builds.  For
    ``engine="process"`` the log comes from the real-SIGKILL scenario
    (child_exit/respawn/epoch_bump events); otherwise from the dead-link
    quarantine scenario.
    """
    if params is None:
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
    prog = Program([BcastStage(), ScanStage(ADD), AllReduceStage(ADD)],
                   name="bcast;scan;allreduce")
    xs = list(range(1, params.p + 1))
    if engine == "process":
        result = supervise(prog, xs, params, engine=engine,
                           spawn_hook=_kill_once(rank=3, at_stage=1))
    else:
        plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
        result = supervise(prog, xs, params, faults=plan, engine=engine)
    return result.log


def run_demo(params: MachineParams | None = None,
             engine: str = "cooperative") -> str:
    """Render the recovery walkthrough (deterministic text).

    ``engine="process"`` runs every scenario on real forked workers and
    appends a real-crash scenario: a live child SIGKILLed mid-stage,
    detected by the watchdog and respawned into a fresh arena epoch.
    """
    if params is None:
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
    prog = Program([BcastStage(), ScanStage(ADD), AllReduceStage(ADD)],
                   name="bcast;scan;allreduce")
    xs = list(range(1, 9))
    clean = simulate_program(prog, xs, params)
    lines: list[str] = []
    out = lines.append
    if engine != "cooperative":
        out(f"engine    : {engine}")

    # -- 1. zero faults: supervision never changes values --------------------
    out(_banner("1. fault-free supervision -> bit-identical values"))
    sup = supervise(prog, xs, params, engine=engine)
    out(f"values    : {list(sup.values)}")
    out(f"identical : {list(sup.values) == list(clean.values)}")
    out(f"time      : {clean.time:g} unsupervised -> {sup.time:g} "
        f"(checkpoint overhead {100 * (sup.time / clean.time - 1):.2f}%)")
    out(f"events    : {', '.join(sup.log.kinds())}")

    # -- 2. dead link: quarantine + relay reroute ----------------------------
    out(_banner("2. dead link -> quarantine, reroute via relay, recover"))
    dead_link = FaultPlan(link_faults=(LinkFault(0, 4, "drop", count=None),))
    out(f"plan      : {dead_link.describe()}")
    sup = supervise(prog, xs, params, faults=dead_link, engine=engine)
    out(f"values    : {list(sup.values)}  (same as fault-free: "
        f"{list(sup.values) == list(clean.values)})")
    out(f"quarantine: {sorted(sup.quarantined)}  replays: {sup.replays}")
    out(f"rerouted  : {sup.faults.rerouted} deliveries took the relay path")
    out("event log :")
    lines.extend(_events(sup))

    # -- 3. rank crash: shrink onto a survivor -------------------------------
    out(_banner("3. rank crash -> shrink onto a survivor, replay"))
    crash = FaultPlan(crashes=(RankCrash(rank=3, at_clock=0.0),))
    out(f"plan      : {crash.describe()}")
    sup = supervise(prog, xs, params, faults=crash, engine=engine)
    out(f"values    : {list(sup.values)}  (same as fault-free: "
        f"{list(sup.values) == list(clean.values)})")
    out(f"shrinks   : {list(sup.shrinks)}  (dead physical -> adopted by)")
    out("event log :")
    lines.extend(_events(sup))

    # -- 4. unsurvivable plan: typed exhaustion, never a hang ----------------
    out(_banner("4. unsurvivable plan -> typed UnrecoverableError"))
    two = MachineParams(p=2, ts=10.0, tw=1.0, m=4)
    doomed = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
    out(f"plan      : {doomed.describe()} on p=2 (no possible relay)")
    try:
        supervise(prog, [1, 2], two, faults=doomed, engine=engine)
        out("UNEXPECTED: the run completed")  # pragma: no cover
    except UnrecoverableError as exc:
        out(f"raised    : UnrecoverableError [policy={exc.policy}] "
            f"at stage {exc.stage}")
        out(f"  {exc}")

    # -- 5. (process only) real SIGKILL: watchdog detect + respawn -----------
    if engine == "process":
        out(_banner("5. real SIGKILL mid-stage -> watchdog, respawn, replay"))
        out("plan      : SIGKILL rank 3's process when stage 1 starts")
        sup = supervise(prog, xs, params, engine=engine,
                        spawn_hook=_kill_once(rank=3, at_stage=1))
        out(f"values    : {list(sup.values)}  (same as fault-free: "
            f"{list(sup.values) == list(clean.values)})")
        out("event log :")
        lines.extend(_events(sup))

    out("")
    return "\n".join(lines)
