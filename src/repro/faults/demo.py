"""The ``python -m repro faults demo`` walkthrough.

Four self-contained scenarios showing the fault layer end to end on the
simulated machine: transparent retry recovery, a dead link surfacing as a
typed timeout with per-rank forensics, a crashed rank degrading a scan to
``UNDEF`` holes, and the engine-agreement guarantee under one plan.
Everything is deterministic — rerunning prints byte-identical output.
"""

from __future__ import annotations

from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import AllReduceStage, Program, ScanStage
from repro.faults import FaultPlan, FaultTimeoutError, LinkFault, RankCrash
from repro.machine.run import simulate_program

__all__ = ["run_demo"]


def _banner(title: str) -> str:
    return f"\n=== {title} " + "=" * max(0, 66 - len(title))


def run_demo(params: MachineParams | None = None) -> str:
    """Render the fault-injection walkthrough (deterministic text)."""
    if params is None:
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
    lines: list[str] = []
    out = lines.append

    # -- 1. transient drop: retries make it pure extra latency ---------------
    out(_banner("1. transient drop -> bounded retry recovery"))
    prog = Program([AllReduceStage(ADD)], name="allreduce")
    xs = [1, 2, 3, 4]
    clean = simulate_program(prog, xs, params)
    plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", first=0, count=1),))
    faulted = simulate_program(prog, xs, params, faults=plan)
    out(f"plan      : {plan.describe()}")
    out(f"values    : {list(faulted.values)}  (same as fault-free: "
        f"{list(faulted.values) == list(clean.values)})")
    out(f"time      : {clean.time:g} fault-free -> {faulted.time:g} "
        f"with the retry penalty")
    out(faulted.faults.describe())

    # -- 2. dead link: typed, named timeout instead of a hang ----------------
    out(_banner("2. dead link -> typed FaultTimeoutError, no hang"))
    dead = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
    out(f"plan      : {dead.describe()}")
    try:
        simulate_program(prog, xs, params, faults=dead)
        out("UNEXPECTED: the run completed")  # pragma: no cover
    except FaultTimeoutError as exc:
        out("raised    : FaultTimeoutError")
        for line in str(exc).splitlines():
            out(f"  {line}")

    # -- 3. rank crash: self-stabilizing scan degrades to UNDEF holes --------
    out(_banner("3. rank crash -> UNDEF holes, never wrong values"))
    scan = Program([ScanStage(ADD)], name="scan")
    xs8 = list(range(1, 9))
    crash = FaultPlan(crashes=(RankCrash(rank=3, at_clock=0.0),))
    out(f"plan      : {crash.describe()}")
    ref = simulate_program(scan, xs8, params)
    degraded = simulate_program(scan, xs8, params, faults=crash)
    out(f"fault-free: {list(ref.values)}")
    out(f"degraded  : {list(degraded.values)}")
    out("every defined block equals the fault-free value; lost prefixes "
        "are UNDEF (_)")
    out(degraded.faults.describe())

    # -- 4. both engines observe the same faulted world ----------------------
    out(_banner("4. engine agreement under the same plan"))
    thr = simulate_program(scan, xs8, params, faults=crash,
                           engine="threaded")
    out(f"cooperative: values={list(degraded.values)} "
        f"clocks={list(degraded.stats.clocks)}")
    out(f"threaded   : values={list(thr.values)} "
        f"clocks={list(thr.stats.clocks)}")
    same = (list(thr.values) == list(degraded.values)
            and thr.stats.clocks == degraded.stats.clocks)
    out(f"identical  : {same}")
    return "\n".join(lines)
