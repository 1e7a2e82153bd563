"""Chaos-mode conformance: generated programs under sampled fault plans.

The fault-free conformance gauntlet (:mod:`repro.testing.conformance`)
checks that every backend computes the same thing; this module checks
what happens when the machine *misbehaves*.  Each case draws a generated
program, runs it fault-free once to learn the makespan, then replays it
under ``plans_per_case`` sampled :class:`~repro.faults.FaultPlan`\\ s on
both execution engines (cooperative and threaded) and asserts:

1. **typed errors only** — a faulted run either completes or raises a
   typed, seed-replayable fault error (``FaultTimeoutError`` etc.); any
   other exception, and any silent hang, is a conformance failure
   (deadlock detection turns hangs into ``DeadlockError``, which would
   also be reported here — the self-stabilizing collectives never
   deadlock under the sampled plans);
2. **engine agreement** — the cooperative and threaded engines observe
   the *same* outcome under the same plan: same error type, or the same
   values (including the same ``UNDEF`` degradation mask) and the same
   per-rank virtual clocks;
3. **no defined lies** — every *defined* block of a degraded result
   equals the fault-free reference: degradation may only widen ``UNDEF``
   holes, never substitute wrong values;
4. **optimization soundness under faults** — when the optimizer rewrote
   the program and both forms survive the same plan, their outputs agree
   modulo ``UNDEF`` (the paper's rules stay sound under degradation).

Every failure carries the case seed and plan seed; replay with
``python -m repro conformance --chaos --seed N --iters i+1``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.core.cost import MachineParams
from repro.core.optimizer import optimize
from repro.core.rules import ALL_RULES, Rule
from repro.faults import FaultError, FaultPlan
from repro.machine.engine import DeadlockError
from repro.machine.rendezvous import ENGINES
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, defined_equal
from repro.testing.generator import (
    RULE_CASES,
    GeneratedProgram,
    generate_from_case,
    generate_random,
)
from repro.testing.soundness import sample_machine_params

__all__ = ["ChaosFailure", "ChaosReport", "Outcome", "faulted_run",
           "recovered_run", "run_chaos", "run_chaos_recovery",
           "ServingChaosReport", "run_serving_chaos"]

_CYCLE = len(RULE_CASES) + 1  # mirror the fault-free conformance deck


@dataclass(frozen=True)
class Outcome:
    """What one engine observed for one (program, plan) run."""

    kind: str                       # "ok" | exception type name | "untyped"
    values: tuple[Any, ...] = ()
    clocks: tuple[float, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    @property
    def undef_mask(self) -> tuple[bool, ...]:
        return tuple(v is UNDEF for v in self.values)


def faulted_run(engine: str, program, xs: Sequence[Any],
                params: MachineParams, plan: FaultPlan) -> Outcome:
    """Run one engine under a plan, classifying the outcome.

    ``"process"`` runs the plan on real forked workers (faults fire
    inside the children; a planned crash is an actual child exit) — the
    typed-error and agreement contracts are identical.  ``"jit"`` runs
    the cooperative engine on the JIT ladder
    (``simulate_program(..., jit=True)``; a non-empty plan declines the
    fused rung, so the raw kernels carry the blocks): like the vectorized tier it
    must produce the same typed errors, UNDEF holes, and exact clocks —
    never wrong answers.
    """
    # "jit" is a tier of the cooperative engine, not an engine
    how = {"jit": True} if engine == "jit" else {"engine": engine}
    try:
        res = simulate_program(program, list(xs), params, faults=plan, **how)
    except FaultError as exc:
        return Outcome(kind=type(exc).__name__, detail=str(exc))
    except DeadlockError as exc:
        return Outcome(kind="DeadlockError", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - the property under test
        return Outcome(kind="untyped",
                       detail=f"{type(exc).__name__}: {exc}")
    return Outcome(kind="ok", values=tuple(res.values),
                   clocks=tuple(res.stats.clocks))


@dataclass(frozen=True)
class ChaosFailure:
    """One chaos-mode violation, with everything needed to replay it."""

    kind: str        # "typed-errors" | "engine-agreement" | "degradation" | "optimized" | "recovery"
    iteration: int
    plan_index: int
    case_seed: int
    plan_seed: int
    base_seed: int
    detail: str
    #: extra CLI flags needed to replay (e.g. " --recover")
    flags: str = ""

    def describe(self) -> str:
        return (
            f"[{self.kind}] iteration {self.iteration}, plan {self.plan_index} "
            f"(case seed {self.case_seed}, plan seed {self.plan_seed})\n"
            f"{self.detail}\n"
            f"replay   : python -m repro conformance --chaos{self.flags} "
            f"--seed {self.base_seed} --iters {self.iteration + 1}"
        )


@dataclass
class ChaosReport:
    """Aggregate outcome of one chaos conformance run."""

    seed: int
    iters: int
    plans_per_case: int
    cases: int = 0
    plan_runs: int = 0
    completed: int = 0
    degraded: int = 0        # completed runs with at least one UNDEF hole
    error_kinds: Counter = field(default_factory=Counter)
    failures: list[ChaosFailure] = field(default_factory=list)
    #: True for --recover mode (supervised runs; "completed" = recovered)
    recover: bool = False
    #: True when a stop request (SIGINT/SIGTERM) cut the run short
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        mode = "chaos recovery" if self.recover else "chaos conformance"
        lines = [
            f"{mode}: seed={self.seed} iters={self.iters} "
            f"plans/case={self.plans_per_case}"
            + (" [ABORTED by stop request]" if self.aborted else ""),
            f"  cases             : {self.cases}",
            f"  faulted runs      : {self.plan_runs}",
            f"  completed         : {self.completed} "
            f"({self.degraded} degraded to UNDEF holes)",
        ]
        for kind in sorted(self.error_kinds):
            lines.append(f"  {kind:<18}: {self.error_kinds[kind]}")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for failure in self.failures:
                lines.append("")
                lines.append(failure.describe())
        else:
            lines.append("  all chaos checks passed")
        return "\n".join(lines)


def _outcome_summary(label: str, outcome: Outcome) -> str:
    if outcome.ok:
        return f"{label:<9}: ok values={list(outcome.values)}"
    return f"{label:<9}: {outcome.kind} ({outcome.detail.splitlines()[0]})"


DEFAULT_ENGINES = ("cooperative", "threaded")
assert set(DEFAULT_ENGINES) <= set(ENGINES)


def _engine_flags(engines: Sequence[str]) -> str:
    """Replay flags for a non-default engine deck."""
    if tuple(engines) == DEFAULT_ENGINES:
        return ""
    return "".join(f" --engine {e}" for e in engines if e != "cooperative")


def _check_plan(gp: GeneratedProgram, label: str, xs: Sequence[Any],
                params: MachineParams, plan: FaultPlan,
                reference: tuple[Any, ...],
                report: ChaosReport, record, i: int, k: int,
                case_seed: int, plan_seed: int,
                engines: Sequence[str] = DEFAULT_ENGINES) -> Outcome:
    """Run one program under one plan on every engine in the deck;
    returns the first engine's outcome (for the LHS/RHS cross-check).
    Agreement is checked pairwise against the first engine."""
    outcomes = [(e, faulted_run(e, gp.program, xs, params, plan))
                for e in engines]
    report.plan_runs += len(outcomes)
    flags = _engine_flags(engines)
    header = (f"program  : {label}: {gp.program.pretty()}\n"
              f"inputs   : {list(xs)}  (p={len(xs)})\n"
              f"plan     : {plan.describe()}")

    for engine, outcome in outcomes:
        if outcome.ok:
            report.completed += 1
            if any(outcome.undef_mask):
                report.degraded += 1
        else:
            report.error_kinds[outcome.kind] += 1
        if outcome.kind == "untyped":
            record(ChaosFailure(
                kind="typed-errors", iteration=i, plan_index=k,
                case_seed=case_seed, plan_seed=plan_seed,
                base_seed=report.seed, flags=flags,
                detail=f"{header}\n{engine} engine raised a non-fault "
                       f"error: {outcome.detail}",
            ))

    first_name, first = outcomes[0]
    for other_name, other in outcomes[1:]:
        agree = (first.kind == other.kind)
        if agree and first.ok:
            agree = (first.undef_mask == other.undef_mask
                     and defined_equal(first.values, other.values)
                     and first.clocks == other.clocks)
        if not agree:
            record(ChaosFailure(
                kind="engine-agreement", iteration=i, plan_index=k,
                case_seed=case_seed, plan_seed=plan_seed,
                base_seed=report.seed, flags=flags,
                detail=(f"{header}\n"
                        f"{_outcome_summary(first_name, first)}\n"
                        f"{_outcome_summary(other_name, other)}\n"
                        f"clocks   : {first_name}={list(first.clocks)} "
                        f"{other_name}={list(other.clocks)}"),
            ))

    for engine, outcome in outcomes:
        if outcome.ok and not defined_equal(outcome.values, reference):
            record(ChaosFailure(
                kind="degradation", iteration=i, plan_index=k,
                case_seed=case_seed, plan_seed=plan_seed,
                base_seed=report.seed, flags=flags,
                detail=(f"{header}\n"
                        f"{engine} returned a defined-but-wrong block:\n"
                        f"faulted  : {list(outcome.values)}\n"
                        f"reference: {list(reference)}"),
            ))
    return first


def run_chaos(
    seed: int = 0,
    iters: int = 25,
    plans_per_case: int = 3,
    rules: Iterable[Rule] = ALL_RULES,
    machine_sizes: Sequence[int] = (2, 3, 4, 5, 8),
    max_failures: int = 5,
    engines: Sequence[str] = DEFAULT_ENGINES,
    should_stop: Callable[[], bool] | None = None,
) -> ChaosReport:
    """Run ``iters`` chaos cases; stop early after ``max_failures``.

    ``engines`` is the comparison deck: every plan runs on each engine
    and all outcomes must agree with the first (the reference).  Add
    ``"process"`` to stress real forked workers under the same plans.
    ``should_stop`` is polled between cases (the CLI's SIGINT/SIGTERM
    seam): a true return finishes the current case, marks the report
    ``aborted`` and returns what was gathered so far.
    """
    rules = tuple(rules)
    engines = tuple(engines)
    report = ChaosReport(seed=seed, iters=iters,
                         plans_per_case=plans_per_case)
    seen: set[tuple[str, str]] = set()

    def record(failure: ChaosFailure) -> None:
        key = (failure.kind, failure.detail)
        if key not in seen:
            seen.add(key)
            report.failures.append(failure)

    sizes = [s for s in machine_sizes if s >= 2] or [2]
    for i in range(iters):
        if should_stop is not None and should_stop():
            report.aborted = True
            break
        case_seed = seed * 1_000_003 + i
        rng = random.Random(case_seed)
        slot = i % _CYCLE
        if slot < len(RULE_CASES):
            gp = generate_from_case(rng, RULE_CASES[slot])
        else:
            gp = generate_random(rng)
        report.cases += 1

        n = rng.choice(sizes)
        params = sample_machine_params(rng).with_(p=n)
        xs = gp.inputs(rng, n)

        # fault-free reference (also calibrates crash clocks / delays)
        ref = simulate_program(gp.program, list(xs), params)

        opt = optimize(gp.program, params, rules=rules)
        optimized = None
        if opt.derivation.steps:
            optimized = GeneratedProgram(
                program=opt.program, domain=gp.domain,
                functions=gp.functions, note=f"optimized:{gp.note}",
            )
            opt_ref = simulate_program(optimized.program, list(xs), params)

        for k in range(plans_per_case):
            plan_seed = case_seed * 7919 + k
            plan = FaultPlan.sample(plan_seed, n, horizon=ref.time)
            lhs = _check_plan(gp, "original", xs, params, plan, ref.values,
                              report, record, i, k, case_seed, plan_seed,
                              engines=engines)
            if optimized is not None:
                rhs = _check_plan(optimized, "optimized", xs, params, plan,
                                  opt_ref.values, report, record, i, k,
                                  case_seed, plan_seed, engines=engines)
                if lhs.ok and rhs.ok and not defined_equal(lhs.values,
                                                           rhs.values):
                    record(ChaosFailure(
                        kind="optimized", iteration=i, plan_index=k,
                        case_seed=case_seed, plan_seed=plan_seed,
                        base_seed=seed, flags=_engine_flags(engines),
                        detail=(f"plan     : {plan.describe()}\n"
                                f"original : {list(lhs.values)}\n"
                                f"optimized: {list(rhs.values)}\n"
                                f"LHS and RHS survived the same plan but "
                                f"disagree on defined blocks"),
                    ))

        if len(report.failures) >= max_failures:
            break

    return report


# ---------------------------------------------------------------------------
# Serving chaos: SIGKILL workers under a live multi-tenant manager
# ---------------------------------------------------------------------------

@dataclass
class ServingChaosReport:
    """Aggregate outcome of one serving chaos roulette."""

    seed: int
    runs: int
    jobs: int = 0
    completed: int = 0
    typed_failures: int = 0
    kills: int = 0
    poison_runs: int = 0
    retries: int = 0
    demotions: int = 0
    error_kinds: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    #: the last run's recovery-event kinds (uploaded as a CI artifact)
    last_events: tuple[str, ...] = ()
    #: True when a stop request (SIGINT/SIGTERM) cut the run short
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"serving chaos: seed={self.seed} runs={self.runs}"
            + (" [ABORTED by stop request]" if self.aborted else ""),
            f"  jobs              : {self.jobs}",
            f"  completed         : {self.completed}",
            f"  typed failures    : {self.typed_failures}",
            f"  worker kills      : {self.kills}",
            f"  poison scenarios  : {self.poison_runs}",
            f"  retries observed  : {self.retries}",
            f"  demotions         : {self.demotions}",
        ]
        for kind in sorted(self.error_kinds):
            lines.append(f"  {kind:<18}: {self.error_kinds[kind]}")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for failure in self.failures:
                lines.append("")
                lines.append(failure)
        else:
            lines.append("  all serving chaos checks passed")
        return "\n".join(lines)


def run_serving_chaos(
    seed: int = 0,
    runs: int = 20,
    tenants: int = 3,
    jobs_per_tenant: int = 4,
    kill_prob: float = 0.6,
    poison_prob: float = 0.25,
    max_failures: int = 5,
    result_timeout: float = 120.0,
    should_stop: Callable[[], bool] | None = None,
) -> ServingChaosReport:
    """SIGKILL roulette against a live :class:`ServingManager`.

    Each run boots a fresh manager on the ``"process"`` substrate, has
    ``tenants`` tenants submit small jobs with known references, and
    arms a sniper in the manager's ``spawn_hook`` that SIGKILLs a random
    child of a random attempt shortly after fork (with probability
    ``kill_prob`` per attempt).  With probability ``poison_prob`` the
    run instead designates one job as *poison*: every one of its
    attempts is killed, so it must end in ``PoisonJobError``.

    Invariants checked per job — each violation is one report entry:

    1. **never hangs** — every handle resolves within ``result_timeout``
       (the manager's watchdog + retry ladder must converge);
    2. **bit-identical or typed** — a handle yields exactly the
       fault-free reference values, or raises a ``ServingError``
       subclass; anything else (wrong values, untyped exception) fails;
    3. **tenant isolation** — tenants whose jobs were never killed must
       complete every job bit-identically (a kill in tenant A's fork
       generation must not leak into tenant B's results);
    4. **poison containment** — the poison tenant's job is quarantined
       with forensics while every other tenant still completes
       bit-identically.  (The poison job rides a dedicated tenant so its
       designation is known *before* submission — batches never cross
       tenants, so every kill it attracts stays inside its own fork
       generations.)

    Requires a platform that can actually run the process backend
    (``process_fallback_reason(2) is None``) — callers gate on that.
    """
    import os
    import signal
    import threading

    from repro.core.operators import ADD, CONCAT
    from repro.core.stages import Program, ReduceStage, ScanStage
    from repro.serving import (
        PoisonJobError,
        RetryPolicy,
        ServingConfig,
        ServingError,
        ServingManager,
    )

    report = ServingChaosReport(seed=seed, runs=runs)
    decks = [
        Program([ScanStage(ADD)]),
        Program([ScanStage(ADD), ReduceStage(ADD)]),
        Program([ScanStage(CONCAT)]),
    ]

    for run in range(runs):
        if should_stop is not None and should_stop():
            report.aborted = True
            break
        rng = random.Random(seed * 1_000_003 + run)
        p = rng.choice((2, 4))
        params = sample_machine_params(rng).with_(p=p)
        poison_run = rng.random() < poison_prob
        if poison_run:
            report.poison_runs += 1

        # build the tenant workload with fault-free references up front;
        # the poison job (if any) rides its own tenant so the sniper can
        # recognize it before its first fork
        POISON_TENANT = "tenant-poison"
        workload: list[tuple[str, Program, list, tuple]] = []
        for t in range(tenants):
            tenant = f"tenant-{t}"
            for j in range(jobs_per_tenant):
                program = rng.choice(decks)
                if program.stages[0].op is CONCAT:
                    xs = [f"r{r}j{j}" for r in range(p)]
                else:
                    xs = [float(rng.randrange(100)) for _ in range(p)]
                ref = tuple(simulate_program(program, list(xs),
                                             params).values)
                workload.append((tenant, program, xs, ref))
        if poison_run:
            program = decks[0]
            xs = [float(r) for r in range(p)]
            ref = tuple(simulate_program(program, list(xs), params).values)
            workload.append((POISON_TENANT, program, xs, ref))

        kill_lock = threading.Lock()
        killed_tenants: set[str] = set()
        kill_count = [0]
        hook_rng = random.Random(seed * 7919 + run)

        def sniper(procs, meta):
            is_poison = meta.get("tenant") == POISON_TENANT
            if not is_poison and hook_rng.random() >= kill_prob:
                return
            victim = procs[hook_rng.randrange(len(procs))]

            def fire():
                try:
                    os.kill(victim.pid, signal.SIGKILL)
                except (ProcessLookupError, TypeError):
                    return
                with kill_lock:
                    kill_count[0] += 1
                    killed_tenants.add(meta.get("tenant", "?"))

            if is_poison:
                # the poison job must die every attempt: kill at spawn,
                # synchronously, while the child is still in startup
                fire()
            else:
                timer = threading.Timer(hook_rng.uniform(0.0, 0.02), fire)
                timer.daemon = True
                timer.start()

        mgr = ServingManager(ServingConfig(
            workers=2, substrate="process", batch_max=4,
            retry=RetryPolicy(quarantine_after=3, backoff_base=0.01,
                              backoff_cap=0.05),
            demote_after=10_000,  # keep kills on the process substrate
            spawn_hook=sniper,
        ))
        handles = []
        try:
            for tenant, program, xs, _ref in workload:
                handles.append(mgr.submit(program, xs, params,
                                          tenant=tenant))
            report.jobs += len(handles)

            outcomes: list[tuple[str, Any]] = []  # ("ok", values) | ("err", exc)
            for handle, (tenant, program, xs, ref) in zip(handles, workload):
                try:
                    values = handle.result(timeout=result_timeout)
                except ServingError as exc:
                    outcomes.append(("err", exc))
                    report.typed_failures += 1
                    report.error_kinds[type(exc).__name__] += 1
                except TimeoutError:
                    outcomes.append(("hang", None))
                    report.failures.append(
                        f"[never-hangs] run {run} seed {seed}: job "
                        f"{handle.job_id} (tenant {tenant}) unresolved "
                        f"after {result_timeout}s\n"
                        f"program  : {program.pretty()}\n"
                        f"stats    : {mgr.stats()}")
                except BaseException as exc:  # noqa: BLE001 - the property
                    outcomes.append(("err", exc))
                    report.failures.append(
                        f"[typed-errors] run {run} seed {seed}: job "
                        f"{handle.job_id} raised untyped "
                        f"{type(exc).__name__}: {exc}")
                else:
                    outcomes.append(("ok", values))
                    report.completed += 1
                    if values != ref:
                        report.failures.append(
                            f"[bit-identical] run {run} seed {seed}: job "
                            f"{handle.job_id} (tenant {tenant}) returned "
                            f"wrong values\ngot      : {list(values)}\n"
                            f"reference: {list(ref)}")

            with kill_lock:
                survivors = ({t for t, *_ in workload} - killed_tenants
                             - {POISON_TENANT})
            for handle, (tenant, program, xs, ref), (kind, payload) in zip(
                    handles, workload, outcomes):
                if tenant in survivors and kind != "ok":
                    report.failures.append(
                        f"[tenant-isolation] run {run} seed {seed}: tenant "
                        f"{tenant} never had a worker killed, yet job "
                        f"{handle.job_id} ended {kind}: {payload}")

            if poison_run:
                kind, payload = outcomes[-1]  # the poison tenant's job
                if not (kind == "err"
                        and isinstance(payload, PoisonJobError)):
                    report.failures.append(
                        f"[poison-quarantine] run {run} seed {seed}: "
                        f"poison job {handles[-1].job_id} ended "
                        f"{kind}: {payload} (expected PoisonJobError)")
                elif not payload.forensics:
                    report.failures.append(
                        f"[poison-forensics] run {run} seed {seed}: "
                        f"quarantined job carries no forensics")
        finally:
            mgr.close(drain=False, timeout=30.0)
        stats = mgr.stats()
        report.retries += stats["retries"]
        report.demotions += stats["demotions"]
        with kill_lock:
            report.kills += kill_count[0]
        report.last_events = mgr.events.kinds()

        if len(report.failures) >= max_failures:
            break

    return report


# ---------------------------------------------------------------------------
# Chaos with recovery (--recover): supervised runs must recover or refuse
# ---------------------------------------------------------------------------

def recovered_run(engine: str, program, xs: Sequence[Any],
                  params: MachineParams, plan: FaultPlan,
                  policy=None) -> Outcome:
    """Run one engine under supervision, classifying the outcome.

    Legal outcomes are exactly two: ``"ok"`` (recovered — values must
    equal the fault-free reference) and ``"UnrecoverableError"`` (the
    supervisor refused with a typed, policy-naming error).  A raw fault
    error, a deadlock, or anything untyped escaping :func:`supervise`
    is a contract violation the caller reports.
    """
    from repro.recovery import UnrecoverableError, supervise

    try:
        res = supervise(program, list(xs), params, faults=plan,
                        policy=policy, engine=engine)
    except UnrecoverableError as exc:
        return Outcome(kind="UnrecoverableError",
                       detail=f"[{exc.policy}] {exc}")
    except FaultError as exc:  # raw fault escaped the supervisor
        return Outcome(kind=type(exc).__name__, detail=str(exc))
    except DeadlockError as exc:
        return Outcome(kind="DeadlockError", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - the property under test
        return Outcome(kind="untyped",
                       detail=f"{type(exc).__name__}: {exc}")
    return Outcome(kind="ok", values=tuple(res.values),
                   clocks=(res.time,),
                   detail=f"attempts={res.attempts} replays={res.replays}")


def run_chaos_recovery(
    seed: int = 0,
    iters: int = 25,
    plans_per_case: int = 4,
    machine_sizes: Sequence[int] = (2, 3, 4, 5, 8),
    max_failures: int = 5,
    policy=None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    should_stop: Callable[[], bool] | None = None,
) -> ChaosReport:
    """Chaos with the recovery runtime in the loop (``--chaos --recover``).

    Same deck of generated programs and sampled plans as :func:`run_chaos`,
    but every faulted run goes through :func:`repro.recovery.supervise` on
    both engines.  The headline invariant: a *survivable* plan produces
    values ``defined_equal`` to the fault-free run (same ``UNDEF`` mask —
    recovery masks faults completely, it never widens holes); an
    unsurvivable plan ends in a typed ``UnrecoverableError`` naming the
    exhausted policy.  Never a hang, never defined-but-wrong.  Both
    engines must agree on the outcome kind and, when recovered, on every
    block (virtual times and attempt counts may differ — the engines can
    observe simultaneous faults in different orders).  ``engines`` is the
    comparison deck (first entry is the reference); add ``"process"`` to
    run supervision over real forked workers.
    """
    engines = tuple(engines)
    flags = " --recover" + _engine_flags(engines)
    report = ChaosReport(seed=seed, iters=iters,
                         plans_per_case=plans_per_case, recover=True)
    seen: set[tuple[str, str]] = set()

    def record(failure: ChaosFailure) -> None:
        key = (failure.kind, failure.detail)
        if key not in seen:
            seen.add(key)
            report.failures.append(failure)

    sizes = [s for s in machine_sizes if s >= 2] or [2]
    for i in range(iters):
        if should_stop is not None and should_stop():
            report.aborted = True
            break
        case_seed = seed * 1_000_003 + i
        rng = random.Random(case_seed)
        slot = i % _CYCLE
        if slot < len(RULE_CASES):
            gp = generate_from_case(rng, RULE_CASES[slot])
        else:
            gp = generate_random(rng)
        report.cases += 1

        n = rng.choice(sizes)
        params = sample_machine_params(rng).with_(p=n)
        xs = gp.inputs(rng, n)
        ref = simulate_program(gp.program, list(xs), params)

        for k in range(plans_per_case):
            plan_seed = case_seed * 7919 + k
            plan = FaultPlan.sample(plan_seed, n, horizon=ref.time)
            header = (f"program  : {gp.program.pretty()}\n"
                      f"inputs   : {list(xs)}  (p={n})\n"
                      f"plan     : {plan.describe()}")

            outcomes = [(e, recovered_run(e, gp.program, xs, params, plan,
                                          policy=policy))
                        for e in engines]
            report.plan_runs += len(outcomes)

            for engine, outcome in outcomes:
                if outcome.ok:
                    report.completed += 1
                    if any(outcome.undef_mask):
                        report.degraded += 1
                else:
                    report.error_kinds[outcome.kind] += 1
                # contract: ok or UnrecoverableError, nothing else
                if not outcome.ok and outcome.kind != "UnrecoverableError":
                    record(ChaosFailure(
                        kind="typed-errors", iteration=i, plan_index=k,
                        case_seed=case_seed, plan_seed=plan_seed,
                        base_seed=seed, flags=flags,
                        detail=f"{header}\n{engine} supervision leaked "
                               f"{outcome.kind}: {outcome.detail}",
                    ))
                # headline invariant: recovered == fault-free, exactly
                if outcome.ok and not (
                        outcome.undef_mask
                        == tuple(v is UNDEF for v in ref.values)
                        and defined_equal(outcome.values, ref.values)):
                    record(ChaosFailure(
                        kind="recovery", iteration=i, plan_index=k,
                        case_seed=case_seed, plan_seed=plan_seed,
                        base_seed=seed, flags=flags,
                        detail=(f"{header}\n"
                                f"{engine} recovered to wrong values:\n"
                                f"recovered: {list(outcome.values)}\n"
                                f"reference: {list(ref.values)}"),
                    ))

            first_name, first = outcomes[0]
            for other_name, other in outcomes[1:]:
                agree = first.kind == other.kind
                if agree and first.ok:
                    agree = (first.undef_mask == other.undef_mask
                             and defined_equal(first.values, other.values))
                if not agree:
                    record(ChaosFailure(
                        kind="engine-agreement", iteration=i, plan_index=k,
                        case_seed=case_seed, plan_seed=plan_seed,
                        base_seed=seed, flags=flags,
                        detail=(f"{header}\n"
                                f"{_outcome_summary(first_name, first)}\n"
                                f"{_outcome_summary(other_name, other)}"),
                    ))

        if len(report.failures) >= max_failures:
            break

    return report
