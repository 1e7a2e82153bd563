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

import functools
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
    deal_cases,
    derive_seed,
)
from repro.testing.soundness import sample_machine_params

__all__ = ["ChaosFailure", "ChaosReport", "Outcome", "faulted_run",
           "recovered_run", "run_chaos", "run_chaos_recovery",
           "ServingChaosReport", "run_serving_chaos"]


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


def _classified(run: Callable[[], Outcome]) -> Outcome:
    """``run()``'s outcome, or the kind of error it raised: the type name
    of a fault error or a deadlock, ``"untyped"`` for anything else."""
    try:
        return run()
    except (FaultError, DeadlockError) as exc:
        return Outcome(kind=type(exc).__name__, detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - the property under test
        return Outcome(kind="untyped",
                       detail=f"{type(exc).__name__}: {exc}")


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

    def run() -> Outcome:
        res = simulate_program(program, list(xs), params, faults=plan, **how)
        return Outcome(kind="ok", values=tuple(res.values),
                       clocks=tuple(res.stats.clocks))

    return _classified(run)


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
    from repro.recovery import supervise

    def run() -> Outcome:
        res = supervise(program, list(xs), params, faults=plan,
                        policy=policy, engine=engine)
        return Outcome(kind="ok", values=tuple(res.values),
                       clocks=(res.time,),
                       detail=f"attempts={res.attempts} replays={res.replays}")

    return _classified(run)


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
        return _report(lines, self.error_kinds,
                       [f.describe() for f in self.failures], "chaos")


def _report(lines: list[str], error_kinds: Counter, failures: list[str],
            what: str) -> str:
    """A report's counters (``lines``) followed by its error kinds and
    its failures, or the all-clear."""
    lines += [f"  {kind:<18}: {error_kinds[kind]}"
              for kind in sorted(error_kinds)]
    if failures:
        lines.append(f"  FAILURES: {len(failures)}")
        for failure in failures:
            lines += ["", failure]
    else:
        lines.append(f"  all {what} checks passed")
    return "\n".join(lines)


def _outcome_summary(label: str, outcome: Outcome) -> str:
    if outcome.ok:
        return f"{label:<9}: ok values={list(outcome.values)}"
    return f"{label:<9}: {outcome.kind} ({outcome.detail.splitlines()[0]})"


DEFAULT_ENGINES = ("cooperative", "threaded")
assert set(DEFAULT_ENGINES) <= set(ENGINES)


@dataclass(frozen=True)
class _Deck:
    """What one chaos deck asks of every (program, plan) run."""

    #: ``runner(engine, program, xs, params, plan) -> Outcome``
    runner: Callable[..., Outcome]
    #: the outcome kinds a run may end in besides ``"ok"``; None admits
    #: every typed error (anything but ``"untyped"``)
    legal: tuple[str, ...] | None
    #: engines must agree on the per-rank virtual clocks, not only on values
    clocks_agree: bool
    #: the rules whose planned form runs under the same plans and must
    #: agree with the program as written; None: no cross-check
    optimize_with: tuple[Rule, ...] | None
    #: a completed run must keep the reference's UNDEF mask: supervision
    #: masks faults completely, a bare faulted run may widen holes
    exact: bool
    #: kind and wording of a completed-but-wrong run: (failure kind, what
    #: the engine did, the label of its values)
    wrong: tuple[str, str, str]


def _check_plan(deck: _Deck, engines: Sequence[str], gp: GeneratedProgram,
                label: str, xs: Sequence[Any], params: MachineParams,
                plan: FaultPlan, reference: tuple[Any, ...],
                report: ChaosReport, fail) -> Outcome:
    """Run one program under one plan on every engine in the deck;
    returns the first engine's outcome (for the LHS/RHS cross-check).
    Agreement is checked pairwise against the first engine, and
    ``fail(kind, detail)`` records a violation."""
    outcomes = [(e, deck.runner(e, gp.program, xs, params, plan))
                for e in engines]
    report.plan_runs += len(outcomes)
    header = (f"program  : {label}{gp.program.pretty()}\n"
              f"inputs   : {list(xs)}  (p={len(xs)})\n"
              f"plan     : {plan.describe()}")
    want_mask = tuple(v is UNDEF for v in reference)
    wrong_kind, wrong_verb, wrong_noun = deck.wrong

    for engine, outcome in outcomes:
        if outcome.ok:
            report.completed += 1
            if any(outcome.undef_mask):
                report.degraded += 1
            if not (defined_equal(outcome.values, reference)
                    and (not deck.exact or outcome.undef_mask == want_mask)):
                fail(wrong_kind,
                     f"{header}\n{engine} {wrong_verb}:\n"
                     f"{wrong_noun:<9}: {list(outcome.values)}\n"
                     f"reference: {list(reference)}")
            continue
        report.error_kinds[outcome.kind] += 1
        if outcome.kind == "untyped" or (deck.legal is not None
                                         and outcome.kind not in deck.legal):
            fail("typed-errors",
                 f"{header}\n{engine} ended in {outcome.kind}, which this "
                 f"deck does not allow: {outcome.detail}")

    first_name, first = outcomes[0]
    for other_name, other in outcomes[1:]:
        agree = (first.kind == other.kind)
        if agree and first.ok:
            agree = (first.undef_mask == other.undef_mask
                     and defined_equal(first.values, other.values)
                     and (not deck.clocks_agree
                          or first.clocks == other.clocks))
        if not agree:
            detail = (f"{header}\n"
                      f"{_outcome_summary(first_name, first)}\n"
                      f"{_outcome_summary(other_name, other)}")
            if deck.clocks_agree:
                detail += (f"\nclocks   : {first_name}={list(first.clocks)} "
                           f"{other_name}={list(other.clocks)}")
            fail("engine-agreement", detail)
    return first


def _run_deck(deck: _Deck, report: ChaosReport, engines: Sequence[str],
              machine_sizes: Sequence[int], max_failures: int,
              should_stop: Callable[[], bool] | None) -> ChaosReport:
    """Deal ``report.iters`` cases and put each through ``deck`` under
    ``report.plans_per_case`` sampled plans on every engine.

    Stops early after ``max_failures``; ``should_stop`` is polled
    between cases (the CLI's SIGINT/SIGTERM seam): a true return marks
    the report ``aborted`` and returns what was gathered so far.
    """
    engines = tuple(engines)
    flags = " --recover" if report.recover else ""
    if engines != DEFAULT_ENGINES:  # replay needs the non-default deck
        flags += "".join(f" --engine {e}" for e in engines
                         if e != "cooperative")
    seen: set[tuple[str, str]] = set()

    def record(at: tuple[int, int, int, int], kind: str, detail: str) -> None:
        # the same violation often recurs across plans; report it once
        if (kind, detail) not in seen:
            seen.add((kind, detail))
            report.failures.append(ChaosFailure(
                kind, *at, report.seed, detail, flags))

    sizes = [s for s in machine_sizes if s >= 2] or [2]
    # the fault-free deck's rule templates (its planner traps plan, they
    # do not communicate differently), then one random case
    for i, case_seed, rng, gp, _template in deal_cases(
            report.seed, report.iters, RULE_CASES):
        if should_stop is not None and should_stop():
            report.aborted = True
            break
        report.cases += 1
        n = rng.choice(sizes)
        params = sample_machine_params(rng).with_(p=n)
        xs = gp.inputs(rng, n)

        forms = [("" if deck.optimize_with is None else "original: ", gp)]
        if deck.optimize_with is not None:
            opt = optimize(gp.program, params, rules=deck.optimize_with)
            if opt.derivation.steps:
                forms.append(("optimized: ", gp.with_program(
                    opt.program, f"optimized:{gp.note}")))
        # fault-free references (the first also calibrates crash clocks
        # and delays)
        refs = [simulate_program(form.program, list(xs), params)
                for _label, form in forms]

        for k in range(report.plans_per_case):
            plan_seed = case_seed * 7919 + k
            fail = functools.partial(record, (i, k, case_seed, plan_seed))
            plan = FaultPlan.sample(plan_seed, n, horizon=refs[0].time)
            firsts = [_check_plan(deck, engines, form, label, xs, params,
                                  plan, ref.values, report, fail)
                      for (label, form), ref in zip(forms, refs)]
            if len(firsts) == 2 and all(o.ok for o in firsts) \
                    and not defined_equal(firsts[0].values, firsts[1].values):
                fail("optimized",
                     f"plan     : {plan.describe()}\n"
                     f"original : {list(firsts[0].values)}\n"
                     f"optimized: {list(firsts[1].values)}\n"
                     f"LHS and RHS survived the same plan but "
                     f"disagree on defined blocks")

        if len(report.failures) >= max_failures:
            break
    return report


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
    ``should_stop`` is polled between cases (see :func:`_run_deck`).
    """
    deck = _Deck(
        runner=faulted_run, legal=None, clocks_agree=True,
        optimize_with=tuple(rules), exact=False,
        wrong=("degradation", "returned a defined-but-wrong block",
               "faulted"))
    return _run_deck(deck, ChaosReport(seed, iters, plans_per_case), engines,
                     machine_sizes, max_failures, should_stop)


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
    deck = _Deck(
        runner=functools.partial(recovered_run, policy=policy),
        legal=("UnrecoverableError",), clocks_agree=False,
        optimize_with=None, exact=True,
        wrong=("recovery", "recovered to wrong values", "recovered"))
    return _run_deck(
        deck, ChaosReport(seed, iters, plans_per_case, recover=True),
        engines, machine_sizes, max_failures, should_stop)


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
        return _report(lines, self.error_kinds, self.failures,
                       "serving chaos")


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
        rng = random.Random(derive_seed(seed, run))
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
