"""The layer probe of the traced run, and the per-layer metrics.

After the traced part of the timed run, the workload's probe jobs (up
to four, p ≤ 8) are taken through every layer's public function, each
call in a span — including the layers the workload's own requests
bypass.  So every per-layer metric is *measured* on every workload, on
that workload's own programs and blocks, and "this layer is not on
this workload's path" shows as a number that does not move the
end-to-end metrics rather than as a missing one.

Nothing here reaches into ``src/``: it times ``parse_program``,
``ProgramDecl.to_program``, ``optimize(..., cache=)``,
``vectorize_program`` / ``vectorize_block``, ``compiled_program`` /
``engine_lower`` / ``run_jit``, ``run_vectorized``,
``simulate_program(engine=...)`` and ``ServingManager.submit(...)
.result()``, and reads ``PlanCache.stats()``, ``repro.jit.STATS``,
``SimResult.stats``, ``OptimizationResult`` and
``ServingManager.stats()``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.core.optimizer import optimize
from repro.core.plancache import PlanCache
from repro.core.rules import FULL_RULES
from repro.jit import clear_jit_cache, compiled_program, engine_lower, run_jit
from repro.kernels import (
    KernelUnsupported,
    run_vectorized,
    vectorize_block,
    vectorize_program,
)
from repro.lang import parse_program, tokenize
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.serving import ServingConfig, ServingManager

from .metrics import percentile
from .workloads import Job, TracedCache, Workload

__all__ = ["Probe", "probe", "snapshot_counters", "layer_metrics"]

_now = time.perf_counter

#: wall-clock budget of one probe stage over all probe jobs
STAGE_BUDGET_S = 0.4
#: serving round trips wanted for a p99 with ten samples beyond it
ROUNDTRIPS = 1000


@dataclass
class Probe:
    """Per-job medians and counts the spans alone cannot give."""

    tokens_per_s: float = 0.0
    kernel_fallbacks: int = 0
    machine: dict = field(default_factory=dict)
    coop_s: list[float] = field(default_factory=list)
    threaded_s: list[float] = field(default_factory=list)
    process_s: list[float] = field(default_factory=list)
    threaded_mismatch: int = 0
    process_mismatch: int = 0
    cpu_sys_share: float = 0.0
    child_cpu_share: float = 0.0
    roundtrips_s: list[float] = field(default_factory=list)
    overhead_s: float = 0.0
    serving: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _reps(first_s: float, jobs: int, lo: int, hi: int) -> int:
    """Repetitions per job that fit the stage budget."""
    if first_s <= 0:
        return hi
    return max(lo, min(hi, int(STAGE_BUDGET_S / (first_s * jobs))))


def _timed(tracer, name: str, fn, reps: int) -> tuple[list[float], object]:
    """Run ``fn`` ``reps`` times in spans named ``name``; durations and
    the last result."""
    out = []
    result = None
    for _ in range(reps):
        with tracer.span(name):
            t = _now()
            result = fn()
            out.append(_now() - t)
    return out, result


def _stage(tracer, name: str, jobs: list[Job], call, lo: int = 3,
           hi: int = 20) -> list[tuple[list[float], object]]:
    """One probe stage: ``call(job)`` returns the thunk to time.  Every
    job gets the same number of repetitions, sized from the first run
    of the first job."""
    first, _ = _timed(tracer, name, call(jobs[0]), 1)
    reps = _reps(first[0], len(jobs), lo, hi)
    return [_timed(tracer, name, call(job), reps) for job in jobs]


def probe(workload: Workload, cores: set[int] | None,
          quick: bool = False) -> Probe:
    """Take the workload's probe jobs through every layer.  ``cores``
    is what the host gave the process before any pinning: the process
    engine's ranks run on all of them."""
    tracer = workload.tracer
    pr = Probe()
    jobs = workload.probe_jobs()
    tracer.enabled = True
    with tracer.span("probe"):
        _probe_lang(tracer, jobs, pr)
        _probe_plan(tracer, jobs)
        _probe_kernels(tracer, jobs, pr)
        _probe_jit(tracer, jobs)
        _probe_engines(tracer, jobs, pr, cores)
        _probe_serving(tracer, jobs, pr, 50 if quick else ROUNDTRIPS)
    tracer.enabled = False
    return pr


def _probe_lang(tracer, jobs, pr: Probe) -> None:
    tokens = seconds = 0.0
    for job in jobs:
        n_tokens = len(tokenize(job.text))
        decl = None
        for _ in range(20):
            with tracer.span("lang.parse"):
                t = _now()
                decl = parse_program(job.text)
                seconds += _now() - t
            tokens += n_tokens
            with tracer.span("lang.to_program"):
                decl.to_program(job.env)
    pr.tokens_per_s = tokens / seconds if seconds else 0.0


def _probe_plan(tracer, jobs) -> None:
    """Cold lookups + search + put, then warm hits, on private caches."""
    for job in jobs:
        for _ in range(5):
            cache = TracedCache(PlanCache(), tracer)    # miss, search, put
            with tracer.span("planner.search"):
                optimize(job.written, job.params, rules=FULL_RULES,
                         strategy="beam", cache=cache)
        for _ in range(20):                             # the last one, warm
            with tracer.span("optimize.hit"):
                optimize(job.written, job.params, rules=FULL_RULES,
                         strategy="beam", cache=cache)


def _probe_kernels(tracer, jobs, pr: Probe) -> None:
    def lower(job):
        def fn():
            try:
                vectorize_program(job.plan.program)
                return [vectorize_block(x) for x in job.inputs]
            except KernelUnsupported:
                return None
        return fn

    for _times, lowered in _stage(tracer, "kernels.lower", jobs, lower):
        pr.kernel_fallbacks += lowered is None
    _stage(tracer, "kernels.run_vectorized", jobs,
           lambda job: lambda: run_vectorized(job.plan.program, job.inputs))


def _probe_jit(tracer, jobs) -> None:
    def cold(job):
        def fn():
            clear_jit_cache()
            try:
                return compiled_program(job.plan.program, job.params)
            except KernelUnsupported:
                return None
        return fn

    def lower(job):
        def fn():
            try:
                return engine_lower(job.plan.program, job.inputs, job.params)
            except KernelUnsupported:
                return None
        return fn

    _stage(tracer, "jit.compile_cold", jobs, cold)
    _stage(tracer, "jit.engine_lower", jobs, lower)
    _stage(tracer, "jit.run_jit", jobs,
           lambda job: lambda: run_jit(job.plan.program, job.inputs,
                                       params=job.params))


def _probe_engines(tracer, jobs, pr: Probe, cores) -> None:
    def run(engine):
        return lambda job: lambda: simulate_program(
            job.plan.program, job.inputs, job.params, engine=engine,
            **job.sim_kwargs)

    coop = _stage(tracer, "machine.simulate", jobs, run("cooperative"))
    pr.coop_s = [statistics.median(t) for t, _ in coop]
    results = [res for _, res in coop]
    pr.machine = {
        "messages": sum(r.stats.messages for r in results),
        "words": sum(r.stats.words for r in results),
        "compute_ops": sum(r.stats.compute_ops for r in results),
        "sim_time": sum(r.time for r in results),
    }
    clocks = [r.stats.clocks for r in results]

    threaded = _stage(tracer, "threaded.run", jobs, run("threaded"), hi=10)
    pr.threaded_s = [statistics.median(t) for t, _ in threaded]
    pr.threaded_mismatch = sum(res.stats.clocks != c
                               for (_, res), c in zip(threaded, clocks))

    for job in jobs:
        reason = process_fallback_reason(job.params.p)
        if reason is not None:
            pr.problems.append(f"process engine unavailable for the "
                               f"probe: {reason}")
            return
    # forked ranks inherit this thread's cores: give them all of them,
    # also where the workload itself runs on one
    mine = os.sched_getaffinity(0) if cores else None
    if cores:
        os.sched_setaffinity(0, cores)
    me0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        process = _stage(tracer, "parallel.run", jobs, run("process"), hi=5)
    finally:
        if cores:
            os.sched_setaffinity(0, mine)
    me1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    pr.process_s = [statistics.median(t) for t, _ in process]
    pr.process_mismatch = sum(res.stats.clocks != c
                              for (_, res), c in zip(process, clocks))
    user = (me1.ru_utime - me0.ru_utime) + (kids1.ru_utime - kids0.ru_utime)
    sys_ = (me1.ru_stime - me0.ru_stime) + (kids1.ru_stime - kids0.ru_stime)
    kids = ((kids1.ru_utime - kids0.ru_utime)
            + (kids1.ru_stime - kids0.ru_stime))
    if user + sys_ > 0:
        pr.cpu_sys_share = sys_ / (user + sys_)
        pr.child_cpu_share = kids / (user + sys_)


def _probe_serving(tracer, jobs, pr: Probe, roundtrips: int) -> None:
    """Window-1 round trips through a one-worker cooperative manager,
    against the same call the worker makes, made directly."""
    manager = ServingManager(ServingConfig(workers=1,
                                           substrate="cooperative"))
    try:
        def trip(job):
            def fn():
                with tracer.span("serving.submit"):
                    handle = manager.submit(job.plan.program, job.inputs,
                                            job.params, tenant="probe")
                with tracer.span("serving.result"):
                    return handle.result(timeout=60.0)
            return fn

        trips = _stage(tracer, "serving.roundtrip", jobs, trip, lo=5,
                       hi=max(5, roundtrips // len(jobs)))
        direct = _stage(
            tracer, "serving.direct_sim", jobs,
            lambda job: lambda: simulate_program(
                job.plan.program, list(job.inputs), job.params,
                engine="cooperative"),
            lo=5, hi=50)
        pr.roundtrips_s = [t for times, _ in trips for t in times]
        pr.overhead_s = statistics.mean(
            statistics.median(t) - statistics.median(d)
            for (t, _), (d, _) in zip(trips, direct))
        pr.serving = manager.stats()
    finally:
        manager.close(drain=True, timeout=30.0)


# ---------------------------------------------------------------------------
# Counters and metrics
# ---------------------------------------------------------------------------


def snapshot_counters(workload: Workload, run_plans: list) -> dict:
    """Counter snapshots at the end of the timed run, before the probe
    plans its jobs.  ``run_plans`` are the plans the accounted requests
    made on their path, if the workload plans there."""
    plans = run_plans or workload.setup_plans
    manager = getattr(workload, "manager", None)
    return {
        "plancache": workload.plan_cache.stats(),
        "serving": manager.stats() if manager is not None else None,
        "planner": {
            "programs_explored": sum(p.programs_explored for p in plans),
            "rules_fired": sum(len(p.derivation.steps) for p in plans),
            "cost_after_sum": sum(p.cost_after for p in plans),
        },
    }


def _median(spans: dict, name: str) -> float:
    xs = spans.get(name)
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: dict[str, list[float]], counters: dict,
                  pr: Probe, reference_us: float, overhead: float,
                  sim_speedup: float) -> dict[str, float]:
    """Span self times (seconds, by name) + counters → metric values."""
    us = lambda name: _median(spans, name) * 1e6          # noqa: E731
    ms = lambda name: _median(spans, name) * 1e3          # noqa: E731
    cache = counters["plancache"]
    jit = counters["jit"]
    jit_lookups = jit["cache_hits"] + jit["cache_misses"]
    # the workload's own manager when it serves, else the probe's
    serving = counters["serving"] or pr.serving
    jobs = max(1, serving.get("completed", 0))
    trips = sorted(pr.roundtrips_s)
    return {
        "sim_speedup": sim_speedup,
        "lang.parse_us": us("lang.parse"),
        "lang.to_program_us": us("lang.to_program"),
        "lang.tokens_per_s": pr.tokens_per_s,
        "plancache.hit_us": us("plancache.hit"),
        "plancache.hit_ratio": cache["hit_rate"],
        "plancache.replay_failures": cache["replay_failures"],
        "plancache.miss_put_us": us("plancache.miss") + us("plancache.put"),
        "plancache.evictions": cache["evictions"],
        "planner.search_us": us("planner.search"),
        "planner.programs_explored": counters["planner"]["programs_explored"],
        "planner.rules_fired": counters["planner"]["rules_fired"],
        "planner.cost_after_sum": counters["planner"]["cost_after_sum"],
        "kernels.lower_us": us("kernels.lower"),
        "kernels.run_vectorized_ms": ms("kernels.run_vectorized"),
        "kernels.fallbacks": pr.kernel_fallbacks,
        "jit.compile_cold_us": us("jit.compile_cold"),
        "jit.engine_lower_us": us("jit.engine_lower"),
        "jit.run_jit_ms": ms("jit.run_jit"),
        "jit.full_jit_share": (jit["full_jit_runs"] / jit["runs"]
                               if jit["runs"] else 0.0),
        "jit.cache_hit_ratio": (jit["cache_hits"] / jit_lookups
                                if jit_lookups else 0.0),
        "jit.fallbacks": sum(jit["fallbacks"].values()),
        "machine.sim_us": us("machine.simulate"),
        "machine.messages": pr.machine["messages"],
        "machine.words": pr.machine["words"],
        "machine.compute_ops": pr.machine["compute_ops"],
        "machine.sim_time": pr.machine["sim_time"],
        "threaded.run_ms": ms("threaded.run"),
        "threaded.vs_cooperative_ratio": (sum(pr.threaded_s)
                                          / sum(pr.coop_s)),
        "threaded.clock_mismatch": pr.threaded_mismatch,
        "parallel.run_ms": ms("parallel.run"),
        "parallel.vs_threaded_ratio": (sum(pr.process_s)
                                       / sum(pr.threaded_s)
                                       if pr.process_s else 0.0),
        "parallel.cpu_sys_share": pr.cpu_sys_share,
        "parallel.child_cpu_share": pr.child_cpu_share,
        "parallel.clock_mismatch": pr.process_mismatch,
        "serving.roundtrip_us": (percentile(trips, 0.50) * 1e6
                                 if trips else 0.0),
        "serving.overhead_us": pr.overhead_s * 1e6,
        "serving.p99_us": percentile(trips, 0.99) * 1e6 if trips else 0.0,
        "serving.events_per_job": serving.get("events", 0) / jobs,
        "serving.rejected": serving.get("rejected", 0),
        "serving.retries": serving.get("retries", 0),
        "serving.demotions": serving.get("demotions", 0),
        "semantics.reference_us": reference_us,
        "trace.overhead_share": overhead,
    }
