"""The measuring process: set-up, one closed-loop timed run, verification.

One client thread drives the workload: a client's next request follows
its previous reply (closed loop), with ``workload.window`` requests in
flight.  A request's latency runs from the first call into a layer to
the reply in the caller's hands; the correctness check of each reply
runs *after* that clock stops, and the time it takes is taken out of
the throughput and CPU clocks too, so a slow oracle is never mistaken
for a slow system.

Every :data:`hostspeed.EVERY_S` seconds the loop lets the requests in
flight finish and takes a reading of the host's speed, also off the
clock; the clock values of each stretch between two readings are
divided by the host's slowdown during it (:mod:`.hostspeed` says why),
so the timing metrics are times at the reference speed.

The untraced run yields the end-to-end metrics.  The traced run
alternates untraced slices (the base of ``trace.overhead_share``) with
slices that record spans, then takes the
workload's probe jobs through every layer (:mod:`.layers`) and turns
spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.jit import STATS as JIT_STATS
from repro.jit import reset_stats as reset_jit_stats

from . import hostspeed, layers
from .metrics import BY_NAME, percentile
from .trace import Tracer, by_name, write_jsonl
from .workloads import Workload, make_workload

__all__ = ["prepare", "timed_setup", "run_workload", "host_stamp",
           "MIN_REQUESTS", "RESULTS_DIR"]

#: a run that completes fewer requests fails loudly: p95 needs ten
#: samples beyond it
MIN_REQUESTS = 200
#: requests whose plans and simulated times enter the exact counters:
#: every valid run completes them, so the sums do not depend on speed
#: (96 is a whole number of passes over serve_hot's pool of 12)
ACCOUNTED = 96
#: a traced run alternates untraced and traced slices, so that neither a
#: cost that grows during the run nor a slow spell of the host is booked
#: as tracing overhead; the untraced share is the base of the overhead
SLICES = 10
UNTRACED_SHARE = 0.3

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_now = time.perf_counter


def host_stamp() -> dict:
    """Where the numbers were measured; wall-clock values mean nothing
    without it."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
    }


def _cpu() -> tuple[float, float, float, float]:
    """(user, sys, children user, children sys) CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime, me.ru_stime, kids.ru_utime, kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak memory of this process plus that of its largest child so
    far.  Read it before anything forks for a side purpose
    (``platform.platform()`` does): a forked child starts as large as
    its parent."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # Linux reports KiB


@dataclass
class Stretch:
    """The part of a drive between two readings of the host's speed."""

    #: ``Phase.latencies[:end]`` were complete when it closed
    end: int
    #: timed wall and CPU seconds, off-the-clock work taken out
    wall: float
    cpu: float
    #: mean of the readings at its two ends ÷ ``hostspeed.NOMINAL_S``
    slowdown: float


@dataclass
class Phase:
    """What one closed-loop drive of a workload measured."""

    latencies: list[float] = field(default_factory=list)
    stretches: list[Stretch] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    #: timed wall and CPU seconds (self + children) of the drive, with
    #: the off-the-clock checks taken out
    wall: float = 0.0
    cpu: float = 0.0
    check_s: float = 0.0
    checks: int = 0
    #: peak memory when ``workload.memory_after`` requests were complete,
    #: or else when the drive ended
    peak_rss_mb: float | None = None
    sim_written: float = 0.0
    sim_run: float = 0.0
    plans: list = field(default_factory=list)
    next_index: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def at_reference_speed(self) -> tuple[list[float], float, float]:
        """``(latencies, wall, cpu)`` with the clock values of every
        stretch divided by the host's slowdown during it."""
        latencies: list[float] = []
        wall = cpu = 0.0
        start = 0
        for s in self.stretches:
            latencies.extend(x / s.slowdown
                             for x in self.latencies[start:s.end])
            wall += s.wall / s.slowdown
            cpu += s.cpu / s.slowdown
            start = s.end
        return latencies, wall, cpu


def drive(workload: Workload, seconds: float, first: int = 0) -> Phase:
    """Run the closed loop for ``seconds`` from request ``first``."""
    tracer = workload.tracer
    ph = Phase()
    window = workload.window
    limit = workload.request_limit
    pending: deque = deque()
    paused = paused_cpu = 0.0
    i = first

    def fail(exc: BaseException) -> None:
        ph.raised += 1
        if len(ph.errors) < 5:
            ph.errors.append(f"{type(exc).__name__}: {exc}")

    def more() -> bool:
        return limit is None or i < limit

    def read_speed() -> None:
        """Close the stretch since the last reading and open the next."""
        nonlocal before, t_mark, cpu_mark, paused, paused_cpu, next_reading
        wall = (_now() - t_mark) - paused
        cpu = (sum(_cpu()) - cpu_mark) - paused_cpu
        after = hostspeed.reading()
        ph.stretches.append(Stretch(
            len(ph.latencies), wall, cpu,
            (before + after) / 2 / hostspeed.NOMINAL_S))
        before = after
        paused = paused_cpu = 0.0
        cpu_mark, t_mark = sum(_cpu()), _now()
        next_reading = t_mark + hostspeed.EVERY_S

    before = hostspeed.reading()
    cpu_mark, t_mark = sum(_cpu()), _now()
    t_end = t_mark + seconds
    next_reading = t_mark + hostspeed.EVERY_S
    while True:
        # a reading is due: admit nothing, so the window drains
        due = _now() >= next_reading
        while (not due and len(pending) < window and _now() < t_end
               and more()):
            root = tracer.open_request(i)
            ph.attempted += 1
            t0 = _now()
            try:
                with tracer.resume(root):
                    pending.append((i, t0, root, workload.start(i)))
            except Exception as exc:  # a raised request is a failed one
                tracer.close(root)
                fail(exc)
            i += 1
        if not pending:
            if _now() >= t_end or not more():
                break
            if due:
                read_speed()
            continue
        j, t0, root, started = pending.popleft()
        try:
            with tracer.resume(root):
                response = workload.finish(started)
        except Exception as exc:
            tracer.close(root)
            fail(exc)
            continue
        ph.latencies.append(_now() - t0)
        tracer.close(root)

        # -- off the clock: the oracle and the exact counters
        c0, p0 = _now(), time.process_time()
        if len(ph.latencies) == workload.memory_after:
            ph.peak_rss_mb = _peak_rss_mb()
        try:
            ok = workload.check(j, response)
        except Exception as exc:
            ok = False
            if len(ph.errors) < 5:
                ph.errors.append(f"check raised {type(exc).__name__}: {exc}")
        ph.wrong += 0 if ok else 1
        ph.checks += 1
        ph.check_s += _now() - c0
        if j < ACCOUNTED:
            written, run = workload.sim_times(j, response)
            ph.sim_written += written
            ph.sim_run += run
            plan = workload.plan_of(response)
            if plan is not None:
                ph.plans.append(plan)
        paused += _now() - c0
        paused_cpu += time.process_time() - p0
    read_speed()
    if ph.peak_rss_mb is None:
        ph.peak_rss_mb = _peak_rss_mb()
    ph.wall = sum(s.wall for s in ph.stretches)
    ph.cpu = sum(s.cpu for s in ph.stretches)
    ph.next_index = i
    if limit is not None and i >= limit:
        print(f"warning: {workload.name} used all {limit} generated "
              f"inputs before the run length ended", file=sys.stderr)
    return ph


def _overhead(untraced: list[float], traced: list[float]) -> float:
    """(traced p50 - untraced p50) / untraced p50 of the parts of a
    traced run."""
    if not untraced:
        return 0.0
    return (percentile(sorted(traced), 0.50)
            / percentile(sorted(untraced), 0.50)) - 1.0


def _metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": BY_NAME[name].unit}


def prepare(name: str, seed: int, tracer: Tracer | None = None) -> Workload:
    """Everything ``setup_s`` covers after the imports: input
    generation, planning, manager construction, warm-up."""
    workload = make_workload(name, seed, tracer)
    if workload.one_core and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    reset_jit_stats()
    workload.setup()
    for j in range(workload.warmup):
        workload.finish(workload.start(-1 - j))
    gc.collect()
    return workload


def timed_setup(name: str, seed: int, t0: float,
                tracer: Tracer | None = None) -> tuple[Workload, float, float]:
    """:func:`prepare`, timed from ``t0`` — the ``time.monotonic()`` at
    which the supervisor spawned this interpreter, so interpreter start
    and the imports count.  Returns the workload and its set-up time at
    the reference speed and as read: the host's speed is read on both
    sides of the set-up, and the first readings' time is taken out."""
    r0 = time.monotonic()
    readings = [hostspeed.reading() for _ in range(5)]
    r1 = time.monotonic()
    workload = prepare(name, seed, tracer)
    raw = (time.monotonic() - t0) - (r1 - r0)
    readings += [hostspeed.reading() for _ in range(5)]
    return workload, raw / hostspeed.slowdown(readings), raw


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 t0: float, quick: bool = False) -> dict:
    """Set up (see :func:`timed_setup` for ``t0``), run and verify one
    workload in this process."""
    tracer = Tracer(enabled=False)
    cores = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
             else None)
    workload, setup_s, setup_raw_s = timed_setup(name, seed, t0, tracer)

    cpu0 = _cpu()
    phases: list[Phase] = []
    if traced:
        nxt = 0
        for _ in range(SLICES):
            for on, share in ((False, UNTRACED_SHARE),
                              (True, 1 - UNTRACED_SHARE)):
                workload.set_tracing(on)
                phases.append(drive(workload, seconds / SLICES * share,
                                    first=nxt))
                nxt = phases[-1].next_index
        workload.set_tracing(False)
        untraced = [x for p in phases[0::2]
                    for x in p.at_reference_speed()[0]]
        latencies = [x for p in phases[1::2]
                     for x in p.at_reference_speed()[0]]
    else:
        phases.append(drive(workload, seconds))
        latencies, wall, cpu = phases[0].at_reference_speed()
    cpu1 = _cpu()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    samples = len(latencies)
    completed = sum(len(p.latencies) for p in phases)
    problems: list[str] = list(errors)
    if completed < (10 if quick else MIN_REQUESTS):
        problems.append(f"only {completed} requests completed "
                        f"(minimum {MIN_REQUESTS}); lengthen the run")
    if workload.forks and (cpu1[2] + cpu1[3]) <= (cpu0[2] + cpu0[3]):
        problems.append(f"{name} burnt no child CPU: no real rank "
                        f"processes ran")

    sim_written = sum(p.sim_written for p in phases)
    sim_run = sum(p.sim_run for p in phases)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "quick": quick,
        "attempted": attempted, "failed": failed,
        "samples": samples, "problems": problems,
        "host": host_stamp(),
        # exact for a seed: the first ACCOUNTED requests of the run
        "sim_speedup": sim_written / sim_run if sim_run else 0.0,
    }
    if samples == 0:
        workload.close()
        doc.update(correct=False, metrics={})
        return doc

    if not traced:
        lat = sorted(latencies)
        values = {
            "latency_p50_ms": percentile(lat, 0.50) * 1e3,
            "latency_p95_ms": percentile(lat, 0.95) * 1e3,
            "throughput_rps": samples / wall,
            "cpu_ms_per_request": cpu / samples * 1e3,
            "peak_rss_mb": phases[0].peak_rss_mb,
            "setup_s": setup_s,
        }
        # the same, as the clocks read them on this host at this hour
        raw = sorted(phases[0].latencies)
        doc["as_read"] = {
            "latency_p50_ms": percentile(raw, 0.50) * 1e3,
            "latency_p95_ms": percentile(raw, 0.95) * 1e3,
            "throughput_rps": samples / phases[0].wall,
            "cpu_ms_per_request": phases[0].cpu / samples * 1e3,
            "setup_s": setup_raw_s,
            "host_slowdown": statistics.median(
                s.slowdown for s in phases[0].stretches),
        }
        workload.close()
    else:
        counters = layers.snapshot_counters(
            workload, [plan for p in phases for plan in p.plans])
        probe = layers.probe(workload, cores, quick=quick)
        # the JIT counters are process-wide: read them after the probe,
        # so workloads whose requests bypass the JIT still report them
        counters["jit"] = JIT_STATS.snapshot()
        workload.close()
        spans = tracer.spans
        values = layers.layer_metrics(
            by_name(spans), counters, probe,
            reference_us=(sum(p.check_s for p in phases)
                          / max(1, sum(p.checks for p in phases)) * 1e6),
            overhead=_overhead(untraced, latencies),
            sim_speedup=doc["sim_speedup"])
        problems.extend(probe.problems)
        RESULTS_DIR.mkdir(exist_ok=True)
        doc["spans"] = write_jsonl(spans,
                                   RESULTS_DIR / f"trace-{name}.jsonl")

    doc["metrics"] = {k: _metric(k, v) for k, v in values.items()}
    doc["correct"] = failed == 0 and not problems
    return doc
