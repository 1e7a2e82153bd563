"""Serving-runtime throughput, latency, and amortization.

The serving tier's pitch is that the per-job overhead of the runtime —
admission, queueing, dispatch, event logging — is small enough to serve
large streams of tiny optimize-and-execute jobs.  This bench measures:

* **sustained throughput** — an open-loop stream of small jobs
  (``scan`` at p = 4) through the cooperative substrate must sustain
  ≥ 1000 jobs/sec end to end (submit → values), with closed-loop p50 /
  p99 round-trip latencies alongside.  The stream's blocks are floats,
  so every job runs the engine (``resident_bypasses["inexact-input"]``);
  the same stream on int blocks (``resident_jobs_per_sec``) answers from
  resident schedules after one miss a program — both wall clock;
* **arena amortization** — the same stream on the process substrate
  must *reuse* pooled shared-memory arenas across fork generations
  instead of paying segment setup per job;
* **chaos variant** (separate test, process backend required) — the
  SIGKILL roulette of :func:`repro.testing.run_serving_chaos`: workers
  killed mid-job leave every surviving tenant bit-identical and every
  victim retried-or-typed, never hung.

Results land in ``benchmarks/results/BENCH_serving.json`` (headline key
``jobs_per_sec``); ``python -m repro bench summary`` aggregates it.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import RESULTS_DIR, emit, emit_json
from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import Program, ReduceStage, ScanStage
from repro.parallel import process_fallback_reason
from repro.serving import ServingConfig, ServingManager

P = 4
PARAMS = MachineParams(p=P, ts=600.0, tw=2.0, m=1024)
PROG = Program([ScanStage(ADD)], name="scan")
PROG2 = Program([ScanStage(ADD), ReduceStage(ADD)], name="scan;reduce")

#: open-loop stream length (scaled down for quick local runs via env)
N_JOBS = int(os.environ.get("REPRO_SERVING_BENCH_JOBS", "3000"))
#: closed-loop latency samples
N_LAT = int(os.environ.get("REPRO_SERVING_BENCH_LAT", "400"))
TENANTS = 4


def _pctl(sorted_xs: list[float], q: float) -> float:
    idx = min(len(sorted_xs) - 1, int(q * len(sorted_xs)))
    return sorted_xs[idx]


def _open_loop(block) -> tuple[float, dict]:
    """Submit the whole stream, then await it: (seconds, final stats)."""
    mgr = ServingManager(ServingConfig(
        workers=4, substrate="cooperative",
        queue_capacity=N_JOBS + 8))
    t0 = time.perf_counter()
    handles = [
        mgr.submit(PROG if j % 2 else PROG2,
                   [block(r + j) for r in range(P)], PARAMS,
                   tenant=f"tenant-{j % TENANTS}")
        for j in range(N_JOBS)
    ]
    for h in handles:
        h.result(timeout=300.0)
    elapsed = time.perf_counter() - t0
    stats = mgr.stats()
    mgr.close(drain=True, timeout=30.0)
    return elapsed, stats


def measure() -> dict:
    # -- open-loop throughput, float blocks (the engine on every job)
    # and int blocks (resident schedules)
    elapsed, stats = _open_loop(float)
    resident_elapsed, resident_stats = _open_loop(int)

    # -- closed-loop latency: one job in flight at a time
    mgr = ServingManager(ServingConfig(workers=1, substrate="cooperative"))
    lats = []
    for j in range(N_LAT):
        t = time.perf_counter()
        mgr.submit(PROG, [float(r) for r in range(P)], PARAMS) \
           .result(timeout=30.0)
        lats.append((time.perf_counter() - t) * 1e3)
    mgr.close(drain=True, timeout=30.0)
    lats.sort()

    return {
        "jobs": N_JOBS,
        "elapsed": elapsed,
        "jobs_per_sec": N_JOBS / elapsed,
        "p50_ms": _pctl(lats, 0.50),
        "p99_ms": _pctl(lats, 0.99),
        "events": stats["events"],
        "bypasses": stats["resident_bypasses"],
        "resident_elapsed": resident_elapsed,
        "resident_jobs_per_sec": N_JOBS / resident_elapsed,
        "resident_hits": resident_stats["resident_hits"],
        "resident_events": resident_stats["events"],
    }


def test_serving_throughput(benchmark):
    r = benchmark(measure)
    assert r["jobs_per_sec"] >= 1000, (
        f"serving sustained only {r['jobs_per_sec']:.0f} jobs/sec "
        f"(floor: 1000)")
    # every job produced an event trail: submit/admit/start/complete
    assert r["events"] >= 4 * N_JOBS
    # floats never leave the engine; ints miss once a program at most per
    # worker racing on it, and add no event
    assert r["bypasses"] == {"inexact-input": N_JOBS}
    assert r["resident_hits"] >= N_JOBS - 2 * 4
    assert r["resident_events"] == r["events"]

    lines = [
        f"serving throughput: {N_JOBS} x {PROG.name}/{PROG2.name} "
        f"jobs (p={P}) over {TENANTS} tenants, 4 workers, "
        f"cooperative substrate",
        f"  sustained   : {r['jobs_per_sec']:>10.0f} jobs/sec wall clock "
        f"({r['elapsed']:.2f}s end to end; float blocks, engine every job)",
        f"  resident    : {r['resident_jobs_per_sec']:>10.0f} jobs/sec wall "
        f"clock ({r['resident_elapsed']:.2f}s; int blocks, "
        f"{r['resident_hits']} resident-schedule hits)",
        f"  closed-loop : p50 {r['p50_ms']:.3f} ms   "
        f"p99 {r['p99_ms']:.3f} ms   ({N_LAT} samples)",
    ]
    emit("serving_throughput", lines)
    emit_json("serving", {
        "figure": "serving",
        "op": f"serve({PROG.name}|{PROG2.name}, p={P})",
        "jobs": N_JOBS,
        "tenants": TENANTS,
        "jobs_per_sec": r["jobs_per_sec"],
        "resident_jobs_per_sec": r["resident_jobs_per_sec"],
        "p50_ms": r["p50_ms"],
        "p99_ms": r["p99_ms"],
        "series": [
            {"metric": "throughput", "substrate": "cooperative",
             "clock": "wall", "blocks": "float (engine every job)",
             "jobs": N_JOBS, "jobs_per_sec": r["jobs_per_sec"]},
            {"metric": "throughput", "substrate": "cooperative",
             "clock": "wall", "blocks": "int (resident schedules)",
             "jobs": N_JOBS, "jobs_per_sec": r["resident_jobs_per_sec"],
             "resident_hits": r["resident_hits"]},
            {"metric": "latency", "substrate": "cooperative",
             "samples": N_LAT, "p50_ms": r["p50_ms"],
             "p99_ms": r["p99_ms"]},
        ],
    })


@pytest.mark.skipif(
    process_fallback_reason(P) is not None,
    reason=f"process backend unavailable: {process_fallback_reason(P)}")
def test_serving_arena_amortization():
    """Pooled arenas: a 60-job process stream reuses segments, not
    creates them — the fork-generation batching plus the arena pool is
    what makes real-process serving affordable per job."""
    jobs = 60
    mgr = ServingManager(ServingConfig(
        workers=2, substrate="process", batch_max=8,
        queue_capacity=jobs + 8))
    t0 = time.perf_counter()
    handles = [
        mgr.submit(PROG, [float(r + j) for r in range(P)], PARAMS,
                   tenant=f"tenant-{j % 2}")
        for j in range(jobs)
    ]
    for h in handles:
        h.result(timeout=120.0)
    elapsed = time.perf_counter() - t0
    pool = mgr.stats()["arena_pool"]
    mgr.close(drain=True, timeout=30.0)

    assert pool["reused"] > pool["created"], (
        f"arena pool failed to amortize: {pool}")

    lines = [
        f"serving process-substrate amortization: {jobs} jobs, "
        f"batch_max=8, 2 workers",
        f"  wall        : {elapsed:.2f}s "
        f"({jobs / elapsed:.0f} jobs/sec on real fork generations)",
        f"  arena pool  : created={pool['created']} "
        f"reused={pool['reused']} idle={pool['idle']}",
    ]
    emit("serving_amortization", lines)
    _merge_into_bench_json({"arena_pool": pool,
                            "process_jobs_per_sec": jobs / elapsed})


@pytest.mark.skipif(
    process_fallback_reason(P) is not None,
    reason=f"process backend unavailable: {process_fallback_reason(P)}")
def test_serving_chaos_variant():
    """SIGKILL roulette: killed workers leave surviving tenants
    bit-identical; victims complete via respawn or fail typed."""
    from repro.testing import run_serving_chaos

    runs = int(os.environ.get("REPRO_SERVING_BENCH_CHAOS_RUNS", "4"))
    report = run_serving_chaos(seed=11, runs=runs, tenants=3,
                               jobs_per_tenant=3, poison_prob=0.5)
    print(report.describe())
    assert report.ok, report.describe()
    assert report.kills > 0, "the roulette never fired a kill"
    _merge_into_bench_json({"chaos": {
        "runs": runs,
        "jobs": report.jobs,
        "kills": report.kills,
        "retries": report.retries,
        "completed": report.completed,
        "typed_failures": report.typed_failures,
        "poison_runs": report.poison_runs,
    }})


def _merge_into_bench_json(extra: dict) -> None:
    """Fold late results into BENCH_serving.json if the throughput test
    already wrote it (tests must stay independently runnable)."""
    path = RESULTS_DIR / "BENCH_serving.json"
    if not path.exists():
        return
    payload = json.loads(path.read_text())
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
