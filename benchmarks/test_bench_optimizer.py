"""Ablation: optimizer search strategies (greedy vs. exhaustive).

On the composed Example;Next_Example pipeline both strategies are run
across machine profiles; exhaustive search must never lose to greedy on
final cost, and the wall-clock price of exhaustiveness is benchmarked.
Also reproduces the SS2-Scan §4.2 crossover as an end-to-end optimizer
decision sweep, and measures the plan cache's serving economics (cold
beam search vs. trace replay vs. a resident by-value hit, hit rate over
a mixed workload) into ``BENCH_plancache.json``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from conftest import emit, emit_json
from repro.apps import build_composed_pipeline
from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MIN, MUL
from repro.core.optimizer import (
    clear_planner_caches,
    exhaustive_optimize,
    greedy_optimize,
    optimize,
)
from repro.core.plancache import PlanCache
from repro.core.stages import BcastStage, Program, ReduceStage, ScanStage

MACHINES = {
    "low-latency": MachineParams(p=16, ts=5.0, tw=0.1, m=1024),
    "parsytec": MachineParams(p=16, ts=600.0, tw=2.0, m=1024),
    "wan": MachineParams(p=16, ts=50_000.0, tw=10.0, m=1024),
}


def run_both():
    rows = []
    prog = build_composed_pipeline()
    for label, params in MACHINES.items():
        g = greedy_optimize(prog, params)
        e = exhaustive_optimize(prog, params)
        rows.append((label, g, e))
    return rows


def test_optimizer_strategies(benchmark):
    rows = benchmark(run_both)
    lines = [f"pipeline: {build_composed_pipeline().pretty()}", ""]
    for label, g, e in rows:
        lines.append(
            f"{label:<12} greedy {g.cost_before:>10.0f} -> {g.cost_after:>10.0f} "
            f"({len(g.derivation.steps)} steps, {g.programs_explored} progs)   "
            f"exhaustive -> {e.cost_after:>10.0f} "
            f"({len(e.derivation.steps)} steps, {e.programs_explored} progs)"
        )
        assert e.cost_after <= g.cost_after + 1e-9
        assert e.cost_after <= e.cost_before
    emit("ablation_optimizer", lines)


def test_ss2_crossover_sweep(benchmark):
    """§4.2 end-to-end: the optimizer starts applying SS2-Scan exactly
    when ts exceeds 2m."""

    def sweep():
        prog = Program([ScanStage(MUL), ScanStage(ADD)])
        m = 512
        decisions = []
        for ts in [64, 256, 512, 1000, 1024, 1048, 2048, 8192]:
            params = MachineParams(p=16, ts=float(ts), tw=1.0, m=m)
            res = exhaustive_optimize(prog, params)
            applied = "SS2-Scan" in res.derivation.rules_used
            decisions.append((ts, applied))
        return m, decisions

    m, decisions = benchmark(sweep)
    lines = [f"program: scan(mul); scan(add), m = {m}  (threshold ts > 2m = {2*m})",
             f"{'ts':>8} {'SS2-Scan applied?':>20}"]
    for ts, applied in decisions:
        lines.append(f"{ts:>8} {'yes' if applied else 'no':>20}")
        assert applied == (ts > 2 * m), f"wrong decision at ts={ts}"
    emit("ss2_crossover", lines)


# ---------------------------------------------------------------------------
# Plan cache: cold search vs. replay vs. resident, hit rate over a mixed workload
# ---------------------------------------------------------------------------

#: the repeated program shapes a serving front end would see — the long
#: scan chains are where planning is expensive (large rewrite graphs) and
#: therefore where the cache earns its keep
WORKLOAD_SHAPES = {
    "composed": build_composed_pipeline,
    "scan-chain-8": lambda: Program(
        [BcastStage(), ScanStage(ADD), ScanStage(ADD), ScanStage(MAX),
         ScanStage(ADD), ScanStage(MIN), ScanStage(ADD), ScanStage(MAX)]),
    "scan-chain-6": lambda: Program(
        [BcastStage(), ScanStage(MUL), ScanStage(ADD), ScanStage(ADD),
         ScanStage(MAX), ReduceStage(ADD)]),
    "bcast-scan-chain": lambda: Program(
        [BcastStage(), ScanStage(ADD), ScanStage(ADD), ScanStage(MAX)]),
    "scan-scan": lambda: Program([ScanStage(MUL), ScanStage(ADD)]),
}

COLD_REPEATS = 5
WARM_REPEATS = 50


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def test_plancache_cold_vs_warm(benchmark, tmp_path):
    """What the cache owes: on every shape a resident hit beats a replayed
    one, which beats a cold search, and hit/miss counts are exact.

    A warm ``optimize(cache=...)`` is one of two things.  A program value
    the cache has not served yet (here: the shape under a fresh ``name``,
    so the same signature and the same stored trace) is *replayed*; a
    value-equal fresh program, as a repeated source text parses to, is
    served *resident*.  All three medians are recorded per shape, with
    ``speedup`` = cold / replay and ``resident_speedup`` = cold /
    resident, but the ratios have no floor: a faster planner shrinks them
    at nobody's loss.  The wall-clock headline of planning and of cache
    hits lives in ``benchmarks/e2e`` (``plan_cold`` vs ``serve_hot``).
    """
    params = MACHINES["parsytec"]
    cache = PlanCache(path=tmp_path / "plans.json")
    series = []
    for label, build in WORKLOAD_SHAPES.items():
        # every request brings its own program object, as a parsed text
        # does: per-stage and per-program memos must not flatter a repeat
        fresh = iter([build() for _ in range(COLD_REPEATS + WARM_REPEATS)])
        renamed = iter([Program(build().stages, name=f"{label}-{k}")
                        for k in range(WARM_REPEATS)])
        prog = build()

        def cold():
            # a cold request sees no planner state at all: drop the match
            # memo too, or remembered windows would flatter the cold numbers
            clear_planner_caches()
            return optimize(next(fresh), params, strategy="beam")

        cold_s = _median_seconds(cold, COLD_REPEATS)
        optimize(prog, params, strategy="beam", cache=cache)  # prime
        before = cache.stats()
        replay_s = _median_seconds(
            lambda: optimize(next(renamed), params, strategy="beam",
                             cache=cache),
            WARM_REPEATS)
        optimize(build(), params, strategy="beam", cache=cache)  # replayed
        resident_s = _median_seconds(
            lambda: optimize(next(fresh), params, strategy="beam",
                             cache=cache),
            WARM_REPEATS)
        after = cache.stats()
        # each column timed what its name says
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == 2 * WARM_REPEATS + 1
        assert (after["resident_hits"] - before["resident_hits"]
                == WARM_REPEATS)
        series.append({
            "shape": label,
            "stages": len(prog.stages),
            "cold_median_s": cold_s,
            "replay_median_s": replay_s,
            "resident_median_s": resident_s,
            "speedup": cold_s / replay_s if replay_s else float("inf"),
            "resident_speedup": (cold_s / resident_s if resident_s
                                 else float("inf")),
        })

    cold_total = sum(row["cold_median_s"] for row in series)
    replay_total = sum(row["replay_median_s"] for row in series)
    resident_total = sum(row["resident_median_s"] for row in series)
    overall = cold_total / replay_total if replay_total else float("inf")
    overall_resident = (cold_total / resident_total if resident_total
                        else float("inf"))

    # -- hit rate over a mixed stream of repeated shapes --------------------
    stream_cache = PlanCache()
    requests = 120
    shapes = [build() for build in WORKLOAD_SHAPES.values()]
    for i in range(requests):
        optimize(shapes[i % len(shapes)], params, strategy="beam",
                 cache=stream_cache)
    stats = stream_cache.stats()
    expected_hits = requests - len(shapes)

    # pytest-benchmark tracks the representative warm-serve kernel (one
    # program object served again and again: the resident path)
    prog0 = next(iter(WORKLOAD_SHAPES.values()))()
    benchmark(lambda: optimize(prog0, params, strategy="beam", cache=cache))

    emit_json("plancache", {
        "machine": {"p": params.p, "ts": params.ts, "tw": params.tw,
                    "m": params.m},
        "series": series,
        "overall_speedup": overall,
        "overall_resident_speedup": overall_resident,
        "workload": {
            "requests": requests,
            "unique_shapes": len(shapes),
            "hits": stats["hits"],
            "resident_hits": stats["resident_hits"],
            "misses": stats["misses"],
            "hit_rate": stats["hit_rate"],
        },
    })
    assert stats["hits"] == expected_hits
    assert stats["misses"] == len(shapes)
    # the stream repeats program objects: one replay per shape, then resident
    assert stats["resident_hits"] == expected_hits - len(shapes)
    for row in series:
        assert (row["resident_median_s"] < row["replay_median_s"]
                < row["cold_median_s"]), (
            f"{row['shape']}: expected resident "
            f"({row['resident_median_s']:.2e}s) < replay "
            f"({row['replay_median_s']:.2e}s) < cold search "
            f"({row['cold_median_s']:.2e}s)")
