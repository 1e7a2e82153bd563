"""Wall-clock benchmark of the whole-program JIT tier.

The headline claim (``docs/PERFORMANCE.md``): on the SR2-optimized
``scan(⊗); reduce(⊕)`` pipeline with 1M-element int blocks, the JIT
tier — fused raw-ufunc segment kernels with the overflow guard hoisted
to one static range check — runs ≥ 2× faster than the checked
vectorized evaluator, while producing bit-identical outputs.  Both
paths execute the *same* optimized program shape (``map pair ;
reduce(op_sr2) ; map π₁``), so the comparison isolates per-combine
checking overhead, not the rewrite and not the substrate.

A second assertion pins the simulated-time contract: ``jit=True`` on
the machine engine must report exactly the same clock as
``vectorize=True`` (JIT changes wall-clock only, never the cost model).

A third is a gate, not a headline — *never ship a modelled loser*: on
the four ``exec_block`` deck shapes (p = 8, 131 072-element int64
blocks) ``simulate_program(jit=True)`` of the program as the planner
serves it may take at most 1.25× the wall clock of the program as
written.  The rules save simulated time; they must not cost the real
kind (a ``comcast`` the JIT could not compile once cost 2.4×).

Beside each deck form's wall clock go the two readings that say what
the clock is made of — ``minor_faults_per_run`` and ``sys_share`` (the
``sys`` part of the runs' CPU time), from ``resource.getrusage`` around
the same runs with each reply dropped: the compiled folds' rows come
from a recycling pool, so both sit near zero (``null`` where the
platform has no ``resource``).  The gate on them is tier-1's
``tests/test_block_pool.py::TestFaultGate``.

Results go to ``benchmarks/results/BENCH_jit.json`` (same schema as
BENCH_vectorized.json; the gate adds ``planned_vs_written``).  CI runs
this file as the jit perf smoke with ``REPRO_BENCH_JIT_BLOCK`` shrunk
to fit the runner.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from functools import partial

import numpy as np

try:
    import resource
except ImportError:  # no getrusage here: the two readings are null
    resource = None

from conftest import RESULTS_DIR, emit, emit_json
from repro.core.cost import MachineParams
from repro.core.operators import ADD, MUL
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.jit import (
    STATS,
    clear_jit_cache,
    engine_lower,
    reset_stats,
    run_jit,
)
from repro.kernels import run_vectorized
from repro.machine.run import simulate_program
from repro.testing.generator import GeneratedProgram
from repro.testing.oracle import differential_check

P = 8
BLOCK = int(os.environ.get("REPRO_BENCH_JIT_BLOCK", "1000000"))
REPEATS = int(os.environ.get("REPRO_BENCH_JIT_REPEATS", "7"))
CHECK_BLOCK = min(BLOCK, 4096)  # differential oracle at a tractable size

#: the ``exec_block`` workload's deck (benchmarks/e2e/workloads.py), as
#: written; its block size is fixed — the gate is about that workload
DECK_BLOCK = 131_072
DECK = (
    ("sr2", (ScanStage(MUL), ReduceStage(ADD))),
    ("ss", (ScanStage(MUL), ScanStage(ADD))),
    ("comcast", (BcastStage(), ScanStage(ADD))),
    ("allreduce", (AllReduceStage(ADD),)),
)
MAX_PLANNED_OVER_WRITTEN = 1.25


def _timed(fn, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    stdev = statistics.stdev(times) if len(times) > 1 else 0.0
    return statistics.median(times), stdev


def _what_the_clock_is_made_of(fn, repeats: int) -> dict:
    """Minor page faults per run and the ``sys`` share of the CPU time of
    ``repeats`` runs of ``fn``, each result dropped."""
    if resource is None:
        return {"minor_faults_per_run": None, "sys_share": None}
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeats):
        fn()
    after = resource.getrusage(resource.RUSAGE_SELF)
    sys_s = after.ru_stime - before.ru_stime
    cpu_s = sys_s + after.ru_utime - before.ru_utime
    return {
        "minor_faults_per_run": (after.ru_minflt - before.ru_minflt) / repeats,
        "sys_share": sys_s / cpu_s if cpu_s else 0.0,
    }


def _inputs(block: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    # values in 1..3: scan(mul) products stay ≤ 3^p, far from int64 limits
    return [rng.integers(1, 4, block).astype(np.int64) for _ in range(P)]


def _optimized(block: int) -> Program:
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=block)
    result = optimize(Program([ScanStage(MUL), ReduceStage(ADD)],
                              name="scan;reduce"), params)
    assert "SR2-Reduction" in result.derivation.rules_used
    return result.program


def test_jit_sr2_pipeline_speedup():
    """JIT SR2 pipeline ≥ 2× the checked vectorized evaluator, bit-identical."""
    arrays = _inputs(BLOCK)
    prog = _optimized(BLOCK)

    clear_jit_cache()
    reset_stats()
    vec_out = run_vectorized(prog, [a.copy() for a in arrays], strict=True)
    jit_out = run_jit(prog, [a.copy() for a in arrays], strict=True)
    assert STATS.full_jit_runs >= 1, (
        f"benchmark pipeline did not run fully JIT-compiled: "
        f"fallbacks={dict(STATS.fallbacks)}"
    )
    assert len(vec_out) == len(jit_out) == P
    for v, j in zip(vec_out, jit_out):
        assert isinstance(j, type(v))
        assert np.array_equal(np.asarray(v), np.asarray(j))
        assert np.asarray(v).dtype == np.asarray(j).dtype  # bit-identical

    vec_median, vec_stdev = _timed(
        lambda: run_vectorized(prog, [a.copy() for a in arrays],
                               strict=True), REPEATS)
    jit_median, jit_stdev = _timed(
        lambda: run_jit(prog, [a.copy() for a in arrays], strict=True),
        REPEATS)

    speedup = vec_median / jit_median
    lines = [
        f"SR2-optimized scan(mul);reduce(add), p={P}, block={BLOCK}",
        f"{'backend':>12} {'median_s':>12} {'stdev_s':>12} {'repeats':>8}",
        f"{'vectorized':>12} {vec_median:>12.4f} {vec_stdev:>12.4f} {REPEATS:>8}",
        f"{'jit':>12} {jit_median:>12.4f} {jit_stdev:>12.4f} {REPEATS:>8}",
        f"speedup: {speedup:.2f}x",
    ]
    emit("jit_sr2_speedup", lines)
    emit_json("jit", {
        "pipeline": "scan(mul);reduce(add) --SR2-Reduction--> "
                    "map pair;reduce(op_sr2);map pi_1",
        "p": P,
        "block": BLOCK,
        "series": [
            {"op": "op_sr2[mul,add]", "p": P, "block": BLOCK,
             "backend": "vectorized", "median_s": vec_median,
             "stdev_s": vec_stdev, "repeats": REPEATS},
            {"op": "op_sr2[mul,add]", "p": P, "block": BLOCK,
             "backend": "jit", "median_s": jit_median,
             "stdev_s": jit_stdev, "repeats": REPEATS},
        ],
        "speedup": speedup,
    })
    assert speedup >= 2.0, (
        f"jit SR2 pipeline only {speedup:.2f}x faster than vectorized"
    )


def test_jit_benchmark_pipeline_agrees_across_backends():
    """The benchmarked pipeline passes the differential oracle with jit.

    Scalar blocks (one int per rank): the functional reference folds
    Python values, so this is the size every backend can express; the
    combine structure exercised is identical to the big-block runs.
    """
    prog = _optimized(1)
    gp = GeneratedProgram(program=prog, domain="int", functions={},
                          note="bench-jit sr2 pipeline")
    rng = np.random.default_rng(1)
    xs = [int(v) for v in rng.integers(1, 4, P)]
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=1)
    mismatch = differential_check(
        gp, xs, params,
        backends=("functional", "machine", "threaded", "vectorized", "jit"))
    assert mismatch is None, mismatch.describe()


def test_jit_identical_simulated_time():
    """jit=True reports the exact simulated clock of vectorize=True."""
    prog = _optimized(CHECK_BLOCK)
    xs = _inputs(CHECK_BLOCK, seed=2)
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=CHECK_BLOCK)
    vec = simulate_program(prog, [a.copy() for a in xs], params,
                           vectorize=True)
    jit = simulate_program(prog, [a.copy() for a in xs], params, jit=True)
    assert jit.time == vec.time
    for v, j in zip(vec.values, jit.values):
        assert np.array_equal(np.asarray(v), np.asarray(j))


def test_planned_is_no_slower_than_written():
    """Never ship a modelled loser: under ``simulate_program(jit=True)``
    the planned form of every ``exec_block`` deck shape costs at most
    1.25× the wall clock of the program as written."""
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=DECK_BLOCK)
    xs = _inputs(DECK_BLOCK, seed=3)
    repeats = max(REPEATS, 9)
    shapes, lines = [], [
        f"exec_block deck under simulate_program(jit=True), p={P}, "
        f"block={DECK_BLOCK}",
        f"{'shape':>10} {'form':>8} {'rung':>8} {'median_ms':>10} "
        f"{'sim_time':>12} {'minflt/run':>10} {'sys_share':>9}  program",
    ]
    for name, stages in DECK:
        written = Program(stages, name=name)
        planned = optimize(written, params, rules=FULL_RULES,
                           strategy="beam").program
        shape = {"shape": name, "p": P, "block": DECK_BLOCK}
        for form, prog in (("written", written), ("planned", planned)):
            low = engine_lower(prog, xs, params)
            res = simulate_program(prog, xs, params, jit=True)  # warm
            run = partial(simulate_program, prog, xs, params, jit=True)
            median, stdev = _timed(run, repeats)
            shape[form] = {"program": prog.pretty(), "rung": low.rung,
                           "why": low.why, "median_s": median,
                           "stdev_s": stdev, "repeats": repeats,
                           "sim_time": res.time,
                           **_what_the_clock_is_made_of(run, 4 * repeats)}
            faults, sys_share = (
                "-" if shape[form][key] is None else f"{shape[form][key]:.2f}"
                for key in ("minor_faults_per_run", "sys_share"))
            lines.append(f"{name:>10} {form:>8} {low.rung:>8} "
                         f"{median * 1e3:>10.2f} {res.time:>12.0f} "
                         f"{faults:>10} {sys_share:>9}  {prog.pretty()}")
        shape["planned_over_written"] = (shape["planned"]["median_s"]
                                         / shape["written"]["median_s"])
        lines.append(f"{name:>10} planned/written wall clock: "
                     f"{shape['planned_over_written']:.2f}x")
        shapes.append(shape)
    emit("jit_planned_vs_written", lines)
    path = RESULTS_DIR / "BENCH_jit.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.pop("host", None)  # re-stamped: this run is this host's
    emit_json("jit", {**payload, "planned_vs_written": shapes})
    for shape in shapes:
        planned = shape["planned"]
        assert planned["sim_time"] <= shape["written"]["sim_time"]
        assert shape["planned_over_written"] <= MAX_PLANNED_OVER_WRITTEN, (
            f"{shape['shape']}: planned {planned['program']!r} takes "
            f"{shape['planned_over_written']:.2f}x the wall clock of the "
            f"program as written (rung {planned['rung']}, "
            f"declined: {planned['why'] or '-'})")
