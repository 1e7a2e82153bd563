"""Wall-clock benchmark of the process-per-rank shared-memory backend.

The headline claim (``docs/PERFORMANCE.md``): on GIL-bound object-mode
workloads — the SR2-optimized ``scan(⊗); reduce(⊕)`` pipeline with a
Python loop per element per combine — running the ranks as real OS
processes (:mod:`repro.parallel`) is ≥ 2× faster in wall-clock than the
thread-per-rank engine at p=8 on 1M-element int64/float64 blocks,
because threads serialize on the GIL while processes genuinely compute
in parallel, with payloads crossing through shared-memory rings.

Both engines run the *same* program through the *same* collective
algorithms, so the comparison isolates the execution substrate.  Values
are checked ``blocks_allclose``-identical to the functional reference
(``Program.run``) and the simulated clocks bit-identical to the
cooperative engine — speed must not change a single observable.

The ≥ 2× assertion is gated on a multicore host (the claim is about
parallel hardware; a 1-core container time-slices processes too).  The
measured numbers are emitted unconditionally to
``benchmarks/results/BENCH_parallel.json`` (schema: ``op``, ``p``,
``block``, ``backend``, ``median_s``/``stdev_s`` over ``repeats``, plus
the shared ``host`` descriptor), which the ``parallel-perf-smoke`` CI
job uploads.  ``REPRO_BENCH_PARALLEL_BLOCK`` / ``_REPEATS`` shrink the
workload for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

from conftest import emit, emit_json
from repro.apps.vectorops import blocks_allclose
from repro.core.cost import MachineParams
from repro.core.operators import ADD, MUL, declare_distributes
from repro.core.optimizer import optimize
from repro.core.stages import Program, ReduceStage, ScanStage
from repro.kernels import elementwise
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason

P = 8
BLOCK = int(os.environ.get("REPRO_BENCH_PARALLEL_BLOCK", 1_000_000))
REPEATS = int(os.environ.get("REPRO_BENCH_PARALLEL_REPEATS", 3))

EW_MUL = elementwise(MUL)
EW_ADD = elementwise(ADD)
declare_distributes(EW_MUL, EW_ADD)  # inherited elementwise from MUL/ADD


def _timed(fn, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), \
        statistics.stdev(times) if len(times) > 1 else 0.0


def _optimized_pipeline() -> Program:
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=BLOCK)
    result = optimize(Program([ScanStage(EW_MUL), ReduceStage(EW_ADD)],
                              name="scan;reduce"), params)
    assert "SR2-Reduction" in result.derivation.rules_used
    return result.program


def _blocks(dtype: str, seed: int) -> list[list]:
    rng = np.random.default_rng(seed)
    if dtype == "int64":
        # values in 1..3: scan(mul) products stay ≤ 3^p, far from overflow
        return [rng.integers(1, 4, BLOCK).astype(np.int64).tolist()
                for _ in range(P)]
    # floats near 1: products stay bounded, sums stay well-conditioned
    return [rng.uniform(0.99, 1.01, BLOCK).tolist() for _ in range(P)]


def test_process_backend_runs_for_real_on_linux():
    """CI gate: on Linux the process backend must NOT silently fall back."""
    if not sys.platform.startswith("linux"):
        return
    reason = process_fallback_reason(P)
    assert reason is None, f"process backend degraded on Linux: {reason}"


def test_process_vs_threaded_speedup():
    """Process engine ≥ 2× threaded on the GIL-bound SR2 pipeline (p=8)."""
    program = _optimized_pipeline()
    params = MachineParams(p=P, ts=10.0, tw=1.0, m=BLOCK)
    cpu_count = os.cpu_count() or 1
    multicore = cpu_count >= 4 and process_fallback_reason(P) is None

    series = []
    speedups = {}
    for dtype in ("int64", "float64"):
        blocks = _blocks(dtype, seed=hash(dtype) % 1000)
        reference = program.run([list(b) for b in blocks])

        coop = simulate_program(program, [list(b) for b in blocks], params)
        assert blocks_allclose(list(coop.values), reference)

        t_median, t_stdev = _timed(
            lambda: simulate_program(program, [list(b) for b in blocks],
                                     params, engine="threaded"), REPEATS)
        proc_results = []
        p_median, p_stdev = _timed(
            lambda: proc_results.append(
                simulate_program(program, [list(b) for b in blocks],
                                 params, engine="process")), REPEATS)

        # correctness before speed: allclose to the functional reference,
        # simulated clocks bit-identical to the cooperative engine
        for result in proc_results:
            assert blocks_allclose(list(result.values), reference)
            assert result.stats.clocks == coop.stats.clocks
            assert result.time == coop.time

        speedups[dtype] = t_median / p_median
        series += [
            {"op": "sr2[mul,add]", "p": P, "block": BLOCK, "dtype": dtype,
             "backend": "threaded", "median_s": t_median,
             "stdev_s": t_stdev, "repeats": REPEATS},
            {"op": "sr2[mul,add]", "p": P, "block": BLOCK, "dtype": dtype,
             "backend": "process", "median_s": p_median,
             "stdev_s": p_stdev, "repeats": REPEATS},
        ]

    lines = [
        f"SR2-optimized scan(mul);reduce(add), object mode, "
        f"p={P}, block={BLOCK}, cpu_count={cpu_count}",
        f"{'dtype':>8} {'threaded_s':>12} {'process_s':>12} {'speedup':>9}",
    ]
    for dtype in ("int64", "float64"):
        t = next(r for r in series if r["dtype"] == dtype
                 and r["backend"] == "threaded")
        pr = next(r for r in series if r["dtype"] == dtype
                  and r["backend"] == "process")
        lines.append(f"{dtype:>8} {t['median_s']:>12.3f} "
                     f"{pr['median_s']:>12.3f} {speedups[dtype]:>8.2f}x")
    emit("parallel_process_speedup", lines)
    emit_json("parallel", {
        "pipeline": "scan(mul);reduce(add) --SR2-Reduction--> "
                    "map pair;reduce(op_sr2);map pi_1 (object mode)",
        "p": P,
        "block": BLOCK,
        "series": series,
        "speedup": speedups,
        "speedup_asserted": multicore,
    })
    if multicore:
        for dtype, speedup in speedups.items():
            assert speedup >= 2.0, (
                f"process backend only {speedup:.2f}x faster than threaded "
                f"on {dtype} (p={P}, block={BLOCK}, cpus={cpu_count})")


def test_process_large_array_transfer_smoke():
    """Zero-copy array path: results identical through real processes."""
    if process_fallback_reason(4) is not None:
        return
    from repro.core.operators import BinOp
    from repro.parallel import process_spmd_run

    vadd = BinOp("vadd", lambda a, b: a + b, commutative=True)
    arrs = [np.arange(BLOCK // 4, dtype=np.float64) * (r + 1)
            for r in range(4)]

    def rank_program(comm, x):
        return comm.allreduce(x, op=vadd)

    result = process_spmd_run(rank_program, arrs,
                              MachineParams(p=4, ts=1.0, tw=0.1, m=BLOCK // 4))
    want = sum(arrs)
    assert all(np.allclose(v, want) for v in result.values)
