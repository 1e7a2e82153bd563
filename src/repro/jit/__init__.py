"""Whole-program JIT tier: fused plans as single register tapes.

Where the vectorized tier (:mod:`repro.kernels`) executes an optimized
pipeline stage by stage — per-stage dispatch, intermediate block
materialization, per-combine overflow checks — this tier unrolls each
run of supported steps of the same fused
:class:`~repro.kernels.evaluator.VectorPlan` over the ranks into one
straight-line tape of raw ufunc calls, run as one chunk loop:

* ``scan(mul) ; scan(add)`` writes only its reply's rows — the scan(mul)
  prefixes live in cache-sized scratch — and ``map pair ;
  reduce(op_sr2) ; map π₁`` is two raw ufunc calls per combine (the
  pair leaf makes ``r1·s2`` and ``r1·r2`` one value), and the slot π₁
  drops is never written;
* overflow guards are hoisted to **one static range check per program**
  (:mod:`repro.jit.bounds`): exact interval propagation over the
  actual input hull, read in one pass per block, proves raw int64
  ufuncs can never wrap;
* chunk sizes come from the cost model's pipelining crossover,
  :func:`core.cost.pipeline_chunk_count`.

Entry points: :func:`run_jit` (the evaluator, and the seventh oracle
backend), :func:`engine_lower` / :func:`run_engine_ladder` (how
``simulate_program(..., jit=True)`` runs: fused kernels for the values
plus a token run for the schedule, else the checked kernels — simulated
time is bit-identical to the object-mode run; JIT changes wall-clock
only) and :func:`exact_evaluator` (how a served resident hit
computes its values: the same unrolling over Python int / bool blocks,
emitted as one generated function, checked against the spec at the
first hit; :func:`exact_verdict` reads its verdict).

Results are bit-identical to the vectorized tier by construction:
anything unproven or unsupported falls back per step to the checked
kernels, and :class:`KernelOverflow` still triggers the exact
object-mode replay.  The compile cache, each compiled program's
verdicts and tapes, the served exact tapes and the block pool are memos
``clear_caches()`` empties; the compile cache's key carries the
registry version and parameters, and an exact tape records the version
it was built under.
"""

from __future__ import annotations

from .compiler import (
    CompiledProgram,
    EngineLowering,
    clear_jit_cache,
    compiled_program,
    engine_lower,
    exact_evaluator,
    exact_verdict,
    run_engine_ladder,
)
from .errors import JitUnsupported
from .evaluator import run_jit
from .stats import STATS, JitStats, reset_stats

__all__ = [
    "run_jit",
    "engine_lower",
    "run_engine_ladder",
    "EngineLowering",
    "exact_evaluator",
    "exact_verdict",
    "compiled_program",
    "CompiledProgram",
    "JitUnsupported",
    "clear_jit_cache",
    "STATS",
    "JitStats",
    "reset_stats",
]
