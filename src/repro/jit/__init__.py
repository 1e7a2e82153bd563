"""Whole-program JIT tier: fused plans as single compiled segment kernels.

Where the vectorized tier (:mod:`repro.kernels`) executes an optimized
pipeline stage by stage — per-stage dispatch, intermediate block
materialization, per-combine overflow checks — this tier compiles the
same fused :class:`~repro.kernels.evaluator.VectorPlan` down to one
composed NumPy/ufunc callable per local segment:

* ``map pair ; reduce(op_sr2) ; map π₁`` runs as one chunked fold whose
  pair leaves are views, whose combines are three raw ufunc writes into
  cache-resident scratch, and whose π₁ projection means the dropped
  slot is never materialized at all;
* overflow guards are hoisted to **one static range check per program**
  (:mod:`repro.jit.bounds`): exact interval propagation over the
  actual input hull proves raw int64 ufuncs can never wrap;
* chunk sizes come from the same :func:`core.cost.pipeline_chunk_count`
  model the communication layer uses.

Entry points: :func:`run_jit` (the evaluator, and the seventh oracle
backend) and :func:`engine_lower` / :func:`run_engine_ladder` (how
``simulate_program(..., jit=True)`` runs: fused kernels for the values
plus a token run for the schedule, else the checked→raw kernel swap —
simulated time is bit-identical to ``vectorize=True``; JIT changes
wall-clock only).

Results are bit-identical to the vectorized tier by construction:
anything unproven or unsupported falls back per step to the checked
kernels, and :class:`KernelOverflow` still triggers the exact
object-mode replay.  The compile cache participates in
``clear_planner_caches()`` so stale kernels can never be served after
registry or parameter changes.
"""

from __future__ import annotations

from repro.core.optimizer import register_planner_cache_reset

from .compiler import (
    CompiledProgram,
    EngineLowering,
    clear_jit_cache,
    compiled_program,
    engine_lower,
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
    "compiled_program",
    "CompiledProgram",
    "JitUnsupported",
    "clear_jit_cache",
    "STATS",
    "JitStats",
    "reset_stats",
]

# A stale compiled kernel must never outlive a planner/registry reset:
# the same hook the plan cache uses (satellite bugfix for ISSUE 8).
register_planner_cache_reset(clear_jit_cache)
