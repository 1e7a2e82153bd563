"""``run_jit`` — the JIT tier's front-end evaluator.

Same contract as :func:`repro.kernels.evaluator.run_vectorized` (it is
the seventh conformance backend) through the same
:func:`~repro.kernels.evaluator.run_lowered`, with each decline counted
in :data:`~repro.jit.stats.STATS`: ``unsupported-program`` /
``unsupported-input`` (static; propagated under ``strict=True``, where
the oracle reports SKIPPED) and ``overflow-replay`` (dynamic; always the
exact object-mode replay).

Everything in between — unprovable bounds, non-conforming blocks,
steps the compiler can't lower — silently executes through the checked
kernelized plan per step, so results are bit-identical to the
vectorized tier in every case.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.cost import MachineParams
from repro.core.stages import Program
from repro.kernels.blocks import devectorize_block, vectorize_block
from repro.kernels.evaluator import run_lowered

from .compiler import compiled_program
from .stats import STATS

__all__ = ["run_jit"]


def run_jit(
    program: Program,
    xs: Sequence[Any],
    *,
    params: Optional[MachineParams] = None,
    strict: bool = False,
) -> list[Any]:
    """Run ``program`` on the distributed list ``xs`` through the JIT tier.

    ``params`` tunes local chunk sizing only (results never depend on
    it); ``strict=True`` propagates the static skip for the oracle.
    """
    STATS.runs += 1
    return run_lowered(
        {"unsupported-program": lambda: compiled_program(program, params),
         "unsupported-input": lambda: [vectorize_block(x) for x in xs]},
        lambda cp, vec: [devectorize_block(v) for v in cp.run(vec)],
        lambda: program.run(list(xs)), strict=strict,
        declined=lambda why: STATS.fallbacks.update((why,)))
