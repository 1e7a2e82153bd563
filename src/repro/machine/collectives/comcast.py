"""The two comcast implementations the paper compares (§3.4, Figures 6-8).

``comcast`` delivers ``g^k b`` to processor ``k`` given ``b`` at the root:

* :func:`comcast_bcast_repeat` — broadcast the *scalar* block, then every
  processor runs the logarithmic ``repeat(e, o)`` digit traversal locally
  (Figure 6).  Per-phase cost ``ts + m*tw`` for the broadcast plus
  ``m*op_count`` local work per digit: ``log p * (ts + m*(tw + c))``.
  This is the faster variant and the target of the Comcast rules.

* :func:`comcast_doubling` — the "cost-optimal" successive-doubling
  pipeline: in phase ``d`` every processor ``k < 2^d`` ships its current
  tuple state to ``k + 2^d`` and then applies ``e`` (its digit ``d`` is 0);
  the receiver applies ``o`` to the received state (its digit ``d`` is 1).
  Each processor computes exactly one digit function per phase — no value
  is computed twice, hence cost-*optimal* in total work — but whole tuple
  states cross the wire (``state_width`` words per element instead of
  one), so the critical path is ``log p * (ts + m*(state_width*tw + c))``:
  better than ``bcast;scan`` yet worse than bcast+repeat, exactly the
  ordering of the paper's Figures 7/8 ("the extra communication overhead
  for auxiliary variables").
"""

from __future__ import annotations

from typing import Any

from repro.core.derived_ops import ComcastOp
from repro.machine.collectives.bcast import bcast_binomial
from repro.machine.primitives import RankContext, recv_or, send_or_lose
from repro.semantics.functional import UNDEF, repeat_fn

__all__ = ["comcast_bcast_repeat", "comcast_doubling"]


def comcast_bcast_repeat(ctx: RankContext, value: Any, op: ComcastOp):
    """Broadcast + local ``repeat``: rank k returns ``op.compute(k, b)``."""
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    value = yield from bcast_binomial(ctx, value, root=0, width=1)
    if value is UNDEF:
        return UNDEF  # the broadcast degraded; no block to iterate on
    digits = rank.bit_length()  # repeat touches one digit per bit of k
    if digits:
        yield from ctx.compute(digits * op.op_count * m)
    return op.project(repeat_fn(op.even, op.odd, rank, op.prepare(value)))


def comcast_doubling(ctx: RankContext, value: Any, op: ComcastOp):
    """Cost-optimal successive doubling of tuple states.

    Invariant after phase ``d``: every rank ``k < 2^(d+1)`` holds the
    ``repeat`` state for the low ``d+1`` binary digits of ``k`` (trailing
    ``e`` applications for high zero bits leave the projected first
    component untouched, so all ranks may run all phases).
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    words = op.state_width * m
    state = op.prepare(value) if rank == 0 else None
    d = 1
    while d < p:
        if rank < d:
            dst = rank + d
            if dst < p:
                # the receiving half of the pipeline degrades
                yield from send_or_lose(ctx, dst, state, words)
            if state is not UNDEF:
                yield from ctx.compute(op.op_count * m)
                state = op.even(state)   # own digit d is 0
        elif rank < 2 * d:
            # our pipeline ancestor died
            state = yield from recv_or(ctx, rank - d, UNDEF)
            if state is not UNDEF:
                yield from ctx.compute(op.op_count * m)
                state = op.odd(state)    # own digit d is 1
        d *= 2
    return UNDEF if state is UNDEF else op.project(state)
