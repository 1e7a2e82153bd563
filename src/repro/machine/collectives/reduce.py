"""Reduction: binomial-tree fold and butterfly allreduce (paper eq. 16).

``reduce_binomial`` folds towards the root in ``log p`` phases, combining
in rank order so non-commutative (merely associative) operators are safe.
``allreduce_butterfly`` uses the recursive-doubling exchange on
power-of-two machines (one combine per element per phase, matching
``T_reduce = log p * (ts + m*(tw+1))``) and falls back to
reduce-then-broadcast otherwise.

Root rotation: ``reduce_binomial`` accepts any ``root``.  Commutative
operators run the binomial schedule over rotated ranks (zero extra cost);
merely associative operators must fold in true rank order, so the result
is computed at rank 0 and relayed to the root with one extra message —
the standard trade documented in ``docs/FAULTS.md``.

Self-stabilization under fault injection: a lost contribution (crashed
child or dead parent) never substitutes a wrong value — it poisons the
partial result to ``UNDEF``, which propagates through every later combine.
Survivors keep the unchanged schedule, so the collective always
terminates; the root reports a degraded ``UNDEF`` block exactly like the
semantics layer's ``_``.  The happy path is untouched.
"""

from __future__ import annotations

from typing import Any

from repro.core.operators import BinOp
from repro.machine.collectives.bcast import bcast_binomial
from repro.machine.primitives import RankContext, recv_or, send_or_lose, sendrecv_or
from repro.semantics.functional import UNDEF

__all__ = ["reduce_binomial", "allreduce_butterfly"]


def reduce_binomial(ctx: RankContext, value: Any, op: BinOp,
                    width: int | None = None, root: int = 0):
    """Reduce to ``root``; non-roots return the undefined block (MPI semantics).

    Phase ``d`` merges blocks at distance ``2^d``: the higher partner sends,
    the lower combines ``op(own, received)`` — received blocks always come
    from higher ranks, preserving list order for non-commutative operators.
    """
    p, rank = ctx.size, ctx.rank
    if not (0 <= root < p):
        raise ValueError(f"invalid reduce root {root} for {p} ranks")
    m = ctx.params.m
    w = (op.width if width is None else width) * m

    if root == 0 or op.commutative:
        # rotated binomial: rel-rank 0 is the root.  For root == 0 the
        # rotation is the identity, so rank order (and thus safety for
        # non-commutative operators) is preserved on the classic path.
        rel = (rank - root) % p
        d = 1
        while d < p:
            if rel % (2 * d) == 0:
                src = rel + d
                if src < p:
                    # child subtree lost
                    other = yield from recv_or(ctx, (src + root) % p, UNDEF)
                    if value is UNDEF or other is UNDEF:
                        value = UNDEF
                    else:
                        yield from ctx.compute(op.op_count * m)
                        value = op(value, other)
            elif rel % (2 * d) == d:
                # parent died; our subtree degrades at the root
                yield from send_or_lose(ctx, (rel - d + root) % p, value, w)
                return UNDEF
            d *= 2
        return value if rank == root else UNDEF

    # Non-commutative operator with root != 0: fold in true rank order at
    # rank 0, then relay the result (one extra ts + w*tw message).
    value = yield from reduce_binomial(ctx, value, op, width, root=0)
    if rank == 0:
        yield from send_or_lose(ctx, root, value, w)
        return UNDEF
    if rank == root:
        value = yield from recv_or(ctx, 0, UNDEF)
        return value
    return UNDEF


def allreduce_butterfly(ctx: RankContext, value: Any, op: BinOp, width: int | None = None):
    """Allreduce: recursive doubling when ``p`` is a power of two.

    Each phase exchanges blocks with the XOR partner and combines in rank
    order (lower operand first).  For non-power-of-two machines the
    butterfly coverage breaks, so we compose reduce + bcast instead (the
    standard fallback; costs one extra ``log p`` of start-ups).
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    w = (op.width if width is None else width) * m
    if p & (p - 1):  # not a power of two
        value = yield from reduce_binomial(ctx, value, op, width)
        value = yield from bcast_binomial(
            ctx, value if rank == 0 else None, root=0,
            width=(op.width if width is None else width),
        )
        return value
    d = 1
    while d < p:
        partner = rank ^ d
        # partner's half of the butterfly is lost
        other = yield from sendrecv_or(ctx, partner, value, w, UNDEF)
        if value is UNDEF or other is UNDEF:
            value = UNDEF
        else:
            yield from ctx.compute(op.op_count * m)
            value = op(value, other) if rank < partner else op(other, value)
        d *= 2
    return value
