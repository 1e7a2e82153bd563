"""Machine algorithms for reduce_scatter / allgatherv (bandwidth vocabulary).

These are the two halves of the bandwidth-optimal allreduce
decomposition (``allreduce ≡ reduce_scatter ; allgatherv``), promoted to
first-class collectives so the rewrite engine can pick them per machine:

* :func:`reduce_scatter_machine` — recursive halving over the segment
  partition for commutative operators (``log p`` start-ups, volumes
  ``m/2 + m/4 + ... = m*(1 - 1/p)`` words and combines).  Non-power-of-two
  machines fold the ``r = p - 2^k`` excess ranks pairwise into a
  power-of-two core first and unfold one segment afterwards.  Merely
  associative operators must combine in true rank order, which recursive
  halving cannot guarantee over an arbitrary partition, so they pay a
  rank-ordered binomial reduce plus :func:`scatterv_binomial` instead.
* :func:`allgatherv_machine` — recursive doubling over the (possibly
  irregular) segments on power-of-two machines, a segment ring otherwise.

Self-stabilization under fault injection follows the house idiom
(:mod:`repro.machine.collectives.reduce`): a lost or degraded
contribution never substitutes a wrong value — it poisons the affected
outputs to ``UNDEF`` while survivors keep the unchanged schedule, so the
collectives terminate and the chaos oracle can check them bit-for-bit
against the reference semantics.

Message costs are volume-weighted: a payload of ``e`` block elements
charges ``e * m * width / n`` words, where ``n`` is the (full) block
length and ``m`` the modelled block size.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.operators import BinOp
from repro.machine.collectives.gather import allgather_blocks, scatter_tree
from repro.machine.collectives.reduce import reduce_binomial
from repro.machine.primitives import RankContext, recv_or, send_or_lose, sendrecv_or
from repro.semantics.functional import UNDEF
from repro.semantics.vocabulary import (
    balanced_counts,
    concat_blocks,
    resolve_counts,
    split_by_counts,
)

__all__ = ["reduce_scatter_machine", "allgatherv_machine", "scatterv_binomial"]


def _per_element(scale: float) -> Callable[[Any], float]:
    """The volume-weighted price: ``scale`` words per element actually
    carried (an undefined block weighs nothing)."""
    return lambda carried: scale * sum(len(b) for b in carried
                                       if b is not UNDEF)


def scatterv_binomial(ctx: RankContext, values: Any, scale: float,
                      root: int = 0):
    """Scatter the root's list of (irregular) segments; rank ``i`` gets
    ``values[i]``.  The halving tree of ``scatter_binomial``, each message
    charged by the *actual* elements it carries (``scale`` words each),
    so irregular distributions price correctly."""
    return (yield from scatter_tree(ctx, values, root, _per_element(scale)))


def _halving_reduce(ctx: RankContext, op: BinOp, parts: list | Any,
                    core_rank: int, core_size: int,
                    to_true: Callable[[int], int], scale: float, n: int):
    """Recursive-halving reduce-scatter over a power-of-two core.

    ``parts`` is one list of segment-blocks per partition slot (or
    ``UNDEF`` when this rank's contribution is already degraded); slot
    ``j`` ends up fully reduced on the core rank with ``core_rank == j``.
    Distances descend so the surviving slot index equals the core rank
    (MSB-first bit selection); combining is slot-aligned, which is only
    order-safe for commutative operators — callers gate on
    ``op.commutative``.
    """
    m = ctx.params.m
    lo, hi = 0, core_size
    d = core_size // 2
    while d >= 1:
        partner = core_rank ^ d
        mid = (lo + hi) // 2
        if core_rank < partner:
            keep_lo, keep_hi = lo, mid
            send_lo, send_hi = mid, hi
        else:
            keep_lo, keep_hi = mid, hi
            send_lo, send_hi = lo, mid
        if parts is UNDEF:
            outgoing: Any = UNDEF
            words = 0.0
        else:
            outgoing = parts[send_lo:send_hi]
            words = scale * sum(len(s) for seg in outgoing for s in seg)
        # partner's half of the partition is lost
        incoming = yield from sendrecv_or(ctx, to_true(partner), outgoing,
                                          words, UNDEF)
        if parts is UNDEF or incoming is UNDEF:
            parts = UNDEF
        else:
            elems = sum(len(s) for seg in incoming for s in seg)
            yield from ctx.compute(op.op_count * m * elems / max(n, 1))
            for j, theirs in zip(range(keep_lo, keep_hi), incoming):
                mine = parts[j]
                parts[j] = [
                    op(a, b) if core_rank < partner else op(b, a)
                    for a, b in zip(mine, theirs)
                ]
        lo, hi = keep_lo, keep_hi
        d //= 2
    return parts if parts is UNDEF else parts[lo]


def reduce_scatter_machine(ctx: RankContext, block: Any, op: BinOp,
                           counts: Sequence[int] | None = None):
    """Reduce all blocks with the elementwise ``op``; rank ``i`` keeps
    segment ``i`` of the (possibly irregular) partition.

    Commutative operators: recursive halving (with rank folding on
    non-power-of-two machines).  Merely associative operators: binomial
    reduce in true rank order, then a binomial scatterv.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    n = None if block is UNDEF else len(block)
    scale = m * op.width / max(n if n else 1, 1)

    if p == 1:
        if block is UNDEF:
            return UNDEF
        return split_by_counts(block, resolve_counts(counts, n, 1))[0]

    if not op.commutative:
        value = yield from reduce_binomial(ctx, block, op)
        if rank == 0 and value is not UNDEF:
            value = split_by_counts(value, resolve_counts(counts, len(value), p))
        segment = yield from scatterv_binomial(ctx, value, scale)
        return segment

    # --- commutative: recursive halving over the segment partition -----
    if counts is None and n is not None:
        counts = balanced_counts(n, p)
    elif n is not None:
        counts = resolve_counts(counts, n, p)
    segs = UNDEF if block is UNDEF else split_by_counts(block, counts)

    k = p.bit_length() - 1
    core = 1 << k  # largest power of two <= p
    if core == p:
        parts = segs if segs is UNDEF else [[s] for s in segs]
        out = yield from _halving_reduce(ctx, op, parts, rank, p,
                                         lambda c: c, scale, n or 1)
        return out if out is UNDEF else out[0]

    # --- rank folding: pair the r excess ranks into a power-of-two core
    r = p - core
    if rank < 2 * r and rank % 2 == 1:
        # odd partner: contribute the whole block, receive our segment back
        # (a dead even partner: its whole partition degrades)
        yield from send_or_lose(ctx, rank - 1, segs,
                                0.0 if segs is UNDEF else scale * n)
        segment = yield from recv_or(ctx, rank - 1, UNDEF)
        return segment

    if rank < 2 * r:
        theirs = yield from recv_or(ctx, rank + 1, UNDEF)
        if segs is UNDEF or theirs is UNDEF:
            segs = UNDEF
        else:
            yield from ctx.compute(op.op_count * m)
            segs = [op(a, b) for a, b in zip(segs, theirs)]  # rank order: even first
        core_rank = rank // 2
    else:
        core_rank = rank - r

    def to_true(c: int) -> int:
        return 2 * c if c < r else c + r

    # merged partition: slot j < r covers segments {2j, 2j+1}, slot
    # j >= r covers segment {j + r} — so the surviving slot holds
    # exactly the true segments of this pair (or singleton)
    if segs is UNDEF:
        parts: Any = UNDEF
    else:
        parts = [[segs[2 * j], segs[2 * j + 1]] if j < r else [segs[j + r]]
                 for j in range(core)]
    mine = yield from _halving_reduce(ctx, op, parts, core_rank, core,
                                      to_true, scale, n or 1)

    if core_rank < r:
        # unfold: ship the odd partner's segment back
        theirs = UNDEF if mine is UNDEF else mine[1]
        yield from send_or_lose(ctx, rank + 1, theirs,
                                0.0 if theirs is UNDEF else scale * len(theirs))
        return mine if mine is UNDEF else mine[0]
    return mine if mine is UNDEF else mine[0]


def allgatherv_machine(ctx: RankContext, segment: Any,
                       counts: Sequence[int] | None = None, width: int = 1):
    """Concatenate the per-rank segments; every rank returns the full block.

    ``allgather``'s exchange (doubling on power-of-two machines, the ring
    otherwise) charged by the elements carried.  Any undefined or lost
    segment leaves a hole of unknown extent, so the block degrades to ``UNDEF``.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    if counts is not None:
        n_hint = sum(counts)
    elif segment is not UNDEF:
        n_hint = len(segment) * p  # exact when the partition is balanced
    else:
        n_hint = p
    scale = m * width / max(n_hint, 1)

    if p == 1:
        return segment

    gathered = yield from allgather_blocks(ctx, segment, _per_element(scale))
    if any(b is UNDEF for b in gathered):
        return UNDEF
    return concat_blocks(gathered)
