"""Scan: butterfly implementation with two combines per phase (paper eq. 17).

``scan_butterfly`` keeps per-rank state ``(prefix, total)`` and exchanges
the running ``total`` with the XOR partner at distances 1, 2, 4, ...; the
higher partner folds the received total into its prefix.  Two operator
applications per element per phase give exactly
``T_scan = log p * (ts + m*(tw + 2))``.  Ranks whose partner falls outside
the machine skip the phase (their lower neighbours always hold complete
block totals, so prefixes stay correct for any ``p``; the property tests
exercise this with non-commutative operators).

``scan_hillis_steele`` is the textbook shifted-doubling alternative with a
single combine per phase, and ``scan_blelloch`` the work-efficient
up/down-sweep tree — both kept as ablation substrates.

Self-stabilization under fault injection (``scan_butterfly`` only): a
crashed partner's running total degrades to ``UNDEF`` and poisons every
combine that depends on it, so surviving ranks report either the true
prefix or an ``UNDEF`` hole — never a silently wrong value — and the
fixed butterfly schedule keeps all survivors in lockstep (no re-pairing,
no deadlock).  The happy path is untouched.
"""

from __future__ import annotations

from typing import Any

from repro.core.operators import BinOp
from repro.machine.primitives import RankContext, sendrecv_or
from repro.semantics.functional import UNDEF

__all__ = ["scan_butterfly", "scan_hillis_steele", "scan_blelloch"]


def scan_butterfly(ctx: RankContext, value: Any, op: BinOp, width: int | None = None):
    """Inclusive prefix (MPI_Scan) via the butterfly exchange."""
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    w = (op.width if width is None else width) * m
    prefix = value
    total = value
    d = 1
    while d < p:
        partner = rank ^ d
        if partner < p:
            # partner's block range is lost
            other_total = yield from sendrecv_or(ctx, partner, total, w, UNDEF)
            if partner < rank:
                if other_total is UNDEF or prefix is UNDEF or total is UNDEF:
                    # poison only what depends on a lost value: a defined
                    # other_total may still complete a defined prefix
                    if other_total is UNDEF or prefix is UNDEF:
                        prefix = UNDEF
                    else:
                        yield from ctx.compute(op.op_count * m)
                        prefix = op(other_total, prefix)
                    total = UNDEF
                else:
                    # fold the lower block in front of our prefix: 2 combines
                    yield from ctx.compute(2 * op.op_count * m)
                    prefix = op(other_total, prefix)
                    total = op(other_total, total)
            else:
                if total is UNDEF or other_total is UNDEF:
                    total = UNDEF
                else:
                    yield from ctx.compute(op.op_count * m)
                    total = op(total, other_total)
        d *= 2
    return prefix


def scan_hillis_steele(ctx: RankContext, value: Any, op: BinOp, width: int | None = None):
    """Inclusive prefix via shifted recursive doubling (one combine/phase).

    Phase ``d``: send the accumulator to ``rank + 2^d``, receive from
    ``rank - 2^d``, and prepend the received partial sum.  Works for any
    ``p``; fewer computations but the sends are one-directional, so the
    paper's bidirectional-exchange estimate does not apply directly.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    w = (op.width if width is None else width) * m
    acc = value
    d = 1
    while d < p:
        # Interleave to avoid send/send deadlock: even "wave" sends first.
        dst = rank + d
        src = rank - d
        if (rank // d) % 2 == 0:
            if dst < p:
                yield from ctx.send(dst, acc, w)
            if src >= 0:
                received = yield from ctx.recv(src)
                yield from ctx.compute(op.op_count * m)
                acc = op(received, acc)
        else:
            if src >= 0:
                received = yield from ctx.recv(src)
            if dst < p:
                yield from ctx.send(dst, acc, w)
            if src >= 0:
                yield from ctx.compute(op.op_count * m)
                acc = op(received, acc)
        d *= 2
    return acc


def scan_blelloch(ctx: RankContext, value: Any, op: BinOp, width: int | None = None):
    """Work-efficient tree scan (Blelloch up-sweep / down-sweep).

    2·log p phases but only ~2p operator applications in total (vs. the
    butterfly's p·log p) — the classic work-vs-depth trade-off, exposed
    here as an ablation substrate.  The down-sweep propagates *exclusive*
    prefixes; a final local combine makes the result inclusive.  Works
    for any ``p`` and needs no identity element (the empty prefix is the
    sentinel ``_EMPTY``).
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    w = (op.width if width is None else width) * m
    _EMPTY = "__scan_blelloch_empty__"

    # --- up-sweep: binomial-tree fold; rank r's children are r + 2^i for
    # i < j where 2^j is r's lowest set bit (r = 0 owns the whole tree).
    total = value
    stack: list[Any] = []  # total of [rank, rank + 2^i) before each merge
    d = 1
    while d < p:
        if rank % (2 * d) == 0:
            src = rank + d
            if src < p:
                other = yield from ctx.recv(src)
                yield from ctx.compute(op.op_count * m)
                stack.append(total)
                total = op(total, other)
        else:  # rank % (2 * d) == d: hand the subtree total to the parent
            yield from ctx.send(rank - d, total, w)
            break
        d *= 2
    top = d  # first distance NOT merged at this rank

    # --- down-sweep: exclusive prefixes flow back down the same tree ----
    if rank == 0:
        prefix: Any = _EMPTY
    else:
        prefix = yield from ctx.recv(rank - top)
    d = top // 2
    while d >= 1:
        child = rank + d
        if child < p:
            left_total = stack.pop()
            if prefix is _EMPTY or prefix == _EMPTY:
                child_prefix = left_total
            else:
                yield from ctx.compute(op.op_count * m)
                child_prefix = op(prefix, left_total)
            yield from ctx.send(child, child_prefix, w)
        d //= 2

    if prefix is _EMPTY or prefix == _EMPTY:
        return value
    yield from ctx.compute(op.op_count * m)
    return op(prefix, value)
