"""Gather / scatter / allgather — one tree, one ring, one doubling.

The paper's rules only involve bcast/scan/reduce, but its introduction
lists scatter and gather among the collective operations of interest, and
the MPI-style front end (:mod:`repro.mpi`) exposes them.

Each movement loop is written once and takes *what a message is charged*
as a function of the blocks it carries (``charge(blocks) -> words``).
:func:`scatter_binomial`, :func:`allgather_ring` and
:func:`allgather_doubling` call them at the uniform price
(:func:`per_block`); ``scatterv_binomial`` / ``allgatherv_machine``
(:mod:`~repro.machine.collectives.vocabulary`) charge the elements
actually carried — irregular ``counts`` are the same schedule with other
segment lengths (Jocksch et al., arXiv:2006.13112).

Under fault injection the loops degrade the house way
(:mod:`repro.machine.collectives.reduce`): survivors keep the unchanged
schedule and a lost block is an ``UNDEF`` hole, never a wrong value.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.faults import PeerDeadError
from repro.machine.primitives import RankContext, recv_or, send_or_lose, sendrecv_or
from repro.semantics.functional import UNDEF

__all__ = ["gather_binomial", "scatter_binomial", "allgather_ring",
           "allgather_doubling", "allgather_machine"]


def per_block(ctx: RankContext, width: int) -> Callable[[Any], float]:
    """The uniform price: ``m * width`` words a block, whatever it holds."""
    m = ctx.params.m
    return lambda carried: len(carried) * m * width


def gather_binomial(ctx: RankContext, value: Any, width: int = 1, root: int = 0):
    """Gather every rank's block to ``root`` (list ordered by rank).

    The root returns ``[x_0, ..., x_{p-1}]``; other ranks return ``_``.
    Mirror image of the binomial broadcast over rotated ranks: in phase
    ``d`` (ascending), relative ranks at distance ``2^d`` ship their
    accumulated segments down.  Segments are keyed by *true* rank, so any
    root yields the same rank-ordered list at zero extra cost.
    """
    p, rank = ctx.size, ctx.rank
    if not (0 <= root < p):
        raise ValueError(f"invalid gather root {root} for {p} ranks")
    m = ctx.params.m
    rel = (rank - root) % p
    segment: dict[int, Any] = {rank: value}
    d = 1
    while d < p:
        if rel % (2 * d) == d:
            dst = (rel - d + root) % p
            yield from ctx.send(dst, segment, len(segment) * m * width)
            segment = {}
        elif rel % (2 * d) == 0 and rel + d < p:
            received = yield from ctx.recv((rel + d + root) % p)
            segment.update(received)
        d *= 2
    if rank == root:
        return [segment[i] for i in range(p)]
    return UNDEF


def scatter_tree(ctx: RankContext, values: Any, root: int, charge: Callable):
    """Deal the root's list of ``p`` blocks out: rank ``i`` returns
    ``values[i]`` (only the root's ``values`` is read).

    Halving binomial tree over rotated ranks, each message carrying the
    target subtree's blocks keyed by true rank — so any root works at
    zero extra cost.  An undefined root list, or a dead parent, leaves the
    subtree below it ``UNDEF``; the holes still travel down the schedule.
    """
    p, rank = ctx.size, ctx.rank
    if not (0 <= root < p):
        raise ValueError(f"invalid scatter root {root} for {p} ranks")
    rel = (rank - root) % p
    segment: dict[int, Any] | None = None
    if rank == root:
        if values is UNDEF:
            values = [UNDEF] * p
        if values is None or len(values) != p:
            raise ValueError("scatter root needs exactly one block per rank")
        segment = dict(enumerate(values))
    d = 1  # highest power of two below p
    while d * 2 < p:
        d *= 2
    while d >= 1:
        if segment is not None and rel % (2 * d) == 0 and rel + d < p:
            to_send = {i: v for i, v in segment.items()
                       if (i - root) % p >= rel + d}
            segment = {i: v for i, v in segment.items() if i not in to_send}
            yield from send_or_lose(ctx, (rel + d + root) % p, to_send,
                                    charge(to_send.values()))
        elif segment is None and rel % (2 * d) == d:
            segment = yield from recv_or(
                ctx, (rel - d + root) % p,
                {(r + root) % p: UNDEF for r in range(rel, min(rel + d, p))})
        d //= 2
    return segment[rank]


def ring_exchange(ctx: RankContext, value: Any, charge: Callable):
    """The rank-ordered list of every rank's block after ``p - 1`` ring
    steps, each shipping the block received last to the right neighbour
    (even ranks send first).  Bandwidth optimal — every link carries each
    block once — but start-up heavy.  A block the left neighbour died
    before forwarding is an ``UNDEF`` hole."""
    p, rank = ctx.size, ctx.rank
    blocks = [UNDEF] * p
    blocks[rank] = value
    right, left = (rank + 1) % p, (rank - 1) % p
    idx = rank
    for step in range(p - 1):
        carry, words = (idx, blocks[idx]), charge((blocks[idx],))
        if rank % 2 == 0:
            yield from send_or_lose(ctx, right, carry, words)
        try:
            idx, blk = yield from ctx.recv(left)
            blocks[idx] = blk
        except PeerDeadError:
            idx = (left - step) % p  # what the neighbour would have carried
        if rank % 2:
            yield from send_or_lose(ctx, right, carry, words)
    return blocks


def doubling_exchange(ctx: RankContext, value: Any, charge: Callable):
    """The same list by recursive doubling (power-of-two machines): phase
    ``d`` exchanges the ``d`` blocks gathered so far with the XOR partner,
    so volumes double — ``log p`` start-ups for the ring's bandwidth.  A
    dead partner's half never arrives."""
    p, rank = ctx.size, ctx.rank
    if p & (p - 1):
        raise ValueError("recursive-doubling allgather needs a power-of-two machine")
    blocks: dict[int, Any] = {rank: value}
    d = 1
    while d < p:
        # snapshot: the live dict is mutated below, and in-process
        # payloads travel by reference — the partner must see the
        # pre-exchange state on either engine
        received = yield from sendrecv_or(ctx, rank ^ d, dict(blocks),
                                          charge(blocks.values()), {})
        blocks.update(received)
        d *= 2
    return [blocks.get(i, UNDEF) for i in range(p)]


def allgather_blocks(ctx: RankContext, value: Any, charge: Callable):
    """Recursive doubling on power-of-two machines, the ring otherwise —
    the one place that choice is made: the stage, both ``Comm`` facades
    and ``allgatherv`` all take it here."""
    exchange = ring_exchange if ctx.size & (ctx.size - 1) else doubling_exchange
    return (yield from exchange(ctx, value, charge))


def scatter_binomial(ctx: RankContext, values: Any, width: int = 1, root: int = 0):
    """Scatter the root's list: rank ``i`` ends up with ``values[i]``; a
    subtree's data is ``subtree_size * m * width`` words."""
    return (yield from scatter_tree(ctx, values, root, per_block(ctx, width)))


def allgather_ring(ctx: RankContext, value: Any, width: int = 1):
    """Allgather via the ring: ``(p - 1) * (ts + m * width * tw)``."""
    return (yield from ring_exchange(ctx, value, per_block(ctx, width)))


def allgather_doubling(ctx: RankContext, value: Any, width: int = 1):
    """Allgather by recursive doubling:
    ``log p * ts + (p - 1) * m * width * tw``."""
    return (yield from doubling_exchange(ctx, value, per_block(ctx, width)))


def allgather_machine(ctx: RankContext, value: Any, width: int = 1):
    """Allgather by the algorithm the machine size selects."""
    return (yield from allgather_blocks(ctx, value, per_block(ctx, width)))
