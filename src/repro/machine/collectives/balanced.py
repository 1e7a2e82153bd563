"""Machine implementations of the balanced collectives (Figures 4 and 5).

These are the "special rules" substrate the paper's conclusions mention:
new collective operations (``reduce_balanced``, ``scan_balanced``) that a
machine must provide before the SR-Reduction / SS-Scan rules can be used.

* :func:`reduce_balanced_tree` — the unique all-leaves-equal-depth tree
  with complete right subtrees; right nodes ship ``(t, u)`` states to
  their left siblings, lone leftmost nodes apply the ``()``-case locally.
* :func:`scan_balanced_butterfly` — XOR butterfly at distances 1, 2, 4...;
  only the ``(t, u, v)`` components cross the wire (the ``s`` component is
  private), giving Table 1's ``ts + m*(3tw + 8)`` per phase.
* :func:`allreduce_balanced_machine` — full butterfly on power-of-two
  machines (every rank builds the same complete tree), tree + broadcast
  otherwise (incomplete right subtrees would break the non-associative
  operator's invariant).
"""

from __future__ import annotations

from typing import Any

from repro.core.derived_ops import SRTreeOp, SSButterflyOp
from repro.machine.collectives.bcast import bcast_binomial
from repro.machine.primitives import RankContext, recv_or, send_or_lose, sendrecv_or
from repro.semantics.functional import UNDEF

__all__ = [
    "reduce_balanced_tree",
    "allreduce_balanced_machine",
    "scan_balanced_butterfly",
]

#: distinct from UNDEF, which reduce_balanced_tree already uses to mean
#: "this node was merged away": a state whose value was lost to a crash.
#: Poisoned states flow through the unchanged schedule and surface as
#: UNDEF blocks at the end, never as wrong defined values.
_POISONED = object()


def _level_pairing(positions: list[int]) -> tuple[int | None, list[tuple[int, int]]]:
    """Right-aligned pairing of node positions: lone leftmost + pairs."""
    if len(positions) % 2 == 1:
        lone = positions[0]
        rest = positions[1:]
    else:
        lone = None
        rest = positions
    pairs = [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
    return lone, pairs


def reduce_balanced_tree(ctx: RankContext, state: Any, tree_op: SRTreeOp):
    """Balanced reduction of pair states to rank 0 (paper Figure 4).

    Every rank derives the (deterministic) tree structure locally and
    plays its role level by level.  Non-roots return the undefined block.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    words = tree_op.comm_width * m
    positions = list(range(p))
    while len(positions) > 1:
        lone, pairs = _level_pairing(positions)
        new_positions = [] if lone is None else [lone]
        if rank == lone:
            if state is _POISONED:
                pass  # degraded subtree state stays degraded
            else:
                # ()-case: one ⊕ per element (u ⊕ u)
                yield from ctx.compute(tree_op.op.op_count * m)
                state = tree_op.combine_empty(state)
        for left, right in pairs:
            new_positions.append(left)
            if rank == right:
                # our parent died; the subtree degrades at the root
                yield from send_or_lose(ctx, left, state, words)
                state = UNDEF
            elif rank == left:
                # right sibling's subtree is lost
                other = yield from recv_or(ctx, right, _POISONED)
                if state is _POISONED or other is _POISONED:
                    state = _POISONED
                else:
                    yield from ctx.compute(tree_op.op_count * m)
                    state = tree_op.combine(state, other)
        positions = new_positions
        if state is UNDEF:
            # This rank's node was merged away; it only observes the rest.
            return UNDEF
    if rank != 0:
        return UNDEF
    return UNDEF if state is _POISONED else tree_op.project(state)


def allreduce_balanced_machine(ctx: RankContext, state: Any, tree_op: SRTreeOp):
    """Balanced reduction delivered everywhere.

    Power-of-two machines run the symmetric butterfly (each rank combines
    the same complete tree, one exchange per phase); otherwise the value
    is computed on the tree and broadcast, because incomplete right
    subtrees would violate the operator's level invariant.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    words = tree_op.comm_width * m
    if p & (p - 1):  # not a power of two: tree + bcast of the projected value
        value = yield from reduce_balanced_tree(ctx, state, tree_op)
        value = yield from bcast_binomial(
            ctx, value if rank == 0 else None, root=0, width=tree_op.comm_width
        )
        return value
    d = 1
    while d < p:
        partner = rank ^ d
        # partner's half of the butterfly is lost
        other = yield from sendrecv_or(ctx, partner, state, words, _POISONED)
        if state is _POISONED or other is _POISONED:
            state = _POISONED
        else:
            yield from ctx.compute(tree_op.op_count * m)
            if rank < partner:
                state = tree_op.combine(state, other)
            else:
                state = tree_op.combine(other, state)
        d *= 2
    return UNDEF if state is _POISONED else tree_op.project(state)


def scan_balanced_butterfly(ctx: RankContext, state: Any, bfly_op: SSButterflyOp):
    """Balanced scan of quadruple states (paper Figure 5).

    Each phase exchanges only the shared ``(t, u, v)`` components with the
    XOR partner; the private ``s`` never moves.  The lower partner performs
    5 operator applications per element (ttu, uu, uuuu, vv), the higher one
    8 (those plus the s-update and uu⊕vv) — the higher side is the critical
    path, matching Table 1's ``8m``.
    """
    p, rank = ctx.size, ctx.rank
    m = ctx.params.m
    words = bfly_op.comm_width * m
    base = bfly_op.op.op_count
    d = 1
    while d < p:
        partner = rank ^ d
        if partner >= p:
            if state is not _POISONED:
                state = bfly_op.missing(state)
        else:
            payload = (_POISONED if state is _POISONED
                       else state[1:])  # share only (t, u, v)
            # partner's block range is lost
            received = yield from sendrecv_or(ctx, partner, payload, words,
                                              _POISONED)
            if state is _POISONED or received is _POISONED:
                state = _POISONED
            else:
                t2, u2, v2 = received
                other = (UNDEF, t2, u2, v2)
                if rank < partner:
                    yield from ctx.compute(5 * base * m)
                    state, _ = bfly_op.combine(state, other)
                else:
                    yield from ctx.compute(8 * base * m)
                    _, state = bfly_op.combine(other, state)
        d *= 2
    return UNDEF if state is _POISONED else bfly_op.project(state)
