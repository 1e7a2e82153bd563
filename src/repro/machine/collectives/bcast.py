"""Broadcast: binomial doubling tree (paper eq. 15).

``log p`` phases; in phase ``d`` every processor that already holds the
block forwards it to its partner at distance ``2^d``.  Per-phase cost is
one message of ``m*width`` words, so ``T_bcast = log p * (ts + m*tw)`` for
scalar elements — exactly the paper's estimate.

Self-stabilization under fault injection: a crashed forwarder poisons its
subtree only — ranks whose parent died receive ``PeerDeadError`` from the
engine, adopt ``UNDEF`` as their block and keep forwarding it down the
unchanged schedule, so every surviving rank terminates and the hole stays
confined to the dead subtree.  The happy path is untouched.
"""

from __future__ import annotations

from typing import Any

from repro.machine.primitives import RankContext, recv_or, send_or_lose
from repro.semantics.functional import UNDEF

__all__ = ["bcast_binomial"]


def bcast_binomial(ctx: RankContext, value: Any, root: int = 0, width: int = 1):
    """Broadcast ``value`` from ``root``; returns the block on every rank.

    ``width`` is the per-element word count (tuple states cost more wire
    words than scalars).
    """
    p = ctx.size
    rel = (ctx.rank - root) % p
    words = ctx.params.m * width
    d = 1
    while d < p:
        if rel < d:
            dst = rel + d
            if dst < p:
                # the subtree head died; its subtree degrades
                yield from send_or_lose(ctx, (dst + root) % p, value, words)
        elif rel < 2 * d:
            # block lost; forward the hole, don't stall
            value = yield from recv_or(ctx, (rel - d + root) % p, UNDEF)
        d *= 2
    return value
