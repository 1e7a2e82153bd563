"""Cluster-of-SMPs machine model and hierarchical collectives.

The paper notes (§2.2) that its program format also covers "multithreaded
computations in the symmetric multiprocessor nodes of clusters of SMPs"
(the SIMPLE methodology, its reference [3]).  This module supplies that
substrate: a two-level machine in which intra-node links are much faster
than inter-node links, plus hierarchical collectives that cross the slow
network only once per node.  They contain no communication loop of their
own: each is the flat algorithm (:mod:`repro.machine.collectives`) run
over *groups* — the node's ranks, and on leaders the leaders' ranks — so
values, clocks and fault degradation are the flat algorithms':

* :func:`bcast_hierarchical` — ``bcast_binomial`` among node leaders,
  then inside each node;
* :func:`reduce_hierarchical` — ``reduce_binomial`` to the leader, then
  among leaders;
* :func:`allreduce_hierarchical` — intra reduce, ``allreduce_butterfly``
  among leaders, intra broadcast.

Ranks are laid out node-major: node ``i`` owns ranks
``[i*cores, (i+1)*cores)``; rank ``i*cores`` is its leader.  The flat
butterfly algorithms still run on this machine (they just pay inter-node
cost for most phases); the ablation benchmark quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cost import MachineParams
from repro.core.operators import BinOp
from repro.machine.collectives.bcast import bcast_binomial
from repro.machine.collectives.reduce import allreduce_butterfly, reduce_binomial
from repro.machine.primitives import GroupContext, RankContext
from repro.semantics.functional import UNDEF

__all__ = [
    "TwoLevelParams",
    "bcast_hierarchical",
    "reduce_hierarchical",
    "allreduce_hierarchical",
]


@dataclass(frozen=True)
class TwoLevelParams(MachineParams):
    """A cluster of SMP nodes: fast intra-node, slow inter-node links.

    ``p`` must equal ``nodes * cores``.  ``ts``/``tw`` are the *inter-node*
    parameters (the dominant cost, as in the flat model); ``ts_intra`` and
    ``tw_intra`` describe the shared-memory links inside a node.
    """

    nodes: int = 1
    cores: int = 1
    ts_intra: float = 0.0
    tw_intra: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes * self.cores != self.p:
            raise ValueError("p must equal nodes * cores")
        if self.ts_intra < 0 or self.tw_intra < 0:
            raise ValueError("intra-node costs cannot be negative")

    def node_of(self, rank: int) -> int:
        return rank // self.cores

    def link(self, a: int, b: int) -> tuple[float, float]:
        if self.node_of(a) == self.node_of(b):
            return (self.ts_intra, self.tw_intra)
        return (self.ts, self.tw)

    def contention_domains(self, a: int, b: int) -> tuple:
        """Inter-node messages serialize through each node's NIC."""
        na, nb = self.node_of(a), self.node_of(b)
        if na == nb:
            return ()
        return (("nic", na), ("nic", nb))


def _groups(ctx: RankContext) -> tuple[GroupContext, GroupContext | None]:
    """This rank's node group and, on a node leader, the leaders' group —
    read off the layout, so forming them costs no message."""
    params = ctx.params
    if not isinstance(params, TwoLevelParams):
        raise TypeError("hierarchical collectives need TwoLevelParams")
    cores = params.cores
    leader = ctx.rank - ctx.rank % cores
    node = GroupContext(ctx, range(leader, leader + cores))
    if ctx.rank != leader:
        return node, None
    return node, GroupContext(ctx, range(0, ctx.size, cores))


def bcast_hierarchical(ctx: RankContext, value: Any, width: int = 1):
    """Two-phase broadcast: across node leaders, then inside each node."""
    node, leaders = _groups(ctx)
    if leaders is not None:
        value = yield from bcast_binomial(leaders, value, width=width)
    return (yield from bcast_binomial(node, value, width=width))


def reduce_hierarchical(ctx: RankContext, value: Any, op: BinOp,
                        width: int | None = None):
    """Intra-node reduce, then inter-node reduce to rank 0.

    Node-major layout keeps rank order, so non-commutative associative
    operators are safe.  Non-roots return the undefined block.
    """
    node, leaders = _groups(ctx)
    value = yield from reduce_binomial(node, value, op, width)
    if leaders is None:
        return UNDEF
    return (yield from reduce_binomial(leaders, value, op, width))


def allreduce_hierarchical(ctx: RankContext, value: Any, op: BinOp,
                           width: int | None = None):
    """Intra reduce → leader allreduce → intra broadcast."""
    node, leaders = _groups(ctx)
    value = yield from reduce_binomial(node, value, op, width)
    if leaders is not None:
        value = yield from allreduce_butterfly(leaders, value, op, width)
    return (yield from bcast_binomial(
        node, value, width=op.width if width is None else width))
