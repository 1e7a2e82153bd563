"""Bandwidth rules: allreduce ⇄ reduce_scatter ; allgatherv.

For an *elementwise* operator ``⊕ew`` over equal-length blocks
(:func:`repro.core.operators.elementwise_op`), the allreduce of the
blocks factors through the segment partition::

    allreduce (⊕ew)  ≡  reduce_scatter (⊕ew) ; allgatherv

Both directions are sound for any contiguous rank-ordered partition
(including irregular ``counts``): ``reduce_scatter`` leaves rank ``i``
holding segment ``i`` of the fully reduced block, and ``allgatherv``
reassembles exactly those segments in rank order.

The directions trade start-ups against volume:

* butterfly allreduce — ``log p * (ts + m*(tw + 1))`` — sends the whole
  block every phase (latency-optimal);
* decomposed — ``2*log p*ts + 2*m*tw*(1 - 1/p) + m*(1 - 1/p)`` —
  bandwidth-optimal, each element crosses the network ~twice instead of
  ``log p`` times.

Neither "always" improves, so these are the first rules in the catalogue
whose profitability the planner decides *per machine*: the exact stage
costs (:func:`repro.core.cost.reduce_scatter_cost` /
:func:`~repro.core.cost.allgatherv_cost`, which carry the ``(1 - 1/p)``
volume factors Table 1's per-``log p`` formula shape cannot express)
make ``program_cost`` price both forms, and greedy/beam/exhaustive pick
the winner for the given ``(p, m, ts, tw)``.  The two rows therefore
state no Table-1 columns: they carry ``exact=``, the comparison of the
exact closed forms at unit width/op-count, which ``improves`` asks;
``before_formula`` / ``after_formula`` / ``improvement_margin`` raise
:class:`~repro.core.rules.base.NoTable1Form`.
"""

from __future__ import annotations

from repro.core.cost import MachineParams, decomposed_allreduce_cost, stage_cost
from repro.core.operators import EW_ADD
from repro.core.rules.base import ALLREDUCE, Rule
from repro.core.stages import AllGatherVStage, AllReduceStage, ReduceScatterStage

__all__ = ["DECOMPOSE_ALLREDUCE", "COMPOSE_ALLREDUCE", "BANDWIDTH_RULES"]


def _elementwise(window) -> bool:
    return window[0].op.kind == "ew"


def _elementwise_same_partition(window) -> bool:
    # Composing is sound for *any* counts — the segments form a
    # contiguous rank-ordered partition of the reduced block, so
    # reassembling them is exactly the allreduce — but only applied when
    # the allgatherv has no explicit counts or the two stages agree, so a
    # deliberately irregular pipeline is left alone.
    rs, ag = window
    return rs.op.kind == "ew" and (ag.counts is None or ag.counts == rs.counts)


def _decompose(rule, window, general):
    op = window[0].op
    return (ReduceScatterStage(op, origin=rule.name),
            AllGatherVStage(width=op.width, origin=rule.name))


def _compose(rule, window, general):
    return (AllReduceStage(window[0].op, origin=rule.name),)


def _decomposed_wins(params: MachineParams) -> bool:
    """Exact: decomposed vs butterfly at unit width/op-count."""
    before = stage_cost(AllReduceStage(EW_ADD), params)
    return decomposed_allreduce_cost(params, EW_ADD) < before


def _butterfly_wins(params: MachineParams) -> bool:
    """Exact: butterfly vs decomposed at unit width/op-count."""
    after = stage_cost(AllReduceStage(EW_ADD), params)
    return after < decomposed_allreduce_cost(params, EW_ADD)


#: never "always": butterfly wins the latency regime (small m)
DECOMPOSE_ALLREDUCE = Rule(
    "Decompose-Allreduce", (ALLREDUCE,), _decompose,
    "reduce_scatter (⊕ew) ; allgatherv",
    "⊕ elementwise over equal-length blocks",
    "m*tw + m > 2*log p*ts/(log p - 2 + 2/p)  (bandwidth regime)",
    when=_elementwise, units=(EW_ADD,), exact=_decomposed_wins)

#: never "always": the decomposition wins the bandwidth regime
COMPOSE_ALLREDUCE = Rule(
    "Compose-Allreduce", ((ReduceScatterStage,), (AllGatherVStage,)), _compose,
    "allreduce (⊕ew)",
    "⊕ elementwise; matching (or default) partitions",
    "m*tw + m < 2*log p*ts/(log p - 2 + 2/p)  (latency regime)",
    when=_elementwise_same_partition, units=(EW_ADD,), exact=_butterfly_wins)

#: the bandwidth-vocabulary catalogue; part of FULL_RULES.
BANDWIDTH_RULES: tuple[Rule, ...] = (DECOMPOSE_ALLREDUCE, COMPOSE_ALLREDUCE)
