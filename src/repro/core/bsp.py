"""BSP cost model — the paper's second cited cost framework.

The paper lists BSP libraries (McColl, its ref [11]) among the systems
built on collective operations.  BSP prices a *superstep* as

    T = w + h*g + l

where ``w`` is the maximum local work, ``h`` the maximum words any
processor sends or receives (an h-relation), ``g`` the gap (per-word
cost) and ``l`` the barrier latency.  Under the binomial/butterfly
superstep structure the stages of this library use — ``log p``
supersteps of ``h = m * width`` plus the stage's local operations — a
superstep is one phase of the butterfly model with the barrier as the
start-up and the gap as the per-word time:

    l = ts,    g = tw.

So the BSP cost of a stage *is* its :func:`~repro.core.cost.stage_cost`
on :meth:`BSPParams.as_machine`, and the two models agree on which
rules improve by construction.  (They part only where BSP would price
an algorithm the machine does not run: a textbook BSP ``reduce_scatter``
/ ``allgatherv`` is recursive halving/doubling for every ``p``, while
the machine folds excess ranks or falls back to a segment ring when
``p`` is not a power of two — and this module prices what runs.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.cost import MachineParams, program_cost, stage_cost
from repro.core.stages import Program, Stage

__all__ = ["BSPParams", "bsp_stage_cost", "bsp_program_cost"]


@dataclass(frozen=True)
class BSPParams:
    """BSP machine: ``p`` processors, gap ``g``, barrier latency ``l``.

    ``m`` is the block length, as in :class:`~repro.core.cost.MachineParams`.
    """

    p: int
    g: float
    l: float  # noqa: E741 - standard BSP symbol
    m: int = 1

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one processor")
        if self.g < 0 or self.l < 0 or self.m < 0:
            raise ValueError("g, l and m cannot be negative")

    @property
    def log_p(self) -> float:
        return math.log2(self.p) if self.p > 1 else 0.0

    def as_machine(self) -> MachineParams:
        """The butterfly-model machine these parameters describe."""
        return MachineParams(p=self.p, ts=self.l, tw=self.g, m=self.m)


def bsp_stage_cost(stage: Stage, params: BSPParams) -> float:
    """BSP time of one stage (binomial/butterfly superstep structure)."""
    return stage_cost(stage, params.as_machine())


def bsp_program_cost(program: Program | Iterable[Stage], params: BSPParams) -> float:
    """Total BSP time (supersteps are additive by definition)."""
    return program_cost(program, params.as_machine())
