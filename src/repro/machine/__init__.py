"""Simulated parallel machine (the paper's experimental substrate).

The paper benchmarked on a Parsytec 64-processor network running MPICH
1.0.  We substitute a deterministic discrete-event simulator of the exact
machine model the paper's cost calculus assumes (§4.1): a virtual fully
connected network, bidirectional links with cost ``ts + m*tw`` per
message, unit-cost computation, and butterfly/binomial collective
implementations.  Simulated runs therefore reproduce the *shape* of the
paper's measurements (who wins, where crossovers fall), which is the
reproducible content of Figures 7 and 8.
"""

from repro.core.cost import (
    HIGH_LATENCY,
    LOW_LATENCY,
    MachineParams,
    PARSYTEC_LIKE,
)
from repro.machine.engine import DeadlockError, SimResult, SimStats, run_spmd
from repro.machine.hierarchical import (
    TwoLevelParams,
    allreduce_hierarchical,
    bcast_hierarchical,
    reduce_hierarchical,
)
from repro.machine.primitives import RankContext
from repro.machine.rendezvous import ENGINES
from repro.machine.run import simulate_program

__all__ = [
    "MachineParams",
    "TwoLevelParams",
    "PARSYTEC_LIKE",
    "LOW_LATENCY",
    "HIGH_LATENCY",
    "run_spmd",
    "RankContext",
    "SimResult",
    "SimStats",
    "DeadlockError",
    "ENGINES",
    "simulate_program",
    "bcast_hierarchical",
    "reduce_hierarchical",
    "allreduce_hierarchical",
]
