"""SPMD collective algorithms over the simulated machine.

Every collective is a generator function to be driven with ``yield from``
inside a rank program.  The implementations follow the butterfly /
binomial-tree schemes the paper's cost model assumes (§4.1), and they
carry real payloads so one simulated run validates semantics and timing
simultaneously.
"""

from repro.machine.collectives.bcast import bcast_binomial
from repro.machine.collectives.reduce import allreduce_butterfly, reduce_binomial
from repro.machine.collectives.scan import scan_blelloch, scan_butterfly, scan_hillis_steele
from repro.machine.collectives.balanced import (
    allreduce_balanced_machine,
    reduce_balanced_tree,
    scan_balanced_butterfly,
)
from repro.machine.collectives.alltoall import alltoall_pairwise
from repro.machine.collectives.comcast import comcast_bcast_repeat, comcast_doubling
from repro.machine.collectives.gather import (
    allgather_doubling,
    allgather_machine,
    allgather_ring,
    gather_binomial,
    scatter_binomial,
)
from repro.machine.collectives.vocabulary import (
    allgatherv_machine,
    reduce_scatter_machine,
    scatterv_binomial,
)

__all__ = [
    "bcast_binomial",
    "reduce_binomial",
    "allreduce_butterfly",
    "scan_butterfly",
    "scan_blelloch",
    "scan_hillis_steele",
    "reduce_balanced_tree",
    "allreduce_balanced_machine",
    "scan_balanced_butterfly",
    "comcast_bcast_repeat",
    "comcast_doubling",
    "gather_binomial",
    "scatter_binomial",
    "allgather_ring",
    "allgather_doubling",
    "allgather_machine",
    "alltoall_pairwise",
    "reduce_scatter_machine",
    "allgatherv_machine",
    "scatterv_binomial",
]
