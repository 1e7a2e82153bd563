"""An mpi4py-flavoured communicator over the simulated machine.

Rank programs are written against :class:`Comm`, whose method names and
call shapes mirror ``mpi4py.MPI.Comm`` (lowercase, pickle-style object
methods): ``send``/``recv``/``sendrecv``, ``bcast``, ``scatter``,
``gather``, ``allgather``, ``reduce``, ``allreduce``, ``scan``,
``exscan``, ``barrier``.  Because the substrate is a cooperative
discrete-event simulator, communication methods are generators — call
them with ``yield from``::

    def program(comm: Comm, x):
        y = yield from comm.scan(x, op=ADD)
        total = yield from comm.reduce(y, op=ADD, root=0)
        if comm.rank == 0:
            ...
        return total

    result = spmd_run(program, inputs=list(range(8)), params=params)

Reductions accept :class:`repro.core.operators.BinOp` operators, so the
same operator algebra (associativity/commutativity/distributivity
declarations) flows from MPI-style programs into the optimizer.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams
from repro.core.operators import BinOp
from repro.faults import FaultPlan
from repro.machine.collectives import (
    allgather_machine,
    alltoall_pairwise,
    allreduce_butterfly,
    bcast_binomial,
    gather_binomial,
    reduce_binomial,
    scan_butterfly,
    scatter_binomial,
)
from repro.machine.engine import SimResult, run_spmd
from repro.machine.primitives import RankContext
from repro.semantics.functional import UNDEF

__all__ = ["Comm", "COMMUNICATION", "spmd_run"]

#: the :class:`Comm` methods that communicate — generators here, blocking
#: calls on :class:`repro.mpi.threaded.ThreadedComm`, which wraps exactly these
COMMUNICATION = ("send", "recv", "sendrecv", "bcast", "scatter", "gather",
                 "allgather", "alltoall", "reduce", "allreduce", "scan",
                 "exscan", "split", "barrier")


class Comm:
    """Communicator handle passed to SPMD rank programs."""

    def __init__(self, ctx: RankContext) -> None:
        self._ctx = ctx

    # -- introspection (mpi4py: Get_rank / Get_size) -------------------------

    @property
    def rank(self) -> int:
        return self._ctx.rank

    @property
    def size(self) -> int:
        return self._ctx.size

    def get_rank(self) -> int:
        return self._ctx.rank

    def get_size(self) -> int:
        return self._ctx.size

    # -- point to point -------------------------------------------------------

    def send(self, obj: Any, dest: int, words: float | None = None):
        """Blocking synchronous send (cost ``ts + words*tw``)."""
        w = self._ctx.params.m if words is None else words
        yield from self._ctx.send(dest, obj, w)

    def recv(self, source: int):
        """Blocking receive; returns the payload."""
        obj = yield from self._ctx.recv(source)
        return obj

    def sendrecv(self, obj: Any, dest: int, words: float | None = None):
        """Simultaneous exchange with ``dest``; returns its payload."""
        w = self._ctx.params.m if words is None else words
        other = yield from self._ctx.sendrecv(dest, obj, w)
        return other

    # -- collectives ----------------------------------------------------------

    def bcast(self, obj: Any, root: int = 0):
        """MPI_Bcast: replicate the root's object to every rank."""
        value = yield from bcast_binomial(self._ctx, obj, root=root)
        return value

    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0):
        """MPI_Scatter: deal the root's list out, one element per rank."""
        value = yield from scatter_binomial(self._ctx, sendobj, root=root)
        return value

    def gather(self, sendobj: Any, root: int = 0):
        """MPI_Gather: rank-ordered list on the root; ``None`` elsewhere."""
        value = yield from gather_binomial(self._ctx, sendobj, root=root)
        return None if value is UNDEF else value

    def allgather(self, sendobj: Any):
        """MPI_Allgather: the full rank-ordered list on every rank."""
        value = yield from allgather_machine(self._ctx, sendobj)
        return value

    def alltoall(self, sendobjs: Sequence[Any]):
        """Personalized exchange: ``sendobjs[i]`` goes to rank ``i``."""
        value = yield from alltoall_pairwise(self._ctx, sendobjs)
        return value

    def reduce(self, sendobj: Any, op: BinOp, root: int = 0):
        """MPI_Reduce: result on the root, ``None`` elsewhere.

        Any root works: commutative operators rotate the binomial
        schedule (zero extra cost); merely associative ones fold in rank
        order at rank 0 and relay the result with one extra message.
        """
        value = yield from reduce_binomial(self._ctx, sendobj, op, root=root)
        return None if value is UNDEF else value

    def allreduce(self, sendobj: Any, op: BinOp):
        """MPI_Allreduce: the ⊕-combination of all blocks, everywhere."""
        value = yield from allreduce_butterfly(self._ctx, sendobj, op)
        return value

    def scan(self, sendobj: Any, op: BinOp):
        """MPI_Scan: inclusive prefix over ranks."""
        value = yield from scan_butterfly(self._ctx, sendobj, op)
        return value

    def exscan(self, sendobj: Any, op: BinOp):
        """MPI_Exscan: exclusive prefix (identity on rank 0)."""
        if not op.has_identity:
            raise ValueError(f"exscan needs an identity element for {op.name}")
        inclusive = yield from scan_butterfly(self._ctx, sendobj, op)
        # Shift down by one rank: ship the inclusive prefix to the right.
        m = self._ctx.params.m
        rank, size = self.rank, self.size
        result = op.identity
        if size > 1:
            if rank % 2 == 0:
                if rank + 1 < size:
                    yield from self._ctx.send(rank + 1, inclusive, op.width * m)
                if rank > 0:
                    result = yield from self._ctx.recv(rank - 1)
            else:
                result = yield from self._ctx.recv(rank - 1)
                if rank + 1 < size:
                    yield from self._ctx.send(rank + 1, inclusive, op.width * m)
        return result

    def split(self, color: Any, key: int | None = None):
        """``MPI_Comm_split``: a sub-communicator per color (or None).

        Collective — every rank must call it.  Use with ``yield from``.
        """
        from repro.mpi.groups import split_context

        group_ctx = yield from split_context(self._ctx, color, key)
        return None if group_ctx is None else type(self)(group_ctx)

    def barrier(self):
        """Synchronize all ranks (allreduce of a zero-word token)."""
        token = yield from allreduce_butterfly(
            self._ctx, 0, BinOp("barrier", lambda a, b: 0, commutative=True),
            width=0,
        )
        return token


def spmd_run(
    program: Callable[[Comm, Any], Any],
    inputs: Sequence[Any],
    params: MachineParams | None = None,
    faults: "FaultPlan | None" = None,
) -> SimResult:
    """Run an MPI-style rank program on every processor.

    ``program(comm, x)`` must be a generator function (communicate with
    ``yield from``); ``inputs[i]`` is rank i's initial block.  ``faults``
    (optional) injects a deterministic fault plan; see ``docs/FAULTS.md``.
    """
    if params is None:
        params = MachineParams(p=len(inputs), ts=0.0, tw=0.0, m=1)

    def rank_fn(ctx: RankContext, x: Any):
        result = yield from program(Comm(ctx), x)
        return result

    return run_spmd(rank_fn, inputs, params, faults=faults)
