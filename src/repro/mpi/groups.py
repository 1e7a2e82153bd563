"""Sub-communicators: ``comm.split`` over the simulated machine.

MPI programs structure collectives over *groups* (``MPI_Comm_split``);
the cluster-of-SMPs algorithms are the classic use (a per-node
communicator plus a leaders' communicator).  This module adds groups to
both front ends:

* :class:`~repro.machine.primitives.GroupContext` — the rank-translating
  adapter every collective algorithm runs unchanged inside (it lives
  with ``RankContext``: the two-level collectives of
  :mod:`repro.machine.hierarchical` build their groups from it directly);
* :func:`comm_split` — the collective split (an allgather of colors,
  like real implementations), returning a group communicator.

The test suite re-derives hierarchical allreduce in six lines from two
splits and checks it against :mod:`repro.machine.hierarchical`.
"""

from __future__ import annotations

from typing import Any

from repro.machine.collectives import allgather_ring
from repro.machine.primitives import GroupContext
from repro.mpi.comm import Comm

__all__ = ["GroupContext", "comm_split", "split_context"]


def split_context(ctx, color: Any, key: int | None = None):
    """Collective split at the context level (generator).

    Returns a :class:`GroupContext` for this rank's color group, or
    ``None`` when ``color is None`` (MPI_UNDEFINED).  Must be called by
    every rank.
    """
    me = (color, key if key is not None else ctx.rank, ctx.rank)
    entries = yield from allgather_ring(ctx, me)
    if color is None:
        return None
    members_sorted = sorted((k, r) for c, k, r in entries if c == color)
    members = [r for _k, r in members_sorted]
    if members != sorted(members):
        raise NotImplementedError(
            "key orderings that permute global rank order are not supported"
        )
    return GroupContext(ctx, members)


def comm_split(comm: Comm, color: Any, key: int | None = None):
    """Collective split: ranks with equal ``color`` form a new communicator.

    Mirrors ``MPI_Comm_split`` (a ``color is None`` rank gets no
    communicator back, like MPI_UNDEFINED).  ``key`` orders ranks within
    the new group (default: global rank order).  Must be called by every
    rank of ``comm``.  Generator — use with ``yield from``.
    """
    return (yield from Comm.split(comm, color, key))
