"""Simulator primitives: the actions an SPMD rank coroutine can take.

Rank programs are Python generators that *yield* actions and are resumed
with the action's result.  Composition works with ``yield from``, so
collective algorithms are ordinary generator functions returning values::

    def my_rank_program(ctx):
        total = yield from allreduce_butterfly(ctx, x, op, m)
        yield from ctx.compute(5 * m)
        return total

Timing model (paper §4.1): a matched message of ``w`` machine words costs
``ts + w*tw``, bidirectional exchanges cost the same as one message, one
elementary computation costs one unit.

Fault semantics (``repro.faults``): when an engine runs under a
:class:`~repro.faults.plan.FaultPlan`, the rendezvous primitives gain
timeout-and-retry behaviour — a dropped message is retried with
exponential backoff and charged as extra model time; once the retry
budget is exhausted the pair raises a typed
:class:`~repro.faults.errors.FaultTimeoutError` naming the dead link
instead of hanging.  A primitive blocked on a crashed partner raises
:class:`~repro.faults.errors.PeerDeadError`, which the fault-tolerant
collectives catch to degrade the affected blocks to ``UNDEF``.  Without a
plan none of this machinery runs and timing is bit-identical to the
paper's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.faults.errors import PeerDeadError

__all__ = [
    "Send",
    "Recv",
    "SendRecv",
    "Compute",
    "Action",
    "RankContext",
    "GroupContext",
    "comm_partner",
    "pending_info",
    "send_or_lose",
    "recv_or",
    "sendrecv_or",
]


@dataclass(frozen=True)
class Send:
    """Synchronous send of ``words`` machine words to ``dst``."""

    dst: int
    payload: Any
    words: float


@dataclass(frozen=True)
class Recv:
    """Blocking receive from ``src``; resumes with the payload."""

    src: int


@dataclass(frozen=True)
class SendRecv:
    """Simultaneous bidirectional exchange with ``partner``.

    Both sides must issue a matching SendRecv; the pair completes in
    ``ts + max(words)*tw`` (full-duplex links, paper §4.1) and each side
    resumes with the other's payload.
    """

    partner: int
    payload: Any
    words: float


@dataclass(frozen=True)
class Compute:
    """Local computation costing ``ops`` time units."""

    ops: float


@dataclass(frozen=True)
class Probe:
    """Zero-cost observability marker: records (rank, tag, clock)."""

    tag: Any


Action = Send | Recv | SendRecv | Compute | Probe


def comm_partner(action: Any) -> int | None:
    """The peer rank a pending communication action is blocked on."""
    if isinstance(action, Send):
        return action.dst
    if isinstance(action, Recv):
        return action.src
    if isinstance(action, SendRecv):
        return action.partner
    return None


def pending_info(rank: int, action: Any) -> tuple[int, int, float | None] | None:
    """``(src, dst, words)`` of the transfer ``rank`` is blocked on.

    ``words`` is ``None`` for a plain ``Recv`` (the receiver does not know
    the size until matched).  Non-communication actions return ``None``.
    Used by the engines' unified per-rank forensic reports.
    """
    if isinstance(action, Send):
        return (rank, action.dst, action.words)
    if isinstance(action, Recv):
        return (action.src, rank, None)
    if isinstance(action, SendRecv):
        return (rank, action.partner, action.words)
    return None


class RankContext:
    """Per-rank handle passed to SPMD programs.

    The communication methods are generators — call them with
    ``yield from``.  ``rank``/``size`` identify the processor;
    ``params`` carries the machine model (for m, ts, tw lookups by the
    collective algorithms).
    """

    def __init__(self, rank: int, size: int, params) -> None:
        self.rank = rank
        self.size = size
        self.params = params

    def send(self, dst: int, payload: Any, words: float):
        if not (0 <= dst < self.size) or dst == self.rank:
            raise ValueError(f"rank {self.rank}: invalid send destination {dst}")
        yield Send(dst, payload, words)

    def recv(self, src: int):
        if not (0 <= src < self.size) or src == self.rank:
            raise ValueError(f"rank {self.rank}: invalid receive source {src}")
        result = yield Recv(src)
        return result

    def sendrecv(self, partner: int, payload: Any, words: float):
        if not (0 <= partner < self.size) or partner == self.rank:
            raise ValueError(f"rank {self.rank}: invalid exchange partner {partner}")
        result = yield SendRecv(partner, payload, words)
        return result

    def compute(self, ops: float):
        if ops < 0:
            raise ValueError("negative computation cost")
        if ops:
            yield Compute(ops)

    def probe(self, tag: Any):
        """Record this rank's current virtual clock under ``tag``."""
        yield Probe(tag)


# The lost-peer idiom of the self-stabilizing collectives, on any context.

def send_or_lose(ctx, dst: int, payload: Any, words: float):
    """Send; a dead receiver is its own loss, not the sender's."""
    try:
        yield from ctx.send(dst, payload, words)
    except PeerDeadError:
        pass


def recv_or(ctx, src: int, lost: Any):
    """Receive from ``src``, or ``lost`` when ``src`` is dead."""
    try:
        return (yield from ctx.recv(src))
    except PeerDeadError:
        return lost


def sendrecv_or(ctx, partner: int, payload: Any, words: float, lost: Any):
    """Exchange with ``partner``, or ``lost`` when ``partner`` is dead."""
    try:
        return (yield from ctx.sendrecv(partner, payload, words))
    except PeerDeadError:
        return lost


class GroupContext:
    """A view of a parent context restricted to ``members`` (global ranks)
    — how a collective runs on part of the machine.

    It satisfies the same duck-typed protocol as :class:`RankContext`, so
    every collective algorithm runs unchanged inside a group.  Local
    ranks are indices into the sorted member list; all primitive
    operations translate to the parent's global ranks, so the engine
    (and its link/contention model) is unchanged.
    """

    def __init__(self, parent, members: Sequence[int]) -> None:
        members = sorted(members)
        if parent.rank not in members:
            raise ValueError("this rank is not a member of the group")
        self._parent = parent
        self._members = members
        self.rank = members.index(parent.rank)
        self.size = len(members)
        self.params = parent.params

    def _global(self, local_rank: int) -> int:
        if not (0 <= local_rank < self.size):
            raise ValueError(f"invalid group rank {local_rank}")
        return self._members[local_rank]

    # primitive protocol (generators, like RankContext) -------------------

    def send(self, dst: int, payload: Any, words: float):
        yield from self._parent.send(self._global(dst), payload, words)

    def recv(self, src: int):
        value = yield from self._parent.recv(self._global(src))
        return value

    def sendrecv(self, partner: int, payload: Any, words: float):
        value = yield from self._parent.sendrecv(
            self._global(partner), payload, words)
        return value

    def compute(self, ops: float):
        yield from self._parent.compute(ops)

    def probe(self, tag: Any):
        yield from self._parent.probe(tag)

    def drive(self, gen):
        """Blocking execution delegate (threaded front end)."""
        return self._parent.drive(gen)
