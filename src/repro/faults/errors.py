"""Typed fault errors raised by the execution engines under injection.

Every failure mode of the fault layer surfaces as one of these exception
types — never a hang, never a bare ``KeyError`` from corrupted protocol
state.  The chaos conformance mode (``python -m repro conformance
--chaos``) asserts exactly that: any simulated run either completes or
raises an instance of :class:`FaultError` (or the engines' pre-existing
``DeadlockError``), and the raising run is reproducible from its seeds.

Hierarchy::

    FaultError(RuntimeError)
    ├── FaultTimeoutError(FaultError, TimeoutError)   # dead link: retries exhausted
    ├── RankCrashedError(FaultError)                  # raised *inside* the dying rank
    └── PeerDeadError(FaultError)                     # partner crashed while we waited

:class:`PeerDeadError` is the one collectives are expected to catch — it
is the simulator's perfect failure detector, delivered at the blocked
communication primitive.  The fault-tolerant collectives in
:mod:`repro.machine.collectives` catch it and degrade the affected blocks
to ``UNDEF``; programs that do not catch it fail with a typed,
seed-replayable error instead of deadlocking.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "FaultTimeoutError",
    "RankCrashedError",
    "PeerDeadError",
]


class FaultError(RuntimeError):
    """Base class of every injected-fault failure."""


class FaultTimeoutError(FaultError, TimeoutError):
    """A message was dropped more times than the retry budget allows.

    Carries the dead link for forensics: ``src``/``dst`` are the ranks of
    the unmatched rendezvous, ``attempts`` how many deliveries were tried.
    A whole ``words`` count is an ``int`` on every engine (the process
    engine reads it back from a float cell).
    """

    def __init__(self, src: int, dst: int, words: float, attempts: int,
                 clock: float, detail: str = "") -> None:
        self.src = src
        self.dst = dst
        self.words = int(words) if words == int(words) else words
        self.attempts = attempts
        self.clock = clock
        self.detail = detail
        msg = (f"message {src}->{dst} ({words} words) timed out after "
               f"{attempts} attempts at t={clock:g} (dead link?)")
        if detail:
            msg += "\n" + detail
        super().__init__(msg)

    def __reduce__(self):
        return (type(self), (self.src, self.dst, self.words, self.attempts,
                             self.clock, self.detail))


class RankCrashedError(FaultError):
    """Raised inside a rank when its scheduled crash point is reached."""

    def __init__(self, rank: int, clock: float) -> None:
        self.rank = rank
        self.clock = clock
        super().__init__(f"rank {rank} crashed at t={clock:g}")

    def __reduce__(self):
        return (type(self), (self.rank, self.clock))


class PeerDeadError(FaultError):
    """The communication partner crashed; the pending operation cannot complete."""

    def __init__(self, rank: int, peer: int, death_clock: float,
                 pending: str = "") -> None:
        self.rank = rank
        self.peer = peer
        self.death_clock = death_clock
        self.pending = pending
        msg = (f"rank {rank}: peer {peer} crashed at t={death_clock:g} "
               f"with {pending or 'a communication'} pending")
        super().__init__(msg)

    def __reduce__(self):
        return (type(self), (self.rank, self.peer, self.death_clock,
                             self.pending))
