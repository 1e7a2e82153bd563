"""One rendezvous: the match / clock / fault-verdict core of the machine.

The paper's cost calculus (§4.1) stands on one timing rule — a matched
message completes at ``max(clocks) + ts + words*tw`` — and this module
is the one place that states it.  :class:`Rendezvous` is a *lock-free
match kernel*: it owns the crash / dead-peer check at a communication
action, the pairing of ``Send``↔``Recv`` and ``SendRecv``↔``SendRecv``,
:meth:`~Rendezvous.comm_complete` with contention domains, match-time
fault resolution and the timeout hand-off, the message / word / event
tallies, death bookkeeping, deadlock detection and the final
:class:`SimResult`.  Callers hold whatever lock their substrate needs.

The kernel is written over a handful of **storage primitives** — the
idiom of :class:`repro.faults.FaultState`'s stores: Python containers by
default, opened on arena cells by the process engine:

=========================  ==========================================
primitive                  what it stores
=========================  ==========================================
``clock[rank]``            a rank's virtual clock
``pending[rank]``          the action a rank is blocked on, or None
``alive[rank]``            False once the rank returned or died
``domain_free[key]``       when a contention domain is next idle
``_count`` / ``_deliver``  messages and words; one delivered message
``_tally_compute``         unit-cost operations
``_tally_probe``           probe marks (the timeline)
``stats``                  the :class:`SimStats` of the run
``_wake``                  hand a blocked rank its value or its
                           failure, and resume it
=========================  ==========================================

The first four are indexable stores (``_open_store``) that the kernel
reads and writes in place; only the tallies and the wake-up are methods.
The defaults are Python lists; the cooperative engine
(:mod:`repro.machine.engine`) and the threaded one
(:mod:`repro.mpi.threaded`) share them and add only ``_wake`` — resume
a generator in place, or set a ``threading.Event``.  The process engine
(:mod:`repro.parallel.backend`) opens the same four names onto
shared-memory cells.  Who *initiates* a match, and in which order, is
the driver's: the blocking engines match in whichever rank posts second
(:meth:`~Rendezvous.post`), the cooperative engine sweeps ranks in
order and calls :meth:`~Rendezvous.try_match` itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.cost import MachineParams
from repro.faults import (
    FaultPlan,
    FaultState,
    FaultSummary,
    FaultTimeoutError,
    PeerDeadError,
    RankCrashedError,
)
from repro.machine.primitives import (
    Compute,
    Probe,
    Recv,
    Send,
    SendRecv,
    comm_partner,
    pending_info,
)

__all__ = ["ENGINES", "SimStats", "SimResult", "DeadlockError",
           "describe_ranks", "live_fault_state", "raise_root_cause",
           "Rendezvous"]

#: the three execution engines, one kernel under each
ENGINES = ("cooperative", "threaded", "process")

#: which pending action consumes which: a send meets a receive, an
#: exchange meets an exchange
_ANSWERS = {Send: Recv, Recv: Send, SendRecv: SendRecv}


class DeadlockError(RuntimeError):
    """No rank can make progress but some have not terminated."""


def describe_ranks(entries: Iterable[tuple[int, Any, float, bool]]) -> str:
    """Per-rank forensic report shared by every engine.

    ``entries`` yields ``(rank, pending_action, clock, done)`` tuples.
    Blocked ranks are shown with their pending transfer ``(src, dst,
    words)``; finished ranks are listed so a partial deadlock is easy to
    localize.
    """
    lines = []
    for rank, action, clock, done in entries:
        if done:
            lines.append(f"rank {rank}: finished at t={clock:g}")
            continue
        pend = pending_info(rank, action)
        if pend is None:
            lines.append(f"rank {rank}: running at t={clock:g}")
            continue
        src, dst, words = pend
        words_txt = "?" if words is None else f"{words:g}"
        lines.append(
            f"rank {rank}: blocked on {action!r} at t={clock:g} "
            f"[pending src={src} dst={dst} words={words_txt}]"
        )
    return "\n".join(lines)


@dataclass
class SimStats:
    """Aggregate communication/computation counters for one run."""

    messages: int = 0
    words: float = 0.0
    compute_ops: float = 0.0
    #: clock value of every processor at termination
    clocks: tuple[float, ...] = ()
    #: (rank, tag, clock) records emitted by Probe actions
    timeline: list = field(default_factory=list)
    #: (src, dst, end_time, words) for every delivered message
    events: list = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max(self.clocks) if self.clocks else 0.0


@dataclass(frozen=True)
class SimResult:
    """Final per-rank values plus the simulated time and statistics."""

    values: tuple[Any, ...]
    time: float
    stats: SimStats
    #: forensic record of injected faults (None for fault-free runs)
    faults: FaultSummary | None = None


def live_fault_state(faults: FaultPlan | None,
                     fault_state: FaultState | None,
                     p: int) -> FaultState | None:
    """The interpreter a ``p``-rank run consults: the caller's live
    ``fault_state`` (the recovery runtime carries cursors and deaths
    across stages), a fresh one for a non-empty plan, or None — the fault
    layer is then never consulted and timing is bit-identical to the
    paper's model."""
    if fault_state is not None:
        return fault_state
    if faults is not None and not faults.is_empty:
        return FaultState(faults, p)
    return None


def raise_root_cause(errors: Iterable[BaseException | None]) -> None:
    """Raise the lowest rank's real error, else its ``DeadlockError``: a
    rank that died with a user exception makes its partners' waits fail
    too, and the secondary deadlocks must not mask it."""
    found = [e for e in errors if e is not None]
    for exc in sorted(found, key=lambda e: isinstance(e, DeadlockError)):
        raise exc


class Rendezvous:
    """The match kernel over its list-backed store (see module docstring)."""

    def __init__(self, size: int, params: MachineParams,
                 fstate: FaultState | None = None,
                 initial_clocks: Sequence[float] | None = None) -> None:
        if size == 0:
            raise ValueError("cannot run an empty machine")
        self.size = size
        self.params = params
        self.fstate = fstate
        self.stats = SimStats()
        self._open_store(initial_clocks)

    # -- storage primitives --------------------------------------------------

    def _open_store(self, initial_clocks: Sequence[float] | None) -> None:
        """Bind ``clock``, ``pending``, ``alive`` (indexed by rank) and
        ``domain_free`` (indexed by contention-domain key, 0.0 until
        first written): here, Python lists and a dict."""
        size = self.size
        self.clock = ([0.0] * size if initial_clocks is None
                      else list(initial_clocks))
        self.pending: list = [None] * size
        self.alive = [True] * size
        self.domain_free = defaultdict(float)

    def _count(self, messages: int, words: float) -> None:
        self.stats.messages += messages
        self.stats.words += words

    def _deliver(self, src: int, dst: int, t: float, words: float) -> None:
        """One message ``src -> dst`` is delivered at ``t``.

        Called once per direction of a consumed pair, after both clocks
        are settled and **before** either rank is woken: a store whose
        payload travels outside the kernel moves (or pins) it here, so
        the receiver finds it when it resumes.
        """
        self.stats.events.append((src, dst, t, words))

    def _tally_compute(self, ops: float) -> None:
        self.stats.compute_ops += ops

    def _tally_probe(self, rank: int, tag: Any, clock: float) -> None:
        self.stats.timeline.append((rank, tag, clock))

    def _wake(self, rank: int, value: Any = None,
              failure: BaseException | None = None) -> None:
        """Resume ``rank`` with the matched payload, or with ``failure``
        raised at its blocked primitive.  The one thing every engine
        must supply."""
        raise NotImplementedError

    # -- the timing rule -----------------------------------------------------

    def comm_complete(self, src: int, dst: int, words: float,
                      extra: float = 0.0) -> float:
        """When a message matched between ``src`` and ``dst`` completes:
        both clocks and every contention domain the pair occupies must be
        free, then one ``ts + words*tw`` (plus fault-charged ``extra``)."""
        ts, tw = self.params.link(src, dst)
        keys = self.params.contention_domains(src, dst)
        free = self.domain_free
        start = max(self.clock[src], self.clock[dst])
        for k in keys:
            start = max(start, free[k])
        t = start + ts + tw * words + extra
        for k in keys:
            free[k] = t
        return t

    def local(self, rank: int, action: Any) -> bool:
        """Consume a ``Compute``/``Probe``; False for a communication."""
        if isinstance(action, Compute):
            if action.ops < 0:
                raise ValueError("negative computation cost")
            self.clock[rank] += action.ops
            self._tally_compute(action.ops)
        elif isinstance(action, Probe):
            self._tally_probe(rank, action.tag, self.clock[rank])
        else:
            return False
        return True

    # -- matching ------------------------------------------------------------

    def post(self, rank: int, action: Any) -> None:
        """A blocking engine's submission of one communication action.

        Crashes take effect here — at the victim's next communication
        action — and a rank posting on a dead peer gets its
        :class:`PeerDeadError` at once.  Otherwise the action is parked
        and matched if its partner already waits; when nothing matches
        and every live rank is blocked, all of them fail with the
        deadlock report.
        """
        if self.fstate is not None:
            if self.crash_due(rank):
                self.kill(rank)
                self.wake_waiters()
                raise RankCrashedError(rank, self.clock[rank])
            exc = self._dead_peer(rank, action)
            if exc is not None:
                raise exc
        self.pending[rank] = action
        if not self.try_match(rank) and self.deadlocked():
            self.fail_all()

    def try_match(self, rank: int) -> bool:
        """Pair ``rank``'s pending action with its partner's.

        True when the pair was consumed: both ranks were woken, with
        their payloads or — the link timed out — with a
        :class:`FaultTimeoutError` at equal clocks.
        """
        act = self.pending[rank]
        peer = comm_partner(act)
        if peer is None:
            return False
        other = self.pending[peer]
        if type(other) is not _ANSWERS[type(act)] \
                or comm_partner(other) != rank:
            return False
        exchange = isinstance(act, SendRecv)
        if isinstance(act, Recv) or (exchange and peer < rank):
            # lead with the sender, or the lower rank of an exchange
            rank, peer, act, other = peer, rank, other, act

        words = max(act.words, other.words) if exchange else act.words
        extra = 0.0
        if self.fstate is not None:
            ts, tw = self.params.link(rank, peer)
            outcome = self.fstate.resolve(rank, peer, ts + tw * words,
                                          exchange=exchange)
            extra = outcome.extra_delay
            if outcome.timed_out:
                # both endpoints observe the dead link at one clock; an
                # uncaught error aborts the run typed and seed-replayable
                t = max(self.clock[rank], self.clock[peer]) + extra
                self._settle(rank, peer, t)
                detail = self.describe()
                for i in (peer, rank):
                    self._wake(i, failure=FaultTimeoutError(
                        rank, peer, words, outcome.drops, t, detail))
                return True
        t = self.comm_complete(rank, peer, words, extra)
        self._settle(rank, peer, t)
        if exchange:
            self._count(2, act.words + other.words)
            self._deliver(rank, peer, t, act.words)
            self._deliver(peer, rank, t, other.words)
        else:
            self._count(1, act.words)
            self._deliver(rank, peer, t, act.words)
        self._wake(rank, other.payload if exchange else None)
        self._wake(peer, act.payload)
        return True

    def _settle(self, a: int, b: int, t: float) -> None:
        """Both ends of a consumed pair leave the rendezvous at ``t``."""
        self.clock[a] = self.clock[b] = t
        self.pending[a] = self.pending[b] = None

    # -- deaths --------------------------------------------------------------

    def crash_due(self, rank: int) -> bool:
        """Is ``rank`` past its scheduled crash (and not yet dead)?"""
        return self.fstate is not None \
            and self.fstate.should_crash(rank, self.clock[rank])

    def kill(self, rank: int) -> None:
        """Crash ``rank`` at its current clock."""
        self.fstate.record_death(rank, self.clock[rank])
        self.pending[rank] = None
        self.alive[rank] = False

    def _dead_peer(self, rank: int, action: Any) -> PeerDeadError | None:
        peer = comm_partner(action)
        if peer is None or not self.fstate.is_dead(peer):
            return None
        return PeerDeadError(rank, peer, self.fstate.death_clock(peer),
                             repr(action))

    def wake_waiters(self) -> bool:
        """Fail, in rank order, every rank blocked on a dead peer: its
        :class:`PeerDeadError` is raised at the blocked primitive, where
        a self-stabilizing collective degrades to ``UNDEF``."""
        woke = False
        for rank in range(self.size):
            exc = self._dead_peer(rank, self.pending[rank])
            if exc is not None:
                self.pending[rank] = None
                self._wake(rank, failure=exc)
                woke = True
        return woke

    # -- termination ---------------------------------------------------------

    def describe(self) -> str:
        return describe_ranks(
            (r, self.pending[r], self.clock[r], not self.alive[r])
            for r in range(self.size))

    def deadlocked(self) -> bool:
        """Every live rank is blocked (the caller found nothing to match)."""
        live = False
        for rank in range(self.size):
            if self.alive[rank]:
                if self.pending[rank] is None:
                    return False  # someone is still running
                live = True
        return live

    def deadlock_error(self) -> DeadlockError:
        return DeadlockError(f"simulation deadlocked: no progress possible "
                             f"(protocol mismatch)\n{self.describe()}")

    def fail_all(self) -> None:
        """Wake every blocked rank with the deadlock report."""
        exc = self.deadlock_error()
        for rank in range(self.size):
            if self.pending[rank] is not None:
                self.pending[rank] = None
                self._wake(rank, failure=DeadlockError(*exc.args))

    def finish(self, rank: int) -> None:
        """``rank`` returned (or died): its partners may now be stuck."""
        self.alive[rank] = False
        if self.deadlocked():
            self.fail_all()

    def result(self, values: Iterable[Any],
               fstate: FaultState | None = None) -> SimResult:
        """The run's outcome; ``fstate`` names the interpreter whose
        summary to report when it is not the one the kernel consulted."""
        stats = self.stats
        stats.clocks = tuple(self.clock[r] for r in range(self.size))
        if fstate is None:
            fstate = self.fstate
        return SimResult(tuple(values), stats.makespan, stats,
                         None if fstate is None else fstate.summary())
