"""Runtime fault bookkeeping shared by both execution engines.

One :class:`FaultState` lives for one simulated run.  It owns the mutable
side of fault injection — per-link message counters, the set of crashed
ranks, retry/timeout tallies — while the :class:`~repro.faults.plan.FaultPlan`
it interprets stays immutable and replayable.

The central entry point is :meth:`FaultState.resolve`: called by an
engine the moment a rendezvous pair *matches*, it plays the message's
delivery attempts against the plan (drops, retries with backoff, delays,
duplicates, jitter) and returns either the extra model time to charge or
a timeout verdict.  Resolving at match time keeps both engines identical:
a dropped message is pure extra latency when a retry succeeds, and a
typed :class:`~repro.faults.errors.FaultTimeoutError` when the link is
dead — never a hang.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan

__all__ = ["Delivery", "FaultState", "FaultSummary"]


@dataclass(frozen=True)
class Delivery:
    """Outcome of resolving one rendezvous against the plan."""

    extra_delay: float
    drops: int
    timed_out: bool


@dataclass(frozen=True)
class FaultSummary:
    """Immutable forensic record of everything that fired during a run.

    ``epoch`` identifies the supervision attempt the record belongs to:
    unsupervised runs only ever produce epoch 0; the recovery runtime
    (:mod:`repro.recovery`) starts a fresh epoch per replay so original-run
    faults and replay faults are never double-counted.
    """

    deaths: tuple[tuple[int, float], ...] = ()
    drops: tuple[tuple[tuple[int, int], int], ...] = ()
    timeouts: tuple[tuple[int, int], ...] = ()
    retries: int = 0
    duplicates: int = 0
    extra_delay: float = 0.0
    #: messages delivered over a relay path around a quarantined link
    rerouted: int = 0
    epoch: int = 0

    @property
    def any_fired(self) -> bool:
        return bool(self.deaths or self.drops or self.timeouts
                    or self.duplicates or self.extra_delay or self.rerouted)

    def describe(self) -> str:
        lines = ["fault summary:" if self.epoch == 0
                 else f"fault summary (epoch {self.epoch}):"]
        for rank, clock in self.deaths:
            lines.append(f"  rank {rank} died at t={clock:g}")
        for (src, dst), n in self.drops:
            lines.append(f"  link {src}->{dst}: {n} drop(s)")
        for src, dst in self.timeouts:
            lines.append(f"  link {src}->{dst}: TIMED OUT")
        if self.retries:
            lines.append(f"  retries: {self.retries}")
        if self.duplicates:
            lines.append(f"  duplicates delivered: {self.duplicates}")
        if self.rerouted:
            lines.append(f"  rerouted around quarantine: {self.rerouted}")
        if self.extra_delay:
            lines.append(f"  extra model time charged: {self.extra_delay:g}")
        if len(lines) == 1:
            lines.append("  (nothing fired)")
        return "\n".join(lines)


class FaultState:
    """Mutable per-run interpreter of one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._msg_idx: dict[tuple[int, int], int] = {}
        self._crash_clock = {c.rank: plan.crash_clock(c.rank)
                             for c in plan.crashes}
        self.dead: dict[int, float] = {}
        self.drops: Counter = Counter()
        self.timeouts: list[tuple[int, int]] = []
        self.retries = 0
        self.duplicates = 0
        #: extra model time charged, per matched ``(src, dst)`` pair
        self._extra: dict[tuple[int, int], float] = {}
        self.rerouted = 0
        #: replay epoch (0 = original run); bumped by reset_for_replay()
        self.epoch = 0
        self._epoch_history: list[FaultSummary] = []
        self._death_mark = 0  # deaths recorded before the current epoch

    # -- replay epochs -------------------------------------------------------

    def reset_for_replay(self) -> None:
        """Start a new forensic epoch (one supervision replay attempt).

        Archives the current epoch's tallies and zeroes them so faults
        observed during a replay are attributed to the replay, not
        double-counted onto the original run.  Permanent state — per-link
        message cursors and the set of crashed ranks — is *not* touched:
        the plan keeps addressing absolute message indices and a dead
        rank stays dead across replays.
        """
        self._epoch_history.append(self.summary())
        self._death_mark = len(self.dead)
        self.drops = Counter()
        self.timeouts = []
        self.retries = 0
        self.duplicates = 0
        self._extra = {}
        self.rerouted = 0
        self.epoch += 1

    def epoch_summaries(self) -> tuple[FaultSummary, ...]:
        """Every epoch's forensic record, oldest first (current included)."""
        return tuple(self._epoch_history) + (self.summary(),)

    def total_summary(self) -> FaultSummary:
        """Aggregate forensics across all epochs (epoch = count of replays)."""
        epochs = self.epoch_summaries()
        merged_drops: Counter = Counter()
        timeouts: list[tuple[int, int]] = []
        for s in epochs:
            merged_drops.update(dict(s.drops))
            timeouts.extend(s.timeouts)
        return FaultSummary(
            deaths=tuple(sorted(self.dead.items())),
            drops=tuple(sorted(merged_drops.items())),
            timeouts=tuple(sorted(timeouts)),
            retries=sum(s.retries for s in epochs),
            duplicates=sum(s.duplicates for s in epochs),
            extra_delay=math.fsum(s.extra_delay for s in epochs),
            rerouted=sum(s.rerouted for s in epochs),
            epoch=self.epoch,
        )

    # -- checkpoint cursor ---------------------------------------------------

    def cursor(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """Frozen per-link message-index cursor (for checkpointing)."""
        return tuple(sorted(self._msg_idx.items()))

    def restore_cursor(self, cursor) -> None:
        """Roll the per-link message indices back to a checkpointed cursor.

        Restoring the cursor makes a replayed stage consume exactly the
        same plan verdicts as the original attempt did — replay becomes a
        pure function of the checkpoint, independent of how far a failed
        attempt got on either engine.
        """
        self._msg_idx = dict(cursor)

    # -- storage primitives --------------------------------------------------
    # Every mutation of the per-run bookkeeping funnels through these small
    # hooks so a subclass can relocate the storage without re-deriving the
    # resolve() semantics.  The process backend maps them onto shared-memory
    # cells (:class:`repro.parallel.faultshare.ArenaFaultState`): any rank
    # may perform a match, so cursors, deaths and tallies must be visible
    # across address spaces.

    def _advance_cursor(self, link: tuple[int, int]) -> int:
        """Current message index of ``link``; post-increments."""
        n = self._msg_idx.get(link, 0)
        self._msg_idx[link] = n + 1
        return n

    def _note_drop(self, link: tuple[int, int]) -> None:
        self.drops[link] += 1

    def _note_timeout(self, link: tuple[int, int]) -> None:
        self.timeouts.append(link)

    def _note_retry(self) -> None:
        self.retries += 1

    def _note_dup(self) -> None:
        self.duplicates += 1

    def _note_reroute(self, n: int) -> None:
        self.rerouted += n

    def _charge_extra(self, pair: tuple[int, int], extra: float) -> None:
        self._extra[pair] = self._extra.get(pair, 0.0) + extra

    def _host_dead(self, rank: int) -> bool:
        return rank in self.dead

    def _host_death_clock(self, rank: int) -> float:
        return self.dead[rank]

    def _record_host_death(self, rank: int, clock: float) -> None:
        self.dead.setdefault(rank, clock)

    # -- crashes -------------------------------------------------------------

    def should_crash(self, rank: int, clock: float) -> bool:
        """Is ``rank`` scheduled to die at or before ``clock`` (and not yet)?"""
        at = self._crash_clock.get(rank)
        return at is not None and not self._host_dead(rank) and clock >= at

    def record_death(self, rank: int, clock: float) -> None:
        self._record_host_death(rank, clock)

    def is_dead(self, rank: int) -> bool:
        return self._host_dead(rank)

    def death_clock(self, rank: int) -> float:
        return self._host_death_clock(rank)

    # -- message delivery ----------------------------------------------------

    def resolve(self, src: int, dst: int, base_cost: float,
                exchange: bool = False) -> Delivery:
        """Play one matched rendezvous against the plan.

        ``base_cost`` is the message's own wire time (``ts + words*tw``),
        used for adaptive retry penalties and duplicate charges.  For an
        ``exchange`` (SendRecv pair) both directed links are consulted; a
        drop on either direction drops the whole exchange.

        The extra time is filed under the pair of ranks that matched: a
        rank's actions are sequential, so the matches between two fixed
        ranks come in one order on every engine and each pair's running
        sum is the same float whichever thread or process performed it.
        """
        outcome = self._play(src, dst, base_cost, exchange)
        if outcome.extra_delay:
            self._charge_extra((src, dst), outcome.extra_delay)
        return outcome

    def _play(self, src: int, dst: int, base_cost: float,
              exchange: bool) -> Delivery:
        plan = self.plan
        extra = 0.0
        drops_here = 0
        while True:
            dropped = False
            links = ((src, dst), (dst, src)) if exchange else ((src, dst),)
            for a, b in links:
                n = self._advance_cursor((a, b))
                kind, delay = plan.verdict(a, b, n)
                if kind == "drop":
                    dropped = True
                    self._note_drop((a, b))
                elif kind == "delay":
                    extra += delay
                elif kind == "dup":
                    self._note_dup()
                    extra += base_cost
                extra += plan.jitter_for(a, b, n)
            if not dropped:
                return Delivery(extra_delay=extra, drops=drops_here,
                                timed_out=False)
            if drops_here >= plan.max_retries:
                self._note_timeout((src, dst))
                return Delivery(extra_delay=extra, drops=drops_here + 1,
                                timed_out=True)
            extra += plan.retry_penalty(drops_here, base_cost)
            drops_here += 1
            self._note_retry()

    # -- forensics -----------------------------------------------------------

    @property
    def extra_delay(self) -> float:
        """Extra model time charged this epoch: the exactly rounded
        ``math.fsum`` of the per-pair charges, so the total does not
        depend on the order in which concurrent pairs matched."""
        return math.fsum(v for _pair, v in sorted(self._extra.items()))

    def summary(self) -> FaultSummary:
        """Forensic record of the *current* epoch (the whole run when no
        replay ever happened, i.e. for every unsupervised run).  Order-
        free: drops, timeouts and deaths sorted, ``extra_delay`` an
        ``fsum`` — every engine reports the same record."""
        deaths = tuple(sorted(list(self.dead.items())[self._death_mark:]))
        return FaultSummary(
            deaths=deaths,
            drops=tuple(sorted(self.drops.items())),
            timeouts=tuple(sorted(self.timeouts)),
            retries=self.retries,
            duplicates=self.duplicates,
            extra_delay=self.extra_delay,
            rerouted=self.rerouted,
            epoch=self.epoch,
        )
