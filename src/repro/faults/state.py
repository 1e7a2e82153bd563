"""Runtime fault bookkeeping shared by every execution engine.

One :class:`FaultState` lives for one simulated run — or for one
supervised run, across its replays.  It owns the mutable side of fault
injection — per-link message counters, crashed hosts and ranks,
retry/timeout tallies — while the :class:`~repro.faults.plan.FaultPlan`
it interprets stays immutable and replayable.

The central entry point is :meth:`FaultState.resolve`: called by an
engine the moment a rendezvous pair *matches*, it plays the message's
delivery attempts against the plan (drops, retries with backoff, delays,
duplicates, jitter) and returns either the extra model time to charge or
a timeout verdict.  Resolving at match time keeps all engines identical:
a dropped message is pure extra latency when a retry succeeds, and a
typed :class:`~repro.faults.errors.FaultTimeoutError` when the link is
dead — never a hang.

The state also carries the recovery runtime's two levers
(:mod:`repro.recovery`), inert until the supervisor pulls them:

* **virtual→physical host map** — after shrink-recovery a crashed host's
  virtual ranks are re-hosted onto a survivor.  The plan is read in
  *physical* coordinates (crash clocks, link verdicts, message cursors),
  so it means the same thing after the topology shrank, and co-hosted
  virtuals exchange messages for free (same host, no wire).
* **link quarantine** — traffic on a quarantined physical link goes
  through the lowest-numbered healthy relay for one extra ``base_cost``
  per direction and *bypasses the plan* (its verdicts cannot fire, and
  the cursor stays replay-stable); with no healthy relay the delivery
  times out, which the supervisor turns into ``UnrecoverableError``.

**Stores.**  Everything a match mutates is a store named once in
:data:`CELLS` and touched only as ``store[key]`` (absent keys read 0):
``Counter``\\ s here, shared-arena arrays in the process engine, whose
children may each perform a match (:meth:`FaultState.on_cells`,
:meth:`FaultState.adopt`).  The rendezvous kernel's stores are the same
idiom.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.faults.plan import FaultPlan

__all__ = ["CELLS", "Delivery", "FaultState", "FaultSummary", "cell_layout"]

Link = tuple[int, int]

#: The stores a match mutates, named once: ``(name, dtype, key, kept
#: across replay epochs)``.  ``link`` stores are keyed by a directed
#: ``(src, dst)``, ``rank`` stores by a rank, ``tally`` by RETRIES etc.
CELLS = (
    ("next_msg", "int64", "link", True),     # a physical link's next message
    ("drops", "int64", "link", False),
    ("timeouts", "int64", "link", False),
    ("extra", "float64", "link", False),     # extra time per matched pair
    ("host_down", "int64", "rank", True),    # physical host down (0/1)
    ("died_at", "float64", "rank", True),    # ... and its death clock
    ("virt_down", "int64", "rank", True),    # virtual rank down (0/1)
    ("tally", "int64", "tally", False),
)
RETRIES, DUPLICATES, REROUTED = range(3)


def cell_layout(p: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """``(name, dtype, shape)`` of every store as an array on ``p`` ranks."""
    shapes = {"link": (p, p), "rank": (p,), "tally": (3,)}
    return [(name, dtype, shapes[key]) for name, dtype, key, _kept in CELLS]


def _entries(array) -> dict:
    """``array``'s nonzero entries as Python numbers, keyed like a store."""
    return {key if len(key) > 1 else key[0]: array[key].item()
            for key in zip(*(axis.tolist() for axis in array.nonzero()))}


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
    """Mutable interpreter of one :class:`FaultPlan` on ``p`` ranks."""

    def __init__(self, plan: FaultPlan, p: int) -> None:
        self.plan = plan
        #: number of physical hosts (never changes; a shrink re-hosts)
        self.p = p
        #: virtual rank -> physical host (identity until a shrink)
        self.hosts: list[int] = list(range(p))
        #: quarantined *physical* directed links (supervisor-managed)
        self.quarantined: set[Link] = set()
        self._crash_clock = {c.rank: plan.crash_clock(c.rank)
                             for c in plan.crashes}
        for name, *_ in CELLS:
            setattr(self, name, Counter())
        #: replay epoch (0 = original run); bumped by reset_for_replay()
        self.epoch = 0
        self._epoch_history: list[FaultSummary] = []
        self._dead_before: set[int] = set()  # hosts dead when the epoch began

    # -- the stores on arena cells (process engine) --------------------------

    def on_cells(self, cell: Callable[[str], Any]) -> "FaultState":
        """A shallow copy whose stores are the arrays ``cell(name)``
        (shaped by :func:`cell_layout`), seeded with this state's entries;
        host map, quarantine and plan only change in the parent."""
        view = copy.copy(self)
        for name, *_ in CELLS:
            array = cell(name)
            array[...] = 0
            for key, value in getattr(self, name).items():
                array[key] = value
            setattr(view, name, array)
        return view

    def adopt(self, view: "FaultState") -> None:
        """Take ``view``'s stores back as Python numbers (nonzero entries)
        and release its arrays: an arena cannot close under a live view."""
        for name, *_ in CELLS:
            setattr(self, name, Counter(_entries(getattr(view, name))))
            delattr(view, name)

    # -- replay epochs -------------------------------------------------------

    def reset_for_replay(self) -> None:
        """Start a new forensic epoch (one supervision replay attempt).

        Archives the current epoch's tallies and zeroes them so faults
        observed during a replay are attributed to the replay, not
        double-counted onto the original run.  Permanent state — per-link
        message cursors and the crashed hosts and ranks — is *not*
        touched: the plan keeps addressing absolute message indices and a
        dead rank stays dead across replays.
        """
        self._epoch_history.append(self.summary())
        self._dead_before = self.dead_hosts()
        for name, _dtype, _key, kept in CELLS:
            if not kept:
                setattr(self, name, Counter())
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
            deaths=self._deaths(self.dead_hosts()),
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
        return tuple(sorted((+self.next_msg).items()))

    def restore_cursor(self, cursor) -> None:
        """Roll the per-link message indices back to a checkpointed cursor.

        Restoring the cursor makes a replayed stage consume exactly the
        same plan verdicts as the original attempt did — replay becomes a
        pure function of the checkpoint, independent of how far a failed
        attempt got on any engine.
        """
        self.next_msg = Counter(dict(cursor))

    # -- supervision ---------------------------------------------------------

    def quarantine(self, link: Link) -> None:
        self.quarantined.add(link)

    def dead_hosts(self) -> set[int]:
        return {host for host, down in self.host_down.items() if down}

    def alive_hosts(self) -> list[int]:
        return [r for r in range(self.p) if not self.host_down[r]]

    def find_relay(self, x: int, y: int) -> int | None:
        """Lowest-numbered healthy relay for quarantined link ``x -> y``.

        A relay must be a live physical rank distinct from both endpoints
        whose two legs ``x -> r`` and ``r -> y`` are not quarantined.
        (Leg *faults* are irrelevant: relayed traffic bypasses the plan.)
        """
        for r in range(self.p):
            if r == x or r == y or self.host_down[r]:
                continue
            if (x, r) in self.quarantined or (r, y) in self.quarantined:
                continue
            return r
        return None

    def rehost(self, dead_host: int, new_host: int) -> list[int]:
        """Move every virtual rank of ``dead_host`` onto ``new_host``.

        Returns the virtual ranks that moved (revived for the replay).
        """
        if self.host_down[new_host]:
            raise ValueError(f"cannot rehost onto dead rank {new_host}")
        moved = [v for v in range(len(self.hosts))
                 if self.hosts[v] == dead_host]
        for v in moved:
            self.hosts[v] = new_host
            self.virt_down[v] = 0
        return moved

    # -- crashes (virtual ranks) ---------------------------------------------

    def should_crash(self, rank: int, clock: float) -> bool:
        """Is ``rank`` due to die at ``clock`` (and not dead yet)?"""
        host = self.hosts[rank]
        if self.host_down[host]:
            # the host is down: every co-hosted virtual dies at its next
            # communication action (not only the one that hit the crash)
            return not self.virt_down[rank]
        at = self._crash_clock.get(host)
        return at is not None and clock >= at

    def record_death(self, rank: int, clock: float) -> None:
        self.virt_down[rank] = 1
        host = self.hosts[rank]
        if not self.host_down[host]:
            self.host_down[host] = 1
            self.died_at[host] = clock

    def is_dead(self, rank: int) -> bool:
        return bool(self.virt_down[rank])

    def death_clock(self, rank: int) -> float:
        return float(self.died_at[self.hosts[rank]])

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
            self.extra[src, dst] += outcome.extra_delay
        return outcome

    def _play(self, src: int, dst: int, base_cost: float,
              exchange: bool) -> Delivery:
        a, b = self.hosts[src], self.hosts[dst]
        if a == b:
            # co-hosted after a shrink: a local move, no wire, no faults
            return Delivery(extra_delay=0.0, drops=0, timed_out=False)
        links = ((a, b), (b, a)) if exchange else ((a, b),)
        quarantined = [link for link in links if link in self.quarantined]
        if quarantined:
            # Quarantined traffic is rerouted (or refused) wholesale and
            # never consults the plan: verdicts scheduled on an untrusted
            # link cannot fire, and the message cursor stays exactly
            # where a replay from checkpoint expects it.
            extra = 0.0
            for x, y in quarantined:
                if self.find_relay(x, y) is None:
                    self.timeouts[x, y] += 1
                    return Delivery(extra_delay=0.0, drops=0, timed_out=True)
                extra += base_cost  # one extra hop through the relay
            self.tally[REROUTED] += len(quarantined)
            return Delivery(extra_delay=extra, drops=0, timed_out=False)
        plan = self.plan
        extra = 0.0
        drops_here = 0
        while True:
            dropped = False
            for x, y in links:
                n = int(self.next_msg[x, y])
                self.next_msg[x, y] = n + 1
                kind, delay = plan.verdict(x, y, n)
                if kind == "drop":
                    dropped = True
                    self.drops[x, y] += 1
                elif kind == "delay":
                    extra += delay
                elif kind == "dup":
                    self.tally[DUPLICATES] += 1
                    extra += base_cost
                extra += plan.jitter_for(x, y, n)
            if not dropped:
                return Delivery(extra_delay=extra, drops=drops_here,
                                timed_out=False)
            if drops_here >= plan.max_retries:
                self.timeouts[a, b] += 1
                return Delivery(extra_delay=extra, drops=drops_here + 1,
                                timed_out=True)
            extra += plan.retry_penalty(drops_here, base_cost)
            drops_here += 1
            self.tally[RETRIES] += 1

    # -- forensics -----------------------------------------------------------

    @property
    def extra_delay(self) -> float:
        """Extra model time charged this epoch: the exactly rounded
        ``math.fsum`` of the per-pair charges, so the total does not
        depend on the order in which concurrent pairs matched."""
        return math.fsum(v for _pair, v in sorted(self.extra.items()))

    def _deaths(self, hosts) -> tuple[tuple[int, float], ...]:
        return tuple((h, float(self.died_at[h])) for h in sorted(hosts))

    def summary(self) -> FaultSummary:
        """Forensic record of the *current* epoch (the whole run when no
        replay ever happened, i.e. for every unsupervised run).  Order-
        free: drops, timeouts and deaths sorted, ``extra_delay`` an
        ``fsum`` — every engine reports the same record."""
        return FaultSummary(
            deaths=self._deaths(self.dead_hosts() - self._dead_before),
            drops=tuple(sorted((+self.drops).items())),
            timeouts=tuple(sorted(self.timeouts.elements())),
            retries=self.tally[RETRIES],
            duplicates=self.tally[DUPLICATES],
            extra_delay=self.extra_delay,
            rerouted=self.tally[REROUTED],
            epoch=self.epoch,
        )
