"""Fault interpreter extensions for supervised execution.

:class:`SupervisedFaultState` is a :class:`~repro.faults.state.FaultState`
that adds the two structural recovery mechanisms:

* **virtual→physical host mapping** — the engines keep simulating the
  same ``p`` *virtual* ranks across replays, but after shrink-recovery a
  crashed physical rank's virtuals are re-hosted onto survivors.  All
  plan interpretation (crash clocks, link verdicts, message cursors)
  happens in *physical* coordinates, so a fault plan keeps meaning the
  same thing after the topology shrank; co-hosted virtuals exchange
  messages for free (same host, no wire).

* **link quarantine with relay rerouting** — once the supervisor
  quarantines a physical link, traffic on it is deterministically
  rerouted through the lowest-numbered healthy relay, charged one extra
  ``base_cost`` per rerouted direction, and *bypasses the plan's
  verdicts* (the faulty link is no longer trusted, so its scheduled
  faults can no longer fire; bypassing also keeps the message cursor
  replay-stable).  If no healthy relay exists — e.g. every outbound link
  of a rank is quarantined — the delivery times out, which the
  supervisor converts into ``UnrecoverableError`` rather than striking
  again forever.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.faults.state import Delivery, FaultState

__all__ = ["SupervisedFaultState"]

Link = tuple[int, int]


class SupervisedFaultState(FaultState):
    """Fault state with host remapping and quarantine-aware routing."""

    def __init__(self, plan: FaultPlan, p: int) -> None:
        super().__init__(plan)
        #: number of physical ranks (never changes; hosts() shrinks instead)
        self.nphys = p
        #: virtual rank -> physical host (identity until a shrink)
        self.hosts: list[int] = list(range(p))
        #: quarantined *physical* directed links (supervisor-managed)
        self.quarantined: set[Link] = set()
        #: virtual ranks currently dead (their host crashed); cleared per
        #: virtual by rehost() when shrink moves them to a survivor
        self._dead_virtual: set[int] = set()

    # -- supervisor hooks ----------------------------------------------------

    def quarantine(self, link: Link) -> None:
        self.quarantined.add(link)

    def alive_hosts(self) -> list[int]:
        return [r for r in range(self.nphys) if not self._host_dead(r)]

    def find_relay(self, x: int, y: int) -> int | None:
        """Lowest-numbered healthy relay for quarantined link ``x -> y``.

        A relay must be a live physical rank distinct from both endpoints
        whose two legs ``x -> r`` and ``r -> y`` are not quarantined.
        (Leg *faults* are irrelevant: relayed traffic bypasses the plan.)
        """
        for r in range(self.nphys):
            if r == x or r == y or self._host_dead(r):
                continue
            if (x, r) in self.quarantined or (r, y) in self.quarantined:
                continue
            return r
        return None

    def rehost(self, dead_host: int, new_host: int) -> list[int]:
        """Move every virtual rank of ``dead_host`` onto ``new_host``.

        Returns the virtual ranks that moved (revived for the replay).
        """
        if self._host_dead(new_host):
            raise ValueError(f"cannot rehost onto dead rank {new_host}")
        moved = [v for v in range(len(self.hosts))
                 if self.hosts[v] == dead_host]
        for v in moved:
            self.hosts[v] = new_host
            self._dead_virtual.discard(v)
        return moved

    # -- virtual-death storage (overridable, like the FaultState hooks) ------

    def _virt_dead(self, rank: int) -> bool:
        return rank in self._dead_virtual

    def _record_virt_death(self, rank: int) -> None:
        self._dead_virtual.add(rank)

    # -- FaultState API in virtual coordinates -------------------------------

    def should_crash(self, rank: int, clock: float) -> bool:
        host = self.hosts[rank]
        if self._host_dead(host):
            # the host is down: every co-hosted virtual dies at its next
            # communication action (not only the one that hit the crash)
            return not self._virt_dead(rank)
        at = self._crash_clock.get(host)
        return at is not None and clock >= at

    def record_death(self, rank: int, clock: float) -> None:
        self._record_virt_death(rank)
        self._record_host_death(self.hosts[rank], clock)

    def is_dead(self, rank: int) -> bool:
        return self._virt_dead(rank)

    def death_clock(self, rank: int) -> float:
        return self._host_death_clock(self.hosts[rank])

    def _play(self, src: int, dst: int, base_cost: float,
              exchange: bool) -> Delivery:
        a, b = self.hosts[src], self.hosts[dst]
        if a == b:
            # co-hosted after a shrink: a local move, no wire, no faults
            return Delivery(extra_delay=0.0, drops=0, timed_out=False)
        dirs: tuple[Link, ...] = ((a, b), (b, a)) if exchange else ((a, b),)
        qdirs = [d for d in dirs if d in self.quarantined]
        if qdirs:
            # Quarantined traffic is rerouted (or refused) wholesale and
            # never consults the plan: verdicts scheduled on an untrusted
            # link cannot fire, and the message cursor stays exactly
            # where a replay from checkpoint expects it.
            extra = 0.0
            for x, y in qdirs:
                if self.find_relay(x, y) is None:
                    self._note_timeout((x, y))
                    return Delivery(extra_delay=0.0, drops=0, timed_out=True)
                extra += base_cost  # one extra hop through the relay
            self._note_reroute(len(qdirs))
            return Delivery(extra_delay=extra, drops=0, timed_out=False)
        return super()._play(a, b, base_cost, exchange)
