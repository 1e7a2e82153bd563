"""Per-link health scoreboard.

Counts fault strikes (timeouts surfaced to the supervisor) per directed
link and decides when a link has crossed the quarantine threshold.
Purely bookkeeping — the routing consequences of a quarantine live in
:class:`~repro.faults.state.FaultState` (``quarantine`` / ``find_relay``).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

__all__ = ["LinkHealthBoard"]

Link = tuple[int, int]


class LinkHealthBoard:
    """Strike counter with a fixed quarantine threshold."""

    def __init__(self, quarantine_after: int = 1) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine threshold must be >= 1")
        self.quarantine_after = quarantine_after
        self.strikes: Counter = Counter()
        self.quarantined: set[Link] = set()

    def strike(self, link: Link) -> bool:
        """Record one fault on ``link``; True iff it just got quarantined."""
        if link in self.quarantined:
            return False
        self.strikes[link] += 1
        if self.strikes[link] >= self.quarantine_after:
            self.quarantined.add(link)
            return True
        return False

    def strike_all(self, links: Iterable[Link]) -> list[Link]:
        """Strike a batch (deduplicated, sorted); returns newly quarantined
        links.  Sorting makes the outcome independent of the order the two
        engines happened to observe simultaneous timeouts in."""
        return [link for link in sorted(set(links)) if self.strike(link)]

    def snapshot(self) -> dict:
        return {
            "strikes": {f"{a}->{b}": n
                        for (a, b), n in sorted(self.strikes.items())},
            "quarantined": sorted(f"{a}->{b}" for a, b in self.quarantined),
        }
