"""Thread-safe job-lifecycle event emission onto a :class:`RecoveryLog`.

The serving runtime reuses the recovery log as its flight recorder —
schema v2 extended the supervision vocabulary with the job lifecycle
(``submit``/``admit``/``reject``/``start``/``retry``/``quarantine``/
``deadline_miss``/``complete``/``fallback``) precisely so one artifact
tells the whole story.  But a :class:`RecoveryLog` is a bare list built
for the single-threaded supervisor; the serving manager's submitters and
workers emit concurrently, so this bus serializes every append under one
lock and adds a monotonic sequence number to each event (concurrent
emission has no other global order to lean on).

A flight recorder keeps the recent past, not the life of the manager:
the log retains the latest :data:`RETAINED_EVENTS` records, while
``len(bus)`` stays the number *emitted* — the bus's own ``seq`` — and
:meth:`EventBus.tally` the number of each kind, which the manager's job
counters read.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict, deque
from typing import Any

from repro.recovery.events import RecoveryLog

__all__ = ["EventBus", "RETAINED_EVENTS"]

#: records the log keeps: the 16 384 most recent jobs' four-event
#: lifecycles (an unbounded list cost ~1.1 KB of RSS a job, for ever)
RETAINED_EVENTS = 65_536


class EventBus:
    """Locked facade over a :class:`RecoveryLog` for concurrent emitters."""

    def __init__(self, log: RecoveryLog | None = None) -> None:
        self.log = log if log is not None else RecoveryLog()
        self.log.events = deque(self.log.events, maxlen=RETAINED_EVENTS)
        self._lock = threading.Lock()
        self._seq = 0
        self._tally: defaultdict = defaultdict(int)

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        with self._lock:
            self._seq += 1
            self._tally[event, fields.get("status")] += 1
            return self.log.emit(event, seq=self._seq, **fields)

    def tally(self) -> Counter:
        """Events emitted, keyed ``(kind, status)``: the event's
        ``status`` field, ``None`` where it has none."""
        with self._lock:
            return Counter(self._tally)

    def kinds(self) -> tuple[str, ...]:
        with self._lock:
            return self.log.kinds()

    def of_kind(self, event: str) -> list[dict[str, Any]]:
        with self._lock:
            return self.log.of_kind(event)

    def write(self, path) -> None:
        """Flush the underlying log's JSON document to ``path``."""
        with self._lock:
            self.log.write(path)

    def __len__(self) -> int:
        """Events emitted — not the (bounded) number retained."""
        return self._seq
