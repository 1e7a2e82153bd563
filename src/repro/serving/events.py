"""Job-lifecycle events of the serving runtime, rendered when read.

The serving flight recorder is a schema-v2 :class:`RecoveryLog`.  A
job's ``submit``, ``admit``, ``start`` and ``complete`` are a fixed
pattern: its lifecycle record ``(job, tenant, p)`` is made once
(``Job.life``), each transition a mark of its ``seq`` and the fields
that vary (:data:`MARKS`).  Rare kinds (reject, retry, quarantine,
deadline miss, fallback, failed ``complete``, batch ``start``) keep
their dict (:meth:`EventBus.emit`).  Readers render the v2 dicts — same
keys, same order — ascending in ``seq``.

The ``seq`` contract: a ``seq`` is one GIL-atomic ``next`` of an
``itertools.count``; its event lands in one ``deque.append`` and is
counted in its thread's own shard, under no lock.  The ``seq`` numbers
are dense and ordered once the emitters have returned; a concurrent
reader may miss the newest events but never sees half of one, and
``len(bus)`` (events *emitted*) never goes down.  The log keeps the
newest :data:`RETAINED_EVENTS`; :meth:`EventBus.tally` counts them all.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict, deque
from functools import partial
from typing import Any

from repro.recovery.events import RecoveryLog, check_kind

__all__ = ["EventBus", "RETAINED_EVENTS", "SUBMIT", "ADMIT", "START", "COMPLETE"]

#: events the log keeps: the 16 384 most recent jobs' four-event lifecycles
RETAINED_EVENTS = 65_536

#: ring room past the window, one per emitter between its seq and append
_IN_FLIGHT = 1_024

#: a mark's tally key ``(kind, status)`` -> the fields it varies in
MARKS = {("submit", None): (), ("admit", None): ("depth",),
         ("start", None): ("worker", "substrate", "attempt"),
         ("complete", "ok"): ("status", "attempts")}
SUBMIT, ADMIT, START, COMPLETE = MARKS


def _render(entry: tuple) -> dict[str, Any]:
    if len(entry) == 2:  # (seq, record) of a rare kind
        return entry[1]
    seq, key, (job, tenant, p), *varying = entry
    record = {"event": key[0], "seq": seq, "job": job, "tenant": tenant}
    if key[0] == "submit":
        record["p"] = p
    record.update(zip(MARKS[key], varying))
    return record


class EventBus:
    """Lock-free recorder of concurrent emitters' events."""

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        self._ring: deque = deque(maxlen=RETAINED_EVENTS + _IN_FLIGHT)
        #: thread ident -> its counts by (kind, status), one writer each
        self._counts = defaultdict(partial(defaultdict, int))

    def mark(self, key: tuple, life: tuple, *varying: Any) -> None:
        """A transition of job ``life``: ``varying`` as ``MARKS[key]``."""
        self._ring.append((next(self._seq), key, life, *varying))
        self._counts[threading.get_ident()][key] += 1

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        # checked first: a refused kind is neither numbered nor counted
        record = {"event": check_kind(event), "seq": next(self._seq),
                  **fields}
        self._ring.append((record["seq"], record))
        self._counts[threading.get_ident()][event, fields.get("status")] += 1
        return record

    @property
    def log(self) -> RecoveryLog:
        """The newest :data:`RETAINED_EVENTS` events, rendered."""
        window = self._ring.maxlen - _IN_FLIGHT  # sorted on the unique seqs
        return RecoveryLog(map(_render, sorted(self._ring)[-window:]))

    def tally(self) -> Counter:
        """Events emitted by ``(kind, status)`` (``None``: no status)."""
        total: Counter = Counter()
        for shard in list(self._counts.values()):
            total.update(dict(shard))  # a copy: its thread may add a key
        return total

    def kinds(self) -> tuple[str, ...]:
        return self.log.kinds()

    def of_kind(self, event: str) -> list[dict[str, Any]]:
        return self.log.of_kind(event)

    def write(self, path) -> None:
        """Write the rendered log's JSON document to ``path``."""
        self.log.write(path)

    def __len__(self) -> int:
        """Events emitted — not the (bounded) number retained."""
        return sum(self.tally().values())
