"""Structured recovery event log.

Every supervision decision — checkpoint taken, fault observed, state
restored, link quarantined, schedule re-planned, topology shrunk,
recovery exhausted — is appended to a :class:`RecoveryLog` as one flat
JSON-serializable dict.  The log is deterministic for a given
``(program, inputs, params, plan, policy, engine)`` tuple, which makes
it diffable across runs and engines, and it is what the CI chaos job
uploads as an artifact (schema documented in ``docs/FAULTS.md``).

Since schema version 2, the same log carries the **job lifecycle** of
the multi-tenant serving runtime (:mod:`repro.serving`): a job is
submitted, admitted (or rejected with typed backpressure), started on a
worker, retried after an incident, quarantined as a poison job, and
completed — the supervision vocabulary and the serving vocabulary share
one event stream, so a serving incident's recovery trail (``child_exit``
→ ``retry`` → ``respawn`` → ``complete``) reads as one story.
:meth:`RecoveryLog.from_json` reads both v1 and v2 documents.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["RecoveryLog", "RECOVERYLOG_JSON_VERSION"]

#: schema version written by :meth:`RecoveryLog.to_json`; v1 (PR 4-7,
#: supervision events only) is still readable via :meth:`from_json`
RECOVERYLOG_JSON_VERSION = 2

#: event kinds a supervisor may emit, in the order they typically appear;
#: the second row is the real-process incident vocabulary (``engine=
#: "process"`` only): a heartbeat frozen past the watchdog interval, a
#: child that exited without its result handshake, an arena generation
#: bump before an attempt, a respawn of a crashed rank from checkpoint,
#: and the loud last-resort degradation to the threaded engine.
#: The third row is the serving job lifecycle (schema v2): submission,
#: admission-control verdicts, dispatch retries after worker incidents,
#: and deadline misses.  ``start``/``quarantine``/``complete``/
#: ``fallback`` are shared with the supervision vocabulary — the fields
#: disambiguate (``job=``/``tenant=`` vs ``link=``/``stage=``).
EVENT_KINDS = (
    "start", "checkpoint", "fault", "restore", "quarantine",
    "replan", "shrink", "complete", "unrecoverable",
    "heartbeat_miss", "child_exit", "epoch_bump", "respawn", "fallback",
    "submit", "admit", "reject", "retry", "deadline_miss",
)

#: the subset of kinds a v1 document may contain (everything before the
#: serving vocabulary); used only for validation on read
_V1_KINDS = EVENT_KINDS[:14]

#: the kinds as one hashed lookup for :meth:`RecoveryLog.record`
_KINDS = frozenset(EVENT_KINDS)


class RecoveryLog:
    """Append-only list of supervision and job-lifecycle events.

    Each event is a dict with at least ``{"event": kind}``; extra fields
    depend on the kind.  ``clock`` fields are simulated time, never wall
    time, so supervision logs are reproducible bit-for-bit (serving
    events carry no clocks at all for the same reason).
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.record(event, fields)

    def record(self, event: str, fields: dict[str, Any],
               seq: int | None = None) -> dict[str, Any]:
        """Append and return the one record of an event: ``event``, then
        ``seq`` when given (the serving bus numbers its events), then
        ``fields`` in their order.  Every emitter builds its records
        here, so an event costs one dict."""
        if event not in _KINDS:
            raise ValueError(f"unknown recovery event kind {event!r}")
        record = ({"event": event, **fields} if seq is None
                  else {"event": event, "seq": seq, **fields})
        self.events.append(record)
        return record

    def kinds(self) -> tuple[str, ...]:
        """The event-kind sequence (handy for assertions and tests)."""
        return tuple(e["event"] for e in self.events)

    def of_kind(self, event: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["event"] == event]

    def to_json(self, indent: int | None = 2) -> str:
        # list(): the serving bus keeps a bounded deque in ``events``
        return json.dumps({"version": RECOVERYLOG_JSON_VERSION,
                           "events": list(self.events)},
                          indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RecoveryLog":
        """Parse a serialized log; reads both v1 and v2 documents.

        v1 logs (written before the serving runtime existed) carry only
        the supervision vocabulary; they load unchanged — the v2 kinds
        are a strict superset.  Unknown versions and unknown kinds are
        rejected loudly, never skipped.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict) or "events" not in doc:
            raise ValueError("not a RecoveryLog document (no 'events')")
        version = int(doc.get("version", 1))
        if version not in (1, RECOVERYLOG_JSON_VERSION):
            raise ValueError(f"unsupported RecoveryLog version {version}")
        allowed = _V1_KINDS if version == 1 else EVENT_KINDS
        log = cls()
        for record in doc["events"]:
            kind = record.get("event")
            if kind not in allowed:
                raise ValueError(
                    f"unknown v{version} recovery event kind {kind!r}")
            log.events.append(dict(record))
        return log

    def write(self, path) -> None:
        """Write the JSON document to ``path`` (str or Path)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def read(cls, path) -> "RecoveryLog":
        """Load a log written by :meth:`write` (v1 or v2)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def describe(self) -> str:
        """Human-oriented one-line-per-event rendering for demos/CLI."""
        lines = []
        for e in self.events:
            extra = ", ".join(f"{k}={v}" for k, v in e.items()
                              if k not in ("event", "stage"))
            stage = e.get("stage")
            head = f"[stage {stage}] " if stage is not None else ""
            lines.append(f"  {head}{e['event']}" + (f": {extra}" if extra else ""))
        return "\n".join(lines) if lines else "  (no events)"
