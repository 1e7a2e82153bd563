"""Structured recovery event log.

Every supervision decision — checkpoint, fault, restore, quarantine,
replan, shrink, unrecoverable — is one flat JSON-serializable dict in a
:class:`RecoveryLog`, deterministic for a given ``(program, inputs,
params, plan, policy, engine)``, so logs diff across runs and engines
(schema in ``docs/FAULTS.md``).  Schema v2 adds the serving job
lifecycle to the same stream: an incident's trail (``child_exit`` →
``retry`` → ``respawn`` → ``complete``) reads as one story.  The serving
bus (:mod:`repro.serving.events`) renders a job's lifecycle events when
read, their ``seq`` numbers dense and ordered once its emitters return.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = ["RecoveryLog", "RECOVERYLOG_JSON_VERSION", "check_kind"]

#: schema version :meth:`RecoveryLog.to_json` writes (v1 is still read)
RECOVERYLOG_JSON_VERSION = 2

#: event kinds: supervision, the process engine's incidents, the serving
#: lifecycle (v2); a shared kind's fields tell it apart (``job=`` vs
#: ``stage=``)
EVENT_KINDS = (
    "start", "checkpoint", "fault", "restore", "quarantine",
    "replan", "shrink", "complete", "unrecoverable",
    "heartbeat_miss", "child_exit", "epoch_bump", "respawn", "fallback",
    "submit", "admit", "reject", "retry", "deadline_miss",
)

#: the kinds a v1 document may contain, checked on read
_V1_KINDS = EVENT_KINDS[:14]

#: the kinds as one hashed lookup for :func:`check_kind`
_KINDS = frozenset(EVENT_KINDS)


def check_kind(event: str) -> str:
    """``event``, a kind of the vocabulary; ``ValueError`` for any other."""
    if event not in _KINDS:
        raise ValueError(f"unknown recovery event kind {event!r}")
    return event


class RecoveryLog:
    """Append-only list of supervision and job-lifecycle events: dicts
    of ``{"event": kind}`` and the kind's fields.  ``clock`` fields are
    simulated time, never wall time (serving events carry none), so a
    log is reproducible bit-for-bit."""

    def __init__(self, events: Iterable[dict[str, Any]] = ()) -> None:
        self.events: list[dict[str, Any]] = list(events)

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.record(event, fields)

    def record(self, event: str, fields: dict[str, Any]) -> dict[str, Any]:
        """Append and return an event's one dict: ``event``, ``fields``."""
        record = {"event": check_kind(event), **fields}
        self.events.append(record)
        return record

    def kinds(self) -> tuple[str, ...]:
        """The event-kind sequence (handy for assertions and tests)."""
        return tuple(e["event"] for e in self.events)

    def of_kind(self, event: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["event"] == event]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"version": RECOVERYLOG_JSON_VERSION,
                           "events": self.events},
                          indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RecoveryLog":
        """Parse a v1 (supervision kinds only) or v2 document; unknown
        versions and kinds are rejected loudly, never skipped."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or "events" not in doc:
            raise ValueError("not a RecoveryLog document (no 'events')")
        version = int(doc.get("version", 1))
        if version not in (1, RECOVERYLOG_JSON_VERSION):
            raise ValueError(f"unsupported RecoveryLog version {version}")
        allowed = _V1_KINDS if version == 1 else EVENT_KINDS
        for kind in (record.get("event") for record in doc["events"]):
            if kind not in allowed:
                raise ValueError(
                    f"unknown v{version} recovery event kind {kind!r}")
        return cls(map(dict, doc["events"]))

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
