"""Deadline accounting and the crash-retry ladder.

The serving failure taxonomy splits three ways and each arm is handled
differently:

* **deterministic failure** — the job's own program raised.  Retrying
  reproduces it; the job fails immediately
  (:class:`~repro.serving.job.JobFailedError`).
* **worker incident** — the executing processes crashed or hung
  (:class:`~repro.parallel.errors.ProcessIncidentError`).  Incidents are
  environmental and usually transient, so the job is retried after a
  capped exponential backoff — until :attr:`RetryPolicy.quarantine_after`
  incidents prove the *job itself* is the trigger, at which point it is
  quarantined as poison (:class:`~repro.serving.job.PoisonJobError`).
* **deadline miss** — the job's wall-clock budget (counted from
  ``submit``, spanning queueing, attempts, and backoffs) ran out.  Typed
  failure, no retry: there is no budget left to retry into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.serving.job import Job

__all__ = ["RetryPolicy", "remaining_budget"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the incident-retry ladder.

    ``quarantine_after`` — worker incidents a single job may cause
    before it is quarantined as poison (the manager's ``crashes``
    :class:`~repro.recovery.health.Strikes`).  The wait before the retry
    after crash ``n`` is :func:`~repro.recovery.health.backoff` of
    ``backoff_base`` and ``backoff_cap``, slept on the wall clock, so a
    flapping substrate is not hammered, but a one-off kill retries almost
    immediately.
    """

    quarantine_after: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0


def remaining_budget(job: Job, now: float | None = None) -> float | None:
    """Seconds left on ``job``'s deadline (``None`` = unbounded).

    Negative means the deadline already passed — callers fail the job
    typed rather than starting an attempt that cannot finish in time.
    """
    if job.deadline_at is None:
        return None
    return job.deadline_at - (time.monotonic() if now is None else now)
