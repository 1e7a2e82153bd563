"""The serving manager: admission, dispatch, degradation, shutdown.

:class:`ServingManager` is the front door of the multi-tenant runtime.
``submit`` performs admission control synchronously — manager open,
tenant under quota, queue under capacity, each violation a typed error —
then parks the job on the fair queue and returns a
:class:`~repro.serving.job.JobHandle`.  A pool of worker threads
(:class:`~repro.serving.worker.WorkerPool`) drains the queue through the
batching process runner or the in-process engines, running the
deadline/retry/quarantine ladder per job.

A job whose answer is already resident is not queued.  On the
``cooperative`` rung, exact inputs whose (program, machine, definedness)
schedule :func:`~repro.machine.run.resident_schedule` finds are answered
on the submitting thread, through the workers' own
:meth:`~repro.serving.worker.WorkerPool.run_single`: the same events,
quota, deadline and abort checks, with ``start``'s ``worker`` naming
that thread and ``admit``'s ``depth`` 0.  ``submit`` then returns a
settled handle.  Anything else queues; the worker's miss admits the
schedule, so the next repeat is answered inline.

The substrate is a rung of the engines' one
:class:`~repro.parallel.backend.Ladder` (``process → threaded →
cooperative``), guarded the way ``RecoveryPolicy.process_fallback_after``
guards a supervised run: ``demote_after`` *consecutive* worker incidents
(a :class:`~repro.recovery.health.Strikes` streak), a platform that
cannot fork, or a ``/dev/shm`` that refuses an arena drop it one rung —
loudly (a ``fallback`` event plus a warning log), never silently, and
never the reverse direction mid-stream (flapping between substrates
would make incident attribution meaningless).  Results are
engine-independent by the conformance contract, so degradation trades
wall-clock for stability, never correctness.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams
from repro.core.stages import Program
from repro.machine.engine import SimResult
from repro.machine.run import resident_schedule
from repro.obs import TRACER
from repro.parallel.backend import SUBSTRATES, Ladder, ProcessJobRunner
from repro.recovery.health import Strikes
from repro.serving.deadline import RetryPolicy
from repro.serving.events import ADMIT, COMPLETE, SUBMIT, EventBus
from repro.serving.job import (
    DeadlineExceededError,
    Job,
    JobFailedError,
    JobHandle,
    ManagerClosedError,
    PoisonJobError,
    QueueFullError,
    TenantQuotaError,
)
from repro.serving.queue import FairQueue
from repro.serving.quota import TenantQuotas

__all__ = ["ServingConfig", "ServingManager", "SUBSTRATES"]

#: job counter -> the ``(kind, status)`` of the events it counts
COUNTED = {
    "submitted": ("admit", None),
    "completed": ("complete", "ok"),
    "failed": ("complete", "failed"),
    "rejected": ("reject", None),
    "quarantined": ("quarantine", None),
    "deadline_misses": ("deadline_miss", None),
    "retries": ("retry", None),
}


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of a :class:`ServingManager`.

    ``substrate`` is the *initial* rung of the degradation ladder;
    ``demote_after`` consecutive worker incidents drop one rung.
    ``queue_capacity`` bounds total queued jobs (typed backpressure);
    ``tenant_quota`` bounds one tenant's in-flight jobs (``None`` =
    unlimited; ``tenant_limits`` overrides per tenant).
    ``default_deadline`` (seconds) applies to jobs submitted without an
    explicit one.  ``batch_max`` caps how many same-shape jobs share one
    fork generation on the process substrate.  ``spawn_hook`` is the
    chaos harness's seam — called with every attempt's child processes.
    """

    workers: int = 2
    queue_capacity: int = 256
    tenant_quota: int | None = None
    tenant_limits: dict[str, int] | None = None
    default_deadline: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    substrate: str = "cooperative"
    batch_max: int = 16
    demote_after: int = 3
    hb_timeout: float | None = None
    spawn_hook: Callable[[list, dict], None] | None = None

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ValueError(f"unknown substrate {self.substrate!r} "
                             f"(expected one of {SUBSTRATES})")
        for knob in ("workers", "queue_capacity", "batch_max",
                     "demote_after"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be at least 1")


class ServingManager:
    """Accepts a stream of jobs and serves them to completion.

    Usable as a context manager (``close(drain=True)`` on exit).  All
    public methods are thread-safe; many client threads may ``submit``
    concurrently.
    """

    def __init__(self, config: ServingConfig | None = None) -> None:
        from repro.serving.worker import WorkerPool

        self.config = config or ServingConfig()
        self.events = EventBus()
        self.queue = FairQueue(self.config.queue_capacity)
        self.quotas = TenantQuotas(self.config.tenant_quota,
                                   self.config.tenant_limits)
        self.ladder = Ladder(self.config.substrate, self.events,
                             scope="serving")
        #: consecutive worker incidents (under ``_lock``), and each job's
        #: crashes (a job is struck only by the one worker running it)
        self.streak = Strikes(self.config.demote_after)
        self.crashes = Strikes(self.config.retry.quarantine_after)
        self.runner = ProcessJobRunner(self.ladder,
                                       hb_timeout=self.config.hb_timeout,
                                       spawn_hook=self.config.spawn_hook)
        self._lock = threading.Lock()
        self._closed = False
        self._abort = threading.Event()
        #: resident-schedule outcomes but "miss", the counts with no
        #: event: thread ident -> its counts, one writer each (as the
        #: bus's tally)
        self._schedules = defaultdict(partial(defaultdict, int))
        self.workers = WorkerPool(self, self.config.workers)
        self.workers.start()

    # -- admission -----------------------------------------------------------

    def submit(self, program: Program, inputs: Sequence[Any],
               params: MachineParams, tenant: str = "default",
               deadline: float | None = None) -> JobHandle:
        """Admit one job or raise a typed admission error.

        ``deadline`` is a wall-clock budget in seconds covering the
        job's whole life (queueing, every attempt, every backoff).
        Raises :class:`ManagerClosedError`, :class:`TenantQuotaError` or
        :class:`QueueFullError`; on success the returned handle resolves
        to the per-rank value tuple (or a typed execution failure), and a
        resident hit's handle is settled before ``submit`` returns.
        """
        if TRACER.enabled:
            with TRACER.span("serving.submit") as traced:
                return self._submit(program, inputs, params, tenant,
                                    deadline, traced)
        return self._submit(program, inputs, params, tenant, deadline, None)

    def _submit(self, program: Program, inputs: Sequence[Any],
                params: MachineParams, tenant: str, deadline: float | None,
                traced: Any) -> JobHandle:
        """The body of :meth:`submit`; ``traced`` is its span, if any."""
        # unlocked: a queued job's guard is ``queue.push``; a job
        # answered inline past this check was admitted before close()
        if self._closed:
            raise ManagerClosedError(
                "manager is closed; no further jobs are accepted")
        budget = deadline if deadline is not None \
            else self.config.default_deadline
        deadline_at = (time.monotonic() + budget) \
            if budget is not None else None
        job = Job.create(program, inputs, params, tenant,
                         deadline_at=deadline_at, budget=budget)
        if traced is not None:  # first: the spans under it take its request
            traced.request = job.job_id
        self.events.mark(SUBMIT, job.life)
        try:
            self.quotas.admit(tenant)
        except TenantQuotaError:
            self.events.emit("reject", job=job.job_id, tenant=tenant,
                             reason="tenant_quota")
            raise
        # ``substrate_for(job)`` without its platform gate, which
        # only the process rung takes and a worker's pop should log
        if self.ladder.rung == "cooperative":
            lookup = resident_schedule(program, job.inputs, params)
            if lookup[1] is not None:  # the resident entry
                self.events.mark(ADMIT, job.life, 0)
                self.workers.run_single(
                    job, threading.current_thread().name, "cooperative",
                    lookup)
                return job.handle
        try:
            depth = self.queue.push(job)
        except (QueueFullError, ManagerClosedError) as exc:
            # closed: another thread ran close() after the check above
            reason = ("queue_full" if isinstance(exc, QueueFullError)
                      else "closed")
            self.quotas.release(tenant)
            self.events.emit("reject", job=job.job_id, tenant=tenant,
                             reason=reason)
            raise
        self.events.mark(ADMIT, job.life, depth)
        return job.handle

    # -- worker-side callbacks ----------------------------------------------

    def substrate_for(self, job: Job) -> str:
        """The current rung, after the platform gate for process jobs."""
        return self.ladder.gate(job.p)

    def record_incident(self, substrate: str, exc: BaseException) -> None:
        """A worker incident on ``substrate``; ``demote_after`` of them in
        a row step the ladder down from it."""
        with self._lock:
            if not self.streak.hit():
                return
            self.streak.clear()
        self.ladder.demote(
            substrate, f"{type(exc).__name__}: {str(exc).splitlines()[0]}")

    def record_success(self) -> None:
        if self.streak.counts:  # a streak to break: the hot path locks nothing
            with self._lock:
                self.streak.clear()

    def record_schedule(self, outcome: str) -> None:
        """Count one :func:`~repro.machine.run.resident_run` outcome: a
        hit, or the reason the engine ran without admitting a schedule
        (a ``"miss"`` is neither: completed - hits - bypasses)."""
        if outcome != "miss":
            self._schedules[threading.get_ident()][outcome] += 1

    def complete_job(self, job: Job, values: tuple,
                     sim: SimResult | Callable[[], SimResult] | None = None
                     ) -> None:
        self.events.mark(COMPLETE, job.life, "ok", job.attempts)
        self._release(job)
        job.handle._fulfill(values, sim)

    def fail_job(self, job: Job, error: BaseException) -> None:
        self.events.emit("complete", job=job.job_id, tenant=job.tenant,
                         status="failed", error=type(error).__name__,
                         attempts=job.attempts)
        self._release(job)
        job.handle._fail(error)

    def _release(self, job: Job) -> None:
        self.quotas.release(job.tenant)
        self.crashes.clear(job.job_id)

    def fail_deterministic(self, job: Job, cause: BaseException) -> None:
        self.fail_job(job, JobFailedError(job.job_id, cause))

    def deadline_miss(self, job: Job, detail: str = "") -> None:
        self.events.emit("deadline_miss", job=job.job_id, tenant=job.tenant,
                         budget=job.budget, attempts=job.attempts)
        self.fail_job(job, DeadlineExceededError(
            job.job_id, job.budget or 0.0, detail))

    def quarantine_job(self, job: Job) -> None:
        crashes = self.crashes.counts[job.job_id]
        self.events.emit("quarantine", job=job.job_id, tenant=job.tenant,
                         crashes=crashes, forensics=list(job.forensics))
        self.fail_job(job, PoisonJobError(job.job_id, crashes, job.forensics))

    def aborting(self) -> bool:
        return self._abort.is_set()

    # -- shutdown ------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting jobs and wind the pool down.

        ``drain=True`` lets queued and in-flight jobs finish (their
        retries included); ``drain=False`` aborts — queued jobs fail
        with :class:`ManagerClosedError` and in-flight retry ladders cut
        straight to the same error.  Idempotent.  Returns ``True`` when
        every worker exited within ``timeout``.
        """
        with self._lock:
            already = self._closed
            # the closed queue refuses any later push (a submit past the
            # flag included) and lets idle workers' pop return None
            self.queue.close()
            self._closed = True
        if not already and not drain:
            self._abort.set()
            for job in self.queue.drain():
                self.fail_job(job, ManagerClosedError(
                    f"job {job.job_id} cancelled: manager closed "
                    f"without drain"))
        return self.workers.join(timeout)

    def __enter__(self) -> "ServingManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=exc == (None, None, None))

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Counters + live state, the ``serve`` CLI / bench payload."""
        tally = self.events.tally()
        bypasses: Counter = Counter()
        for shard in list(self._schedules.values()):
            bypasses.update(dict(shard))  # a copy: its thread may add a key
        return {
            **{name: tally[kind] for name, kind in COUNTED.items()},
            "resident_hits": bypasses.pop("hit", 0),
            "resident_bypasses": dict(sorted(bypasses.items())),
            "queue_depth": len(self.queue),
            "inflight": self.quotas.snapshot(),
            "substrate": self.ladder.rung,
            "demotions": self.ladder.demotions,
            "events": len(self.events),
        }

    def describe(self) -> str:
        s = self.stats()
        return (f"serving: {s['completed']}/{s['submitted']} jobs done, "
                f"{s['failed']} failed, {s['rejected']} rejected, "
                f"{s['quarantined']} quarantined, "
                f"{s['deadline_misses']} deadline misses, "
                f"{s['retries']} retries\n"
                f"  substrate={s['substrate']} (demotions={s['demotions']}) "
                f"queue_depth={s['queue_depth']}\n"
                f"  resident schedules: hits={s['resident_hits']} "
                f"bypasses={s['resident_bypasses']}")
