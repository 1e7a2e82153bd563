"""Jobs, handles, and the typed error vocabulary of the serving runtime.

Every way a job can fail to produce values has a dedicated exception
type, because the serving contract is the same as the fault
interpreter's: **a typed error or a completion, never a hang and never a
silent drop**.  Admission raises (:class:`QueueFullError`,
:class:`TenantQuotaError`, :class:`ManagerClosedError`) synchronously at
``submit``; execution failures (:class:`DeadlineExceededError`,
:class:`PoisonJobError`, :class:`JobFailedError`) are delivered through
the :class:`JobHandle` and re-raised by :meth:`JobHandle.result`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.cost import MachineParams
from repro.core.stages import Program
from repro.machine.engine import SimResult

__all__ = [
    "ServingError", "ManagerClosedError", "QueueFullError",
    "TenantQuotaError", "DeadlineExceededError", "PoisonJobError",
    "JobFailedError", "Job", "JobHandle",
    "PENDING", "RUNNING", "DONE", "FAILED",
]

#: job lifecycle states, exposed on :attr:`JobHandle.state`
PENDING, RUNNING, DONE, FAILED = "pending", "running", "done", "failed"


class ServingError(Exception):
    """Base of every typed serving failure."""


class ManagerClosedError(ServingError):
    """Submitted to a manager that is draining or already closed."""


class QueueFullError(ServingError):
    """Admission refused: the bounded job queue is at capacity.

    Backpressure is *typed and synchronous* — the caller learns at
    ``submit`` time that the system is saturated (and how saturated),
    instead of the job being buffered unboundedly or dropped silently.
    """

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = depth
        self.capacity = capacity
        super().__init__(
            f"job queue full ({depth}/{capacity} pending); "
            f"retry after drain or raise ServingConfig.queue_capacity")


class TenantQuotaError(ServingError):
    """Admission refused: this tenant is at its in-flight job quota."""

    def __init__(self, tenant: str, inflight: int, quota: int) -> None:
        self.tenant = tenant
        self.inflight = inflight
        self.quota = quota
        super().__init__(
            f"tenant {tenant!r} at quota ({inflight}/{quota} jobs "
            f"in flight); other tenants are unaffected")


class DeadlineExceededError(ServingError):
    """The job's wall-clock deadline passed before it produced values.

    Raised whether the deadline expired in the queue, mid-attempt (the
    process substrate kills the attempt's children at the deadline), or
    between retries — the budget covers the job's whole life from
    ``submit``, not each attempt.
    """

    def __init__(self, job_id: str, budget: float, detail: str = "") -> None:
        self.job_id = job_id
        self.budget = budget
        self.detail = detail
        msg = f"job {job_id} missed its {budget:.3f}s deadline"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PoisonJobError(ServingError):
    """The job crashed its worker too many times and was quarantined.

    A job that repeatedly SIGKILLs/OOMs/hangs the processes executing it
    would otherwise burn retry capacity forever; after
    ``RetryPolicy.quarantine_after`` worker incidents it is pulled out
    of circulation with its forensics (one incident description per
    crash) attached, and a ``quarantine`` event is logged.
    """

    def __init__(self, job_id: str, crashes: int,
                 forensics: Sequence[str] = ()) -> None:
        self.job_id = job_id
        self.crashes = crashes
        self.forensics = tuple(forensics)
        msg = (f"job {job_id} quarantined after crashing its worker "
               f"{crashes} time(s)")
        if self.forensics:
            msg += "\n  " + "\n  ".join(self.forensics)
        super().__init__(msg)


class JobFailedError(ServingError):
    """The job's own program raised — a deterministic failure, not retried.

    The original exception is chained as ``__cause__``; retrying a
    deterministic failure would reproduce it, so the job fails on the
    first attempt and the worker moves on.
    """

    def __init__(self, job_id: str, cause: BaseException) -> None:
        self.job_id = job_id
        super().__init__(f"job {job_id} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.__cause__ = cause


_JOB_IDS = itertools.count(1)


class JobHandle:
    """The caller's view of a submitted job: state, result, error.

    :meth:`result` blocks (optionally bounded) until the job reaches a
    terminal state, then returns the per-rank value tuple or re-raises
    the typed failure.  :attr:`sim` is then the job's
    :class:`~repro.machine.engine.SimResult` — the model's verdict:
    ``time``, ``stats.clocks`` / ``messages`` / ``words`` — or ``None``
    for a failed job and on the process substrate, whose runner returns
    values only.  Handles are thread-safe; one handle may be awaited
    from many threads.

    A waiter takes and hands back one bare lock, held from birth until
    the job's single terminal transition, so any number of them pass.
    """

    def __init__(self, job_id: str, tenant: str) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.state = PENDING
        self.error: BaseException | None = None
        self.sim: SimResult | None = None
        self._values: tuple | None = None
        self._settled = threading.Lock()
        self._settled.acquire()

    def done(self) -> bool:
        return self.state in (DONE, FAILED)

    def result(self, timeout: float | None = None) -> tuple:
        if not self.done():
            if not self._settled.acquire(
                    timeout=-1 if timeout is None else max(timeout, 0.0)):
                raise TimeoutError(
                    f"job {self.job_id} not done within {timeout}s")
            self._settled.release()
        if self.error is not None:
            raise self.error
        assert self._values is not None
        return self._values

    # -- fulfilment (manager/worker side) ------------------------------------

    def _fulfill(self, values: tuple, sim: SimResult | None = None) -> None:
        self._settle(DONE, values=values, sim=sim)

    def _fail(self, error: BaseException) -> None:
        self._settle(FAILED, error=error)

    def _settle(self, state: str, values=None, sim=None, error=None) -> None:
        """The one terminal transition; a second is an accounting bug."""
        if self.state is not PENDING:
            raise AssertionError(
                f"job {self.job_id} settled twice ({self.state}, then {state})")
        self._values, self.sim, self.error = values, sim, error
        self.state = state
        self._settled.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"JobHandle({self.job_id!r}, tenant={self.tenant!r}, "
                f"state={self.state!r})")


@dataclass
class Job:
    """One unit of serving work: a program, its inputs, and its machine.

    ``deadline_at`` is an absolute ``time.monotonic()`` instant (``None``
    = no deadline).  ``forensics`` accumulates one line per crashed
    attempt (the manager's ``crashes`` strikes count them); ``no_batch``
    marks a job that must run in its own fork generation (set after a
    batch incident, so the poison job among the batch-mates identifies
    itself).
    """

    job_id: str
    tenant: str
    program: Program
    inputs: tuple
    params: MachineParams
    handle: JobHandle
    deadline_at: float | None = None
    budget: float | None = None
    attempts: int = 0
    no_batch: bool = False
    forensics: list[str] = field(default_factory=list)

    @property
    def p(self) -> int:
        return len(self.inputs)

    def batch_key(self) -> tuple:
        """Jobs sharing this key may run in one fork generation."""
        return (self.p, self.params)

    @classmethod
    def create(cls, program: Program, inputs: Sequence[Any],
               params: MachineParams, tenant: str,
               deadline_at: float | None = None,
               budget: float | None = None) -> "Job":
        job_id = f"job-{next(_JOB_IDS)}"
        return cls(job_id=job_id, tenant=tenant, program=program,
                   inputs=tuple(inputs), params=params,
                   handle=JobHandle(job_id, tenant),
                   deadline_at=deadline_at, budget=budget)
