"""Multi-tenant job-service runtime over the collective-operation engines.

The optimizer made plans cheap (:mod:`repro.core.plancache`), the JIT
made execution cheap (:mod:`repro.jit`), and recovery made single runs
survivable (:mod:`repro.recovery`).  This package makes the whole thing
*servable*: a :class:`ServingManager` accepts a concurrent stream of
``(program, machine, inputs, tenant, deadline)`` jobs and runs them on a
persistent worker pool with

* **admission control** — a bounded fair queue and per-tenant quotas,
  every refusal a typed error (:class:`QueueFullError`,
  :class:`TenantQuotaError`), never a silent drop;
* **amortized process execution** — shared-memory arenas reused across
  jobs (:class:`~repro.parallel.shm.ArenaPool`) and same-shape jobs
  batched into one fork generation
  (:class:`~repro.parallel.backend.ProcessJobRunner`);
* **the full robustness ladder** — per-job wall-clock deadlines enforced
  by killing the attempt, capped-exponential-backoff retries after
  worker incidents, poison-job quarantine with forensics, and the
  engines' one substrate ladder degrading ``process → threaded →
  cooperative`` loudly;
* **the model's verdict in the reply** — a completed handle carries the
  job's ``SimResult`` (simulated time, clocks, messages, words); on the
  cooperative substrate a repeated (program, machine, definedness)
  answers from its resident schedule
  (:func:`repro.machine.run.resident_run`) instead of re-running the
  engine, every outcome counted in ``ServingManager.stats()``;
* **one flight recorder** — every lifecycle event lands in the shared
  :class:`~repro.recovery.events.RecoveryLog` vocabulary (schema v2).

``python -m repro serve demo`` drives a self-contained demonstration.
"""

from repro.serving.deadline import RetryPolicy, remaining_budget
from repro.serving.events import EventBus
from repro.serving.job import (
    DeadlineExceededError,
    Job,
    JobFailedError,
    JobHandle,
    ManagerClosedError,
    PoisonJobError,
    QueueFullError,
    ServingError,
    TenantQuotaError,
)
from repro.serving.manager import SUBSTRATES, ServingConfig, ServingManager
from repro.serving.queue import FairQueue
from repro.serving.quota import TenantQuotas

__all__ = [
    "ServingManager", "ServingConfig", "SUBSTRATES",
    "Job", "JobHandle", "RetryPolicy", "remaining_budget",
    "EventBus", "FairQueue", "TenantQuotas",
    "ServingError", "ManagerClosedError", "QueueFullError",
    "TenantQuotaError", "DeadlineExceededError", "PoisonJobError",
    "JobFailedError",
]
