"""The serving worker pool: dispatch, batching, and the retry ladder.

Each worker is one daemon thread looping pop → execute → fulfil.  On the
``"process"`` substrate a worker greedily extends its job into a batch of
same-tenant, same-``(p, params)`` batch-mates and runs them in **one fork
generation** through the shared :class:`~repro.parallel.backend.\
ProcessJobRunner`; on ``"threaded"`` it executes jobs singly through
:func:`~repro.machine.run.simulate_program`, and on ``"cooperative"``
through :func:`~repro.machine.run.resident_run` with the planned
program's reference semantics as the evaluator — a repeated (program,
machine, definedness) answers from its resident schedule, and every
outcome lands in the manager's ``resident_hits`` / ``resident_bypasses``.
Either way the job's handle carries the ``SimResult``.

Failure handling is the three-armed ladder of :mod:`repro.serving.\
deadline`, with one batching wrinkle: when a *batch* attempt dies (an
incident or one job's deterministic failure aborts the shared fork
generation), the whole batch is requeued for **individual** execution
(``no_batch``) without charging anyone's crash counter — the solo
re-runs are what attribute the failure to the one poison job and let its
batch-mates complete bit-identically.  A process attempt that gets no
shared arena has stepped the substrate ladder down; its jobs go back to
the queue for the rung below, charging nobody.
"""

from __future__ import annotations

import threading
import time

from repro.machine.run import resident_run, simulate_program
from repro.parallel.errors import ProcessIncidentError, WorkerDeadlineError
from repro.recovery.health import backoff
from repro.serving.deadline import remaining_budget
from repro.serving.job import Job, ManagerClosedError

__all__ = ["WorkerPool"]


class WorkerPool:
    """``n`` daemon worker threads bound to one serving manager."""

    def __init__(self, manager, n: int) -> None:
        self.manager = manager
        self.threads = [
            threading.Thread(target=self._loop, args=(i,),
                             name=f"serving-worker-{i}", daemon=True)
            for i in range(max(1, n))
        ]

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for every worker to exit; ``False`` if any is still alive."""
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        for t in self.threads:
            left = None if deadline is None else max(0.0,
                                                     deadline - time.monotonic())
            t.join(left)
        return not any(t.is_alive() for t in self.threads)

    # -- the worker body -----------------------------------------------------

    def _loop(self, worker_id: int) -> None:
        mgr = self.manager
        while (job := mgr.queue.pop()) is not None:  # None: closed and empty
            if mgr.aborting():
                mgr.fail_job(job, ManagerClosedError(
                    f"job {job.job_id} cancelled: manager aborted"))
                continue
            substrate = mgr.substrate_for(job)
            if substrate == "process" and mgr.config.batch_max > 1:
                batch = mgr.queue.pop_batch(job, mgr.config.batch_max)
            else:
                batch = [job]
            if len(batch) > 1:
                self._run_batch(batch, worker_id)
            else:
                self._run_single(job, worker_id, substrate)

    # -- batched process execution -------------------------------------------

    def _run_batch(self, batch: list[Job], worker_id: int) -> None:
        mgr = self.manager
        live: list[Job] = []
        for job in batch:
            budget = remaining_budget(job)
            if budget is not None and budget <= 0:
                mgr.deadline_miss(job, detail="expired while queued")
            else:
                live.append(job)
        if not live:
            return
        if len(live) == 1:
            return self._run_single(live[0], worker_id, "process")
        deadlines = [j.deadline_at for j in live if j.deadline_at is not None]
        deadline_at = min(deadlines) if deadlines else None
        for job in live:
            job.attempts += 1
            mgr.events.emit("start", job=job.job_id, tenant=job.tenant,
                            worker=worker_id, substrate="process",
                            attempt=job.attempts, batch=len(live))
        try:
            results = mgr.runner.run_jobs(
                [(j.program, j.inputs) for j in live], live[0].params,
                deadline=deadline_at,
                meta={"jobs": [j.job_id for j in live],
                      "tenant": live[0].tenant})
        except BaseException as exc:
            # incident, deadline, or one job's deterministic failure: the
            # shared fork generation is gone either way.  Re-run solo so
            # blame lands on the one job that deserves it; batch failures
            # charge no crash counters.
            if isinstance(exc, ProcessIncidentError):
                mgr.record_incident("process", exc)
            for job in live:
                job.no_batch = True
                mgr.events.emit("retry", job=job.job_id, tenant=job.tenant,
                                scope="batch", reason=type(exc).__name__)
                mgr.queue.requeue(job)
            return
        if results is None:  # no arena: the ladder stepped down
            for job in live:
                mgr.queue.requeue(job)
            return
        mgr.record_success()
        for job, values in zip(live, results):
            mgr.complete_job(job, values)

    # -- single-job execution (the retry ladder) -----------------------------

    def _run_single(self, job: Job, worker_id: int, substrate: str) -> None:
        mgr = self.manager
        policy = mgr.config.retry
        while True:
            if mgr.aborting():
                return mgr.fail_job(job, ManagerClosedError(
                    f"job {job.job_id} cancelled: manager aborted"))
            budget = remaining_budget(job)
            if budget is not None and budget <= 0:
                return mgr.deadline_miss(job)
            job.attempts += 1
            mgr.events.emit("start", job=job.job_id, tenant=job.tenant,
                            worker=worker_id, substrate=substrate,
                            attempt=job.attempts)
            sim = None
            try:
                if substrate == "process":
                    done = mgr.runner.run_jobs(
                        [(job.program, job.inputs)], job.params,
                        deadline=job.deadline_at,
                        meta={"jobs": [job.job_id], "tenant": job.tenant})
                    if done is None:  # no arena: the ladder stepped down
                        return mgr.queue.requeue(job)
                    values = done[0]
                elif substrate == "cooperative":
                    sim, outcome = resident_run(
                        job.program, job.inputs, job.params,
                        lambda: job.program.run(job.inputs))
                    mgr.record_schedule(outcome)
                    values = sim.values
                else:
                    sim = simulate_program(job.program, list(job.inputs),
                                           job.params, engine=substrate)
                    values = tuple(sim.values)
            except WorkerDeadlineError as exc:
                return mgr.deadline_miss(job, detail=str(exc).splitlines()[0])
            except ProcessIncidentError as exc:
                mgr.record_incident(substrate, exc)
                job.forensics.append(
                    f"attempt {job.attempts}: {type(exc).__name__}: "
                    + str(exc).splitlines()[0])
                if mgr.crashes.hit(job.job_id):
                    return mgr.quarantine_job(job)
                crashes = mgr.crashes.counts[job.job_id]
                wait = backoff(crashes, policy.backoff_base,
                               policy.backoff_cap)
                budget = remaining_budget(job)
                if budget is not None and budget <= wait:
                    return mgr.deadline_miss(
                        job, detail="budget exhausted by retry backoff")
                mgr.events.emit("retry", job=job.job_id, tenant=job.tenant,
                                crashes=crashes, backoff=round(wait, 4))
                time.sleep(wait)
                substrate = mgr.substrate_for(job)  # the ladder may have moved
                continue
            except Exception as exc:
                return mgr.fail_deterministic(job, exc)
            else:
                mgr.record_success()
                return mgr.complete_job(job, values, sim)
