"""Bounded multi-tenant job queue with round-robin fairness.

One FIFO per tenant, one global capacity.  ``pop`` serves tenants in
round-robin order, so a tenant flooding the queue delays only itself: a
two-job tenant behind a two-hundred-job tenant waits two rotations, not
two hundred positions.  Capacity is enforced at ``push`` with a typed
:class:`~repro.serving.job.QueueFullError` — the queue never buffers
past its bound and never drops silently.

The queue is the single rendezvous between the submitting threads and
the worker pool, so everything happens under one condition variable;
``pop`` blocks (bounded) until work arrives or the queue is closed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Callable, Iterator

from repro.serving.job import Job, ManagerClosedError, QueueFullError

__all__ = ["FairQueue"]


class FairQueue:
    """Round-robin-fair bounded queue of :class:`Job` entries."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._cond = threading.Condition()
        # tenant -> FIFO of jobs; OrderedDict so rotation order is stable
        self._fifos: "OrderedDict[str, deque[Job]]" = OrderedDict()
        self._depth = 0
        self._closed = False

    # -- producer side -------------------------------------------------------

    def push(self, job: Job) -> int:
        """Enqueue ``job`` and return the new depth, or raise a typed
        :class:`QueueFullError` (never blocking: admission decides *now*,
        the caller whether to retry later).  A closed queue raises
        :class:`ManagerClosedError`: the workers may already have seen
        "closed and empty" and gone, so a job parked now would never run.
        """
        with self._cond:
            if self._closed:
                raise ManagerClosedError(
                    "queue is closed; no further jobs are accepted")
            if self._depth >= self.capacity:
                raise QueueFullError(self._depth, self.capacity)
            self._fifos.setdefault(job.tenant, deque()).append(job)
            self._depth += 1
            self._cond.notify()
            return self._depth

    def requeue(self, job: Job) -> None:
        """Put a retried job back at the *front* of its tenant's FIFO.

        Retries bypass the capacity check — the job was already admitted
        and counted; bouncing it now would turn a worker crash into a
        silent drop.
        """
        with self._cond:
            self._fifos.setdefault(job.tenant, deque()).appendleft(job)
            self._depth += 1
            self._cond.notify()

    # -- consumer side -------------------------------------------------------

    def _next_tenant(self) -> str | None:
        for tenant, fifo in self._fifos.items():
            if fifo:
                return tenant
        return None

    def pop(self, timeout: float | None = None) -> Job | None:
        """Dequeue the next job in round-robin tenant order.

        Returns ``None`` on timeout or when the queue is closed and
        empty.  After serving a tenant, that tenant rotates to the back,
        which is the entire fairness mechanism.
        """
        with self._cond:
            deadline_wait = timeout
            while True:
                tenant = self._next_tenant()
                if tenant is not None:
                    job = self._fifos[tenant].popleft()
                    self._fifos.move_to_end(tenant)
                    self._depth -= 1
                    return job
                if self._closed:
                    return None
                if not self._cond.wait(timeout=deadline_wait):
                    return None

    def pop_batch(self, first: Job, limit: int,
                  compatible: Callable[[Job], bool] | None = None) -> list[Job]:
        """Greedily extend ``first`` with queued batch-mates.

        Takes up to ``limit - 1`` more jobs from the *same tenant's* FIFO
        head that share ``first.batch_key()`` (and pass ``compatible``),
        so one fork generation executes them all.  Batches never cross
        tenants: a batch dies as a unit when a worker is killed, and
        keeping it single-tenant keeps that blast radius inside the
        tenant that owns the poison job.
        """
        batch = [first]
        if first.no_batch or limit <= 1:
            return batch
        key = first.batch_key()
        with self._cond:
            fifo = self._fifos.get(first.tenant)
            while (fifo and len(batch) < limit
                   and not fifo[0].no_batch
                   and fifo[0].batch_key() == key
                   and (compatible is None or compatible(fifo[0]))):
                batch.append(fifo.popleft())
                self._depth -= 1
        return batch

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Wake every blocked ``pop``; the queue drains (retries may
        still ``requeue``) but every later ``push`` raises."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> Iterator[Job]:
        """Remove and yield every queued job (shutdown-without-drain)."""
        with self._cond:
            jobs = [job for fifo in self._fifos.values() for job in fifo]
            self._fifos.clear()
            self._depth = 0
        yield from jobs

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return self._depth
