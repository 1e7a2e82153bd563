"""The served hand-off: what a job costs between ``submit`` and its reply.

A served job crosses from a client thread to a worker and back.  These
tests hold the bookkeeping of that crossing to its contract and to its
cost:

* a :class:`~repro.serving.job.JobHandle` waits on one bare lock, and
  still lets any number of waiters through, times out typed, and settles
  once;
* the manager's job counters are a reading of the event bus, equal to
  the events themselves and to what the counters read before they were;
* idle workers block on the queue and leave the moment it closes;
* a ``Program`` hashes once, and never carries that hash to another
  interpreter;
* the number of lock acquisitions a cooperative job takes is gated —
  the cause, not the clock.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import repro.serving.events
import repro.serving.job
import repro.serving.manager
import repro.serving.queue
import repro.serving.quota
from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import (
    AllGatherStage,
    BcastStage,
    Map2Stage,
    MapStage,
    Program,
    ScanStage,
)
from repro.machine.engine import SimResult, SimStats
from repro.machine.run import clear_resident_schedules
from repro.parallel.errors import WorkerCrashError
from repro.serving import (
    JobHandle,
    ManagerClosedError,
    QueueFullError,
    RetryPolicy,
    ServingConfig,
    ServingManager,
    TenantQuotaError,
)
from repro.serving.job import DONE, FAILED, PENDING
from repro.serving.manager import COUNTED
from repro.serving.worker import WorkerPool

SRC = Path(__file__).resolve().parent.parent / "src"

#: every serving module that creates a lock
LOCKING_MODULES = (repro.serving.events, repro.serving.job,
                   repro.serving.manager, repro.serving.queue,
                   repro.serving.quota)

P = 4
PARAMS = MachineParams(p=P, ts=600.0, tw=2.0, m=1024)
SCAN = Program([ScanStage(ADD)], name="scan")


def _until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


# -- JobHandle -----------------------------------------------------------------

class TestJobHandle:
    def test_eight_waiters_all_receive_the_values(self):
        handle = JobHandle("job-x", "t")
        got, started = [], threading.Barrier(9)

        def wait():
            started.wait()
            got.append(handle.result(timeout=30.0))

        threads = [threading.Thread(target=wait) for _ in range(8)]
        for t in threads:
            t.start()
        started.wait()
        time.sleep(0.01)  # let them block on the lock
        handle._fulfill((1, 2, 3))
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert got == [(1, 2, 3)] * 8

    def test_a_timed_wait_times_out_and_a_later_wait_still_returns(self):
        handle = JobHandle("job-x", "t")
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            handle.result(timeout=-1.0)  # a spent budget: no wait at all
        threading.Timer(0.02, handle._fulfill, args=((7,),)).start()
        assert handle.result() == (7,)
        assert handle.result(timeout=0.0) == (7,)

    def test_error_sim_and_state_read_as_before(self):
        handle = JobHandle("job-ok", "t")
        assert (handle.state, handle.done(), handle.error, handle.sim) == (
            PENDING, False, None, None)
        sim = SimResult((1,), 5.0, SimStats())
        handle._fulfill((1,), sim)
        assert (handle.state, handle.done(), handle.error) == (DONE, True, None)
        assert handle.sim is sim and handle.result() == (1,)

        failed = JobHandle("job-bad", "t")
        error = ValueError("no")
        failed._fail(error)
        assert (failed.state, failed.done(), failed.error, failed.sim) == (
            FAILED, True, error, None)
        with pytest.raises(ValueError) as exc_info:
            failed.result(timeout=1.0)
        assert exc_info.value is error

    @pytest.mark.parametrize("second", ["fulfill", "fail"])
    def test_a_second_terminal_transition_raises(self, second):
        handle = JobHandle("job-x", "t")
        handle._fulfill((1,))
        with pytest.raises(AssertionError, match="settled twice"):
            if second == "fulfill":
                handle._fulfill((2,))
            else:
                handle._fail(ValueError("late"))
        assert handle.result() == (1,) and handle.state == DONE


# -- idle workers ----------------------------------------------------------------

def test_idle_workers_leave_the_moment_the_queue_closes():
    mgr = ServingManager(ServingConfig(workers=2))
    time.sleep(0.05)  # both workers blocked in pop
    start = time.perf_counter()
    assert mgr.close(drain=True, timeout=5.0)
    assert time.perf_counter() - start < 0.1
    assert not any(t.is_alive() for t in mgr.workers.threads)


def test_an_abort_fails_every_queued_job_typed():
    gate = threading.Event()

    def wedge(x):
        gate.wait(10.0)
        return x

    mgr = ServingManager(ServingConfig(workers=2, queue_capacity=16))
    try:
        running = [mgr.submit(Program([MapStage(wedge)]), [1] * P, PARAMS)
                   for _ in range(2)]
        _until(lambda: len(mgr.events.of_kind("start")) == 2)
        queued = [mgr.submit(SCAN, [1] * P, PARAMS) for _ in range(5)]
    finally:
        threading.Timer(0.05, gate.set).start()
        assert mgr.close(drain=False, timeout=30.0)
    for handle in queued:
        with pytest.raises(ManagerClosedError):
            handle.result(timeout=30.0)
    for handle in running:  # in flight when the abort came: finished
        assert handle.result(timeout=30.0) == (1,) * P


# -- counters are a reading of the event bus -------------------------------------

#: what the manager's hand-kept counters read on :func:`_deck` before
#: they became a reading of the bus
PARENT_COUNTS = {
    "submitted": 7, "completed": 4, "failed": 3, "rejected": 2,
    "quarantined": 1, "deadline_misses": 1, "retries": 1,
    "resident_hits": 1, "resident_bypasses": {"inexact-input": 1},
}


def _deck():
    """One single-worker manager through every counted event: a quota
    reject, a queue-full reject, a crash retried then quarantined, a
    deadline miss, a deterministic failure, a resident miss and hit, and
    an inexact-input bypass."""
    clear_resident_schedules()
    gate = threading.Event()

    def wedge(x):
        gate.wait(10.0)
        return x

    def crash(x):
        raise WorkerCrashError(0, -9)

    def boom(x):
        raise ValueError("a bug in the job")

    config = ServingConfig(
        workers=1, queue_capacity=2, tenant_limits={"capped": 1},
        retry=RetryPolicy(quarantine_after=2, backoff_base=0.001,
                          backoff_cap=0.001))
    ints = [1, 2, 3, 4]
    with ServingManager(config) as mgr:
        handles = [mgr.submit(Program([MapStage(wedge)], name="wedge"), ints,
                              PARAMS, tenant="capped")]
        _until(lambda: mgr.events.of_kind("start"))  # the worker holds it
        with pytest.raises(TenantQuotaError):
            mgr.submit(SCAN, ints, PARAMS, tenant="capped")
        handles.append(mgr.submit(Program([MapStage(crash)], name="crash"),
                                  ints, PARAMS, tenant="a"))
        handles.append(mgr.submit(SCAN, ints, PARAMS, tenant="b",
                                  deadline=0.0))
        with pytest.raises(QueueFullError):
            mgr.submit(SCAN, ints, PARAMS, tenant="c")
        gate.set()
        for handle in handles:
            _until(handle.done)
        for program, xs in ((SCAN, ints), (SCAN, [5, 6, 7, 8]),
                            (SCAN, [0.5] * P),
                            (Program([MapStage(boom)], name="boom"), ints)):
            handle = mgr.submit(program, xs, PARAMS, tenant="d")
            _until(handle.done)
        return mgr.stats(), mgr.events


def test_every_counter_is_its_events_tally():
    stats, events = _deck()
    completes = events.of_kind("complete")
    recomputed = {
        "submitted": len(events.of_kind("admit")),
        "completed": sum(e["status"] == "ok" for e in completes),
        "failed": sum(e["status"] == "failed" for e in completes),
        "rejected": len(events.of_kind("reject")),
        "quarantined": len(events.of_kind("quarantine")),
        "deadline_misses": len(events.of_kind("deadline_miss")),
        "retries": len(events.of_kind("retry")),
    }
    assert {name: stats[name] for name in COUNTED} == recomputed
    assert {name: stats[name] for name in PARENT_COUNTS} == PARENT_COUNTS
    assert sorted(e["reason"] for e in events.of_kind("reject")) == [
        "queue_full", "tenant_quota"]


# -- a program hashes once -------------------------------------------------------

#: a program whose every part pickles, built from this text here and in
#: the subprocesses
PICKLABLE = ("Program([BcastStage(), MapStage(abs, label='abs'), "
             "AllGatherStage()], name='bcast;abs;allgather')")


def _picklable() -> Program:
    return eval(PICKLABLE)


class TestProgramHash:
    def test_the_hash_is_kept_and_not_pickled(self):
        program = _picklable()
        value = hash(program)
        assert program.__dict__["_hash"] == value == hash(
            (program.stages, program.name))
        loaded = pickle.loads(pickle.dumps(program))
        assert "_hash" not in loaded.__dict__
        assert loaded == program and hash(loaded) == value

    def test_a_pickle_hashes_like_a_fresh_program_under_another_seed(self):
        """A ``str`` hashes per interpreter: a program pickled under one
        ``PYTHONHASHSEED`` and loaded under another must hash like the
        equal program built there, not like its writer."""
        def run(seed: str, code: str, data: bytes = b"") -> bytes:
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
            return subprocess.run(
                [sys.executable, "-c", code], input=data, env=env,
                capture_output=True, check=True, timeout=120).stdout

        head = "import pickle, sys\nfrom repro.core.stages import *\n"
        data = run("1", head + (
            f"p = {PICKLABLE}\n"
            "sys.stdout.buffer.write(pickle.dumps((hash(p), p)))\n"))
        verdict = run("2", head + (
            "writer, loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = {PICKLABLE}\n"
            "print(loaded == fresh, hash(loaded) == hash(fresh),"
            " hash(fresh) != writer)\n"), data)
        assert verdict.split() == [b"True"] * 3

    def test_copies_and_rebuilds_hash_equal(self):
        program = _picklable()
        value = hash(program)
        for other in (copy.copy(program), dataclasses.replace(program),
                      program.replaced(1, 1, [MapStage(abs, label="abs")]),
                      _picklable()):
            assert other == program and hash(other) == value

    def test_an_unhashable_program_raises_on_every_call(self):
        program = Program([Map2Stage(lambda x, y: x, other=([1], [2]))])
        for _ in range(3):
            with pytest.raises(TypeError):
                hash(program)
        assert "_hash" not in program.__dict__


# -- the lock gate ----------------------------------------------------------------

#: lock acquisitions one cooperative job takes from ``submit`` to its
#: reply on the single-threaded drive below: four events, quota admit and
#: release, queue push and pop, the resident-schedule count and the
#: handle's birth (a live worker thread adds its pop's and the client's
#: blocking waits)
LOCKS_PER_JOB = 10
JOBS = 1_000


class _Counted:
    """A lock that counts its acquisitions in ``tally[0]``."""

    def __init__(self, lock, tally: list[int]) -> None:
        self._lock = lock
        self._tally = tally

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._tally[0] += 1
        return self._lock.acquire(blocking, timeout)

    __enter__ = acquire

    def release(self) -> None:
        self._lock.release()

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def _is_owned(self) -> bool:  # a Condition's ownership probe: uncounted
        if hasattr(self._lock, "_is_owned"):
            return self._lock._is_owned()
        if self._lock.acquire(False):
            self._lock.release()
            return False
        return True


def _counting_threading(tally: list[int]) -> types.SimpleNamespace:
    """``threading`` whose locks, conditions and events count."""
    shim = types.SimpleNamespace(**vars(threading))
    shim.Lock = lambda: _Counted(threading.Lock(), tally)
    shim.RLock = lambda: _Counted(threading.RLock(), tally)
    shim.Condition = lambda lock=None: threading.Condition(
        lock if lock is not None else shim.RLock())

    class Event(threading.Event):
        def __init__(self) -> None:
            super().__init__()
            self._cond = threading.Condition(shim.Lock())

    shim.Event = Event
    return shim


def test_a_served_job_takes_at_most_LOCKS_PER_JOB_lock_acquisitions(
        monkeypatch):
    """1 000 cooperative jobs, submitted, served and read on this one
    thread (the pool's loop runs inside ``close``), every lock the
    serving modules create counting its acquisitions."""
    tally = [0]
    shim = _counting_threading(tally)
    for module in LOCKING_MODULES:
        monkeypatch.setattr(module, "threading", shim)
    monkeypatch.setattr(WorkerPool, "start", lambda self: None)
    monkeypatch.setattr(WorkerPool, "join",
                        lambda self, timeout=None: self._loop(0) or True)
    clear_resident_schedules()
    mgr = ServingManager(ServingConfig(workers=1, queue_capacity=JOBS))
    tally[0] = 0
    handles = [mgr.submit(SCAN, [j, 1, 2, 3], PARAMS, tenant=f"t{j % 4}")
               for j in range(JOBS)]
    assert mgr.close(drain=True)
    values = [handle.result() for handle in handles]
    per_job = tally[0] // JOBS  # close's own few are the remainder
    assert values[-1] == (JOBS - 1, JOBS, JOBS + 2, JOBS + 5)
    assert mgr.stats()["resident_hits"] == JOBS - 1
    assert per_job <= LOCKS_PER_JOB, per_job
