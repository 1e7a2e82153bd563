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
  the cause, not the clock — queued and answered inline alike;
* a resident hit is answered inside ``submit`` as the worker would
  answer it, fails an expired deadline typed, and races ``close()``
  without a lost or doubled completion;
* so is what a repeated request rebuilds: no stage, no hash, no digit
  traversal of a derived stage, no compiled-program lookup and no
  second read of its inputs for the exact tape;
* and what a resident hit records: no event dict at all — its four
  events are marks on one lifecycle record, rendered when read — and its
  blocks are read in one pass that answers as the per-block loop did;
* and what it builds: its ``SimResult`` only when ``handle.sim`` is
  read, once, and its count on the reading thread's own shard, exact
  under eight threads beside a ``stats()`` reader;
* and the bus's ``seq`` contract: a lifecycle that outlives the retained
  window still renders and counts, and a reader running beside the
  emitters never raises, never sees half an event and never sees
  ``len`` go down.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import threading
import time
import types
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.events
import repro.serving.job
import repro.serving.manager
import repro.serving.queue
import repro.serving.quota
from repro.core.cost import MachineParams
from repro.core.derived_ops import ComcastOp, IterOp, bs_comcast_op
from repro.core.operators import ADD
from repro.core.optimizer import optimize
from repro.core.plancache import PlanCache
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllGatherStage,
    BcastStage,
    ComcastStage,
    IterStage,
    Map2Stage,
    MapStage,
    Program,
    ScanStage,
    Stage,
)
from repro.core.store import clear_caches
from repro.jit import compiler as jit_compiler
from repro.lang import parse_program
from repro.machine.engine import SimResult, SimStats
from repro.machine.run import DEFINED, _exact, _read, simulate_program
from repro.parallel.errors import WorkerCrashError
from repro.recovery.events import RecoveryLog
from repro.semantics.functional import UNDEF
from repro.serving import (
    DeadlineExceededError,
    JobHandle,
    ManagerClosedError,
    QueueFullError,
    RetryPolicy,
    ServingConfig,
    ServingManager,
    TenantQuotaError,
)
from repro.serving.events import EventBus
from repro.serving.job import DONE, FAILED, PENDING
from repro.serving.manager import COUNTED
from repro.serving.worker import WorkerPool

SRC = Path(__file__).resolve().parent.parent / "src"

#: every serving module that creates a lock, and the event bus, which
#: creates none but reads ``threading``: a lock it made would be counted
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
    clear_caches()  # a resident SCAN would be answered inline, not queued
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
        assert len(mgr.queue) == 5
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
    clear_caches()
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

    def test_a_planned_program_pickles_its_fields_alone(self):
        """Planning through a cache keeps facts beside the program; a
        pickle of it still holds ``stages`` and ``name`` and nothing else."""
        program = _picklable()
        optimize(program, MachineParams(p=4, ts=10, tw=1, m=1),
                 rules=FULL_RULES, cache=PlanCache())
        hash(program)
        program.through_definitions()
        loaded = pickle.loads(pickle.dumps(program))
        assert loaded.__dict__.keys() == {"stages", "name"}
        assert loaded == program and hash(loaded) == hash(program)

    def test_a_planned_stage_pickles_its_fields_alone(self):
        """Planning keeps facts beside each stage it reads; a pickle of a
        stage still holds its fields alone, the bytes of a fresh one."""
        fresh = [pickle.dumps(stage) for stage in _picklable()]
        program = _picklable()
        optimize(program, MachineParams(p=4, ts=10, tw=1, m=1),
                 rules=FULL_RULES, cache=PlanCache())
        assert all("_search_facts" in stage.__dict__ for stage in program)
        assert [pickle.dumps(stage) for stage in program] == fresh
        for stage in program:
            loaded = pickle.loads(pickle.dumps(stage))
            assert loaded.__dict__.keys() == {
                f.name for f in dataclasses.fields(stage)}
            assert loaded == stage

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

    def test_the_definitions_reading_is_kept_and_not_pickled(self):
        program = _picklable()
        assert program.through_definitions() is program  # nothing derived
        loaded = pickle.loads(pickle.dumps(program))
        assert "_defined" not in loaded.__dict__ and loaded == program
        derived = Program([ComcastStage(bs_comcast_op(ADD)),
                           MapStage(abs, label="abs")], name="derived")
        defined = derived.through_definitions()
        assert derived.through_definitions() is defined
        assert defined.name == "derived"
        assert defined.pretty() == "bcast ; scan (add) ; map abs"
        gc.disable()  # freed by its count alone: the kept reading is no cycle
        try:
            program.through_definitions()
            gone = weakref.ref(program)
            del program
            assert gone() is None
        finally:
            gc.enable()

    def test_an_unhashable_program_raises_on_every_call(self):
        program = Program([Map2Stage(lambda x, y: x, other=([1], [2]))])
        for _ in range(3):
            with pytest.raises(TypeError):
                hash(program)
        assert "_hash" not in program.__dict__


# -- the lock gate ----------------------------------------------------------------

#: lock acquisitions one cooperative job takes from ``submit`` to its
#: reply on the single-threaded drive below: quota admit and release,
#: queue push and pop and the handle's birth — its four events and its
#: resident-schedule count take none (a live worker thread adds its pop's
#: and the client's blocking waits)
LOCKS_PER_JOB = 5
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


def _one_thread_counting(monkeypatch) -> list[int]:
    """Every lock the serving modules create counts its acquisitions in
    the returned tally, and the pool's loop runs inside ``close`` on the
    calling thread; the caches start empty."""
    tally = [0]
    shim = _counting_threading(tally)
    for module in LOCKING_MODULES:
        monkeypatch.setattr(module, "threading", shim)
    monkeypatch.setattr(WorkerPool, "start", lambda self: None)
    monkeypatch.setattr(WorkerPool, "join",
                        lambda self, timeout=None: self._loop(0) or True)
    clear_caches()
    return tally


def test_a_served_job_takes_at_most_LOCKS_PER_JOB_lock_acquisitions(
        monkeypatch):
    """1 000 cooperative jobs, submitted, served and read on this one
    thread (the pool's loop runs inside ``close``), every lock the
    serving modules create counting its acquisitions."""
    tally = _one_thread_counting(monkeypatch)
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


#: lock acquisitions one resident hit answered on the submitting thread
#: takes: quota admit and release and the handle's birth — no queue push,
#: no pop, and none for its four events or its resident-schedule count
LOCKS_PER_INLINE_HIT = 3


def test_a_resident_hit_takes_at_most_LOCKS_PER_INLINE_HIT_lock_acquisitions(
        monkeypatch):
    """The drive above, with the schedule admitted by one served job
    first: the 1 000 hits are answered inside ``submit``, on this thread."""
    tally = _one_thread_counting(monkeypatch)
    mgr = ServingManager(ServingConfig(workers=1, queue_capacity=JOBS))
    first = mgr.submit(SCAN, [0, 1, 2, 3], PARAMS)
    mgr.workers.run_single(mgr.queue.pop(), 0, "cooperative")  # the miss
    assert first.result() == (0, 1, 3, 6)
    tally[0] = 0
    handles = [mgr.submit(SCAN, [j, 1, 2, 3], PARAMS, tenant=f"t{j % 4}")
               for j in range(JOBS)]
    per_job = tally[0] / JOBS
    assert all(handle.done() for handle in handles)
    assert len(mgr.queue) == 0
    assert mgr.close(drain=True)
    assert handles[-1].result() == (JOBS - 1, JOBS, JOBS + 2, JOBS + 5)
    assert mgr.stats()["resident_hits"] == JOBS
    assert per_job <= LOCKS_PER_INLINE_HIT, per_job


# -- a resident hit is answered on the caller's thread ----------------------------

def _events_of(mgr, handle) -> list[dict]:
    """The events of ``handle``'s job, once it completed."""
    _until(lambda: any(e["job"] == handle.job_id
                       for e in mgr.events.of_kind("complete")))
    return [e for e in mgr.events.log.events
            if e.get("job") == handle.job_id]


def test_an_inline_hit_is_the_queued_hit(monkeypatch):
    """The same miss then hit through two managers, the second made to
    queue its hit (its admission lookup finds nothing): the hit's events
    (kinds, order and fields but the worker, the depth and the numbering),
    values, ``SimResult`` and every counter agree."""
    runs = []
    for inline in (True, False):
        clear_caches()
        with monkeypatch.context() as patch:
            if not inline:
                patch.setattr(repro.serving.manager, "resident_schedule",
                              lambda *args: (None, None, False, "queued"))
            with ServingManager(ServingConfig(workers=1)) as mgr:
                _events_of(mgr, mgr.submit(SCAN, [0, 1, 2, 3], PARAMS))
                handle = mgr.submit(SCAN, [4, 1, 2, 3], PARAMS)
                assert handle.done() is inline  # settled inside submit
                runs.append((handle, _events_of(mgr, handle), mgr.stats()))
    (hit, events, stats), (queued, queued_events, queued_stats) = runs
    assert hit.result() == queued.result() == (4, 5, 7, 10)
    assert hit.sim == queued.sim
    assert stats == queued_stats and stats["resident_hits"] == 1
    assert [e["event"] for e in events] == [e["event"] for e in
                                            queued_events] == [
        "submit", "admit", "start", "complete"]
    assert events[2]["worker"] == threading.current_thread().name
    assert events[1]["depth"] == 0 and queued_events[1]["depth"] == 1
    assert queued_events[2]["worker"] == 0

    def fields(event):
        return {k: v for k, v in event.items()
                if k not in ("seq", "job", "worker", "depth")}
    assert [fields(e) for e in events] == [fields(e) for e in queued_events]


def test_a_hit_builds_its_sim_result_when_read(monkeypatch):
    """A resident hit constructs no ``SimStats`` until ``.sim`` is read;
    then one, with lists where the resident entry keeps tuples, equal to
    the unserved run's, and a second read returns the same object."""
    clear_caches()
    built = []
    init = SimStats.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with ServingManager(ServingConfig(workers=1)) as mgr:
        _events_of(mgr, mgr.submit(SCAN, [0, 1, 2, 3], PARAMS))
        monkeypatch.setattr(SimStats, "__init__", counted)
        hit = mgr.submit(SCAN, [4, 1, 2, 3], PARAMS)
        assert hit.done() and hit.result() == (4, 5, 7, 10)
        assert mgr.stats()["resident_hits"] == 1
        assert built == []
        sim = hit.sim
        assert len(built) == 1 and sim.stats is built[0]
        assert hit.sim is sim and len(built) == 1
    monkeypatch.undo()
    assert type(sim.stats.timeline) is list and type(sim.stats.events) is list
    assert sim == simulate_program(SCAN, [4, 1, 2, 3], PARAMS)


def test_inline_hits_count_exactly_beside_a_stats_reader():
    """Eight threads released together by a barrier each plan and serve
    inline hits while a ninth reads ``stats()`` throughout: the manager's
    ``resident_hits`` and the plan cache's ``hits`` / ``resident_hits``
    count every hit once, and no reading goes down."""
    clear_caches()
    threads, rounds = 8, 200
    cache = PlanCache()
    program = parse_program(
        "Program Hammer (x);\nMPI_Scan (x, y, add);\n").to_program(
        {"add": ADD})
    barrier, done = threading.Barrier(threads + 1), threading.Event()
    errors, readings = [], []
    with ServingManager(ServingConfig(workers=1)) as mgr:
        plan = optimize(program, PARAMS, FULL_RULES, strategy="beam",
                        cache=cache)  # the miss
        optimize(program, PARAMS, FULL_RULES, strategy="beam",
                 cache=cache)  # the replay that makes it resident
        _events_of(mgr, mgr.submit(plan.program, [0, 1, 2, 3], PARAMS))
        assert (cache.hits, cache.resident_hits) == (1, 0)

        def client(k: int) -> None:
            try:
                barrier.wait()
                for j in range(rounds):
                    got = optimize(program, PARAMS, FULL_RULES,
                                   strategy="beam", cache=cache)
                    handle = mgr.submit(got.program, [k, j, 2, 3], PARAMS,
                                        tenant=f"t{k}")
                    assert handle.done(), "not answered inline"
                    assert handle.result() == (k, k + j, k + j + 2,
                                               k + j + 5)
            except BaseException as exc:  # reported below, not lost
                errors.append(exc)

        def reader() -> None:
            barrier.wait()
            while not done.is_set():
                readings.append((mgr.stats()["resident_hits"],
                                 cache.stats()["hits"]))

        workers = [threading.Thread(target=client, args=(k,))
                   for k in range(threads)]
        watcher = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads every few bytecodes
        try:
            for thread in [*workers, watcher]:
                thread.start()
            for thread in workers:
                thread.join(timeout=120.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        watcher.join(timeout=60.0)
        assert not any(t.is_alive() for t in [*workers, watcher])
        assert not errors, errors[0]
        stats = mgr.stats()
    hits = threads * rounds
    assert stats["resident_hits"] == hits
    assert stats["resident_bypasses"] == {}
    assert (cache.hits, cache.resident_hits) == (1 + hits, hits)
    assert readings and all(
        x <= y for a, b in zip(readings, readings[1:])
        for x, y in zip(a, b)), "a count went down"


def test_an_expired_deadline_on_a_hit_fails_typed():
    clear_caches()
    with ServingManager(ServingConfig(workers=1)) as mgr:
        _events_of(mgr, mgr.submit(SCAN, [0, 1, 2, 3], PARAMS))
        handle = mgr.submit(SCAN, [4, 1, 2, 3], PARAMS, deadline=0.0)
        assert handle.done()
        with pytest.raises(DeadlineExceededError):
            handle.result(timeout=0.0)
        trail = [e["event"] for e in mgr.events.log.events
                 if e.get("job") == handle.job_id]
        assert trail == ["submit", "admit", "deadline_miss", "complete"]
        assert handle.sim is None
        stats = mgr.stats()
    assert stats["deadline_misses"] == 1 and stats["resident_hits"] == 0
    assert stats["inflight"] == {}


def _race_close(drain: bool) -> None:
    """One client thread submits resident hits while this one closes the
    manager."""
    clear_caches()
    mgr = ServingManager(ServingConfig(workers=1))
    _events_of(mgr, mgr.submit(SCAN, [0, 1, 2, 3], PARAMS))
    returned, closed = threading.Event(), threading.Event()
    handles, errors = [], []

    def client():
        j = 0
        while True:
            after = closed.is_set()
            j += 1
            try:
                handle = mgr.submit(SCAN, [j, 1, 2, 3], PARAMS)
            except ManagerClosedError:
                if after:
                    return
                continue
            except BaseException as exc:  # reported below, not lost
                errors.append(exc)
                return
            if after:
                errors.append(f"{handle.job_id} admitted after close()")
                return
            if not handle.done():
                errors.append(f"{handle.job_id} returned unsettled")
            handles.append((j, handle))
            returned.set()

    thread = threading.Thread(target=client)
    thread.start()
    assert returned.wait(30.0)
    assert mgr.close(drain=drain, timeout=30.0)
    closed.set()
    thread.join(30.0)
    assert not thread.is_alive()
    assert errors == []
    completes = Counter(e["job"] for e in mgr.events.of_kind("complete"))
    assert all(completes[h.job_id] == 1 for _, h in handles)
    stats = mgr.stats()
    assert stats["completed"] + stats["failed"] == stats["submitted"] == \
        len(handles) + 1
    assert mgr.quotas.snapshot() == {}
    for j, handle in handles:
        if handle.error is None:
            assert handle.result() == (j, j + 1, j + 3, j + 6)
        else:  # passed the open check, then met the abort
            assert not drain and isinstance(handle.error, ManagerClosedError)


@pytest.mark.parametrize("drain", [True, False])
def test_close_racing_inline_submits_settles_every_handle_once(drain):
    """Every ``submit`` raises ``ManagerClosedError`` or returns a settled
    handle, each handle completes once, the quotas empty, and a
    ``submit`` begun after ``close()`` returned is refused, even for a
    resident key: no ``queue.push`` stands guard on the inline path."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            _race_close(drain)
    finally:
        sys.setswitchinterval(interval)


# -- a repeated request resolves by identity -------------------------------------

#: two ``serve_hot``-shaped texts whose plans hold the derived stages:
#: BS-Comcast makes ``bcast ; scan`` a comcast, BR-Local ``bcast ;
#: reduce`` an iter
REPEATED = ("Program C (x);\nMPI_Bcast (x);\nMPI_Scan (x, y, op1);\n",
            "Program I (x);\nMPI_Bcast (x);\nMPI_Reduce (x, y, op1);\n")
REPEATS = 50


def test_a_repeated_request_builds_hashes_and_traverses_nothing(monkeypatch):
    """After warm-up (up to each program's first resident hit, which
    builds its exact tape), ``parse_program`` → ``to_program`` →
    ``optimize(cache=…)`` → ``submit`` → ``result`` of a repeated text
    constructs no ``Stage``, computes no ``Program`` hash, and its
    resident hit runs no ``ComcastOp.compute`` and no ``IterOp`` digit
    traversal, looks up no compiled program and reads no exact
    signature apart from its schedule lookup — counted, like the locks
    above: the cause, not the clock."""
    clear_caches()
    cache, env = PlanCache(), {"op1": ADD}
    counts: Counter = Counter()

    def request(mgr, text, j):
        program = parse_program(text).to_program(env)
        plan = optimize(program, PARAMS, rules=FULL_RULES, strategy="beam",
                        cache=cache)
        handle = mgr.submit(plan.program, [j, 1, 2, 3], PARAMS)
        return plan.program, handle.result(timeout=30.0)

    def counting_hash(program):
        if "_hash" not in program.__dict__:
            counts["Program hashes"] += 1
        return real_hash(program)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def stage_classes(cls=Stage):
        yield cls
        for sub in cls.__subclasses__():
            yield from stage_classes(sub)

    real_hash = Program.__hash__
    with ServingManager(ServingConfig(workers=1,
                                      substrate="cooperative")) as mgr:
        # plan, replay and admit, then the first hit, which builds the
        # program's exact tape
        planned = [request(mgr, text, 0)[0] for text in REPEATED * 3][4:]
        assert [type(p.stages[0]) for p in planned] == [ComcastStage,
                                                         IterStage]
        hits = mgr.stats()["resident_hits"]
        for cls in set(stage_classes()):  # a dataclass's own __init__
            if "__init__" in vars(cls):
                monkeypatch.setattr(cls, "__init__", counted(
                    "Stage constructions", vars(cls)["__init__"]))
        monkeypatch.setattr(Program, "__hash__", counting_hash)
        for cls, name in ((ComcastOp, "compute"), (IterOp, "compute"),
                          (IterOp, "compute_general"),
                          (jit_compiler, "compiled_program"),
                          (jit_compiler, "_exact_signature")):
            monkeypatch.setattr(cls, name, counted(
                f"{cls.__name__}.{name}", getattr(cls, name)))
        tapes = len(jit_compiler._EXACT_TAPES)
        replies = [(program, j, request(mgr, text, j))
                   for j in range(REPEATS)
                   for text, program in zip(REPEATED, planned)]
        seen = dict(counts)
        monkeypatch.undo()
        assert mgr.stats()["resident_hits"] - hits == len(replies)
        assert len(jit_compiler._EXACT_TAPES) == tapes == len(planned)
    assert seen == {}, seen
    for program, j, (got, values) in replies:
        assert got is program
        assert values == tuple(program.run([j, 1, 2, 3]))


# -- a served hit records each event once --------------------------------------

def _read_per_block(blocks):
    """``machine.run._read`` as every block list took it before flat
    int/bool lists were read from their set of types: one block at a
    time, the exact signature as the exact tier derived it on its own
    (0 for ``UNDEF``, 1 for an int or bool, ``n`` for a flat tuple of
    ``n`` ≥ 2 of them; None when any block is something else)."""
    tokens = exact = True
    undef_at, sig = [], []
    for x in blocks:
        undef = x is UNDEF
        undef_at.append(undef)
        if not undef:
            tokens = tokens and x is DEFINED
            exact = exact and _exact(x)
        if undef or type(x) in (int, bool):
            sig.append(0 if undef else 1)
        elif (type(x) is tuple and len(x) >= 2
              and all(type(v) in (int, bool) for v in x)):
            sig.append(len(x))
        else:
            sig.append(None)
    return (tokens, exact, tuple(undef_at),
            None if None in sig else tuple(sig))


_LEAVES = st.one_of(
    st.integers(), st.booleans(), st.just(UNDEF), st.just(DEFINED),
    st.floats(), st.integers(-9, 9).map(np.int64),
    st.floats(-9, 9).map(np.float64), st.booleans().map(np.bool_))
_BLOCKS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_BLOCKS, max_size=8),
                 st.lists(st.integers() | st.booleans(), max_size=16),
                 st.lists(st.integers() | st.booleans() | st.just(UNDEF),
                          max_size=16)))
def test_reading_blocks_in_one_pass_answers_as_the_per_block_loop(blocks):
    """Empty, ints, bools, ``UNDEF``, ``DEFINED`` tokens, floats, NumPy
    scalars and nested tuples and lists, as a list and as a tuple —
    the exact signature included when it is asked for."""
    for seq in (blocks, tuple(blocks)):
        assert _read(seq, signed=True) == _read_per_block(seq)
        assert _read(seq) == _read_per_block(seq)[:3] + (None,)


def test_a_served_hit_builds_no_event_record_and_renders_its_four_when_read(
        monkeypatch):
    """One cooperative resident hit never enters ``RecoveryLog.record``
    or ``EventBus.emit`` — the places an event's dict is built: its four
    events are marks on its lifecycle record — and one read renders them,
    ``submit``, ``admit``, ``start`` and ``complete``, numbered in turn.
    Counted, like the locks above: the cause, not the clock."""
    clear_caches()
    built: list[str] = []
    record, emit = RecoveryLog.record, EventBus.emit

    def recorded(self, event, fields):
        built.append(event)
        return record(self, event, fields)

    def emitted(self, event, **fields):
        built.append(event)
        return emit(self, event, **fields)

    with ServingManager(ServingConfig(workers=1,
                                      substrate="cooperative")) as mgr:
        assert mgr.submit(SCAN, [0, 1, 2, 3], PARAMS).result(30.0) == (
            0, 1, 3, 6)  # the miss that admits the schedule
        _until(lambda: len(mgr.events) == 4)
        monkeypatch.setattr(RecoveryLog, "record", recorded)
        monkeypatch.setattr(EventBus, "emit", emitted)
        assert mgr.submit(SCAN, [4, 1, 2, 3], PARAMS).result(30.0) == (
            4, 5, 7, 10)
        _until(lambda: len(mgr.events) == 8)
        monkeypatch.undo()
        assert mgr.stats()["resident_hits"] == 1
        kept = list(mgr.events.log.events)[4:]
    assert built == []
    assert [(r["event"], r["seq"]) for r in kept] == [
        ("submit", 5), ("admit", 6), ("start", 7), ("complete", 8)]


def test_a_refused_emit_is_neither_numbered_nor_counted():
    bus = EventBus()
    bus.emit("submit", job="job-1", tenant="t")
    with pytest.raises(ValueError, match="unknown recovery event kind"):
        bus.emit("nope", job="job-1")
    assert len(bus) == 1
    assert bus.tally() == {("submit", None): 1}
    assert bus.emit("admit", job="job-1", tenant="t")["seq"] == 2
    assert [r["seq"] for r in bus.log.events] == [1, 2]


def test_an_unknown_kind_raises_and_a_record_keeps_its_key_order():
    with pytest.raises(ValueError, match="unknown recovery event kind"):
        RecoveryLog().emit("nope", job="job-1")
    bus = EventBus()
    with pytest.raises(ValueError, match="unknown recovery event kind"):
        bus.emit("nope", job="job-1")
    assert not bus.log.events
    served = bus.emit("complete", job="job-1", tenant="t", status="ok",
                      attempts=1)
    assert list(served) == ["event", "seq", "job", "tenant", "status",
                            "attempts"]
    assert served["seq"] == len(bus) and bus.log.events[-1] is served
    log = RecoveryLog()
    supervised = log.emit("fault", stage=2, attempt=1)
    assert list(supervised) == ["event", "stage", "attempt"]
    assert log.events == [supervised]
