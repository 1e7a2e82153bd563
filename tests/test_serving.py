"""The multi-tenant serving runtime: admission, fairness, the ladder.

Unit coverage for the :mod:`repro.serving` building blocks (fair queue,
tenant quotas, retry policy, event bus, the substrate ladder) plus end-to-end
manager runs on the cooperative substrate: a concurrent multi-tenant
stream completes bit-identically to unserved execution, every refusal
and failure is a *typed* error, and the v2 event log tells each job's
story.  Real-process serving (batching, SIGKILL retries, poison
quarantine) lives in ``test_serving_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import MapStage, Program, ReduceStage, ScanStage
from repro.core.store import clear_caches
from repro.machine.run import simulate_program
from repro.parallel import backend, process_fallback_reason
from repro.recovery import Strikes, backoff
from repro.serving import (
    DeadlineExceededError,
    EventBus,
    FairQueue,
    Job,
    JobFailedError,
    ManagerClosedError,
    QueueFullError,
    RetryPolicy,
    ServingConfig,
    ServingManager,
    TenantQuotaError,
    TenantQuotas,
    remaining_budget,
)

P = 4
PARAMS = MachineParams(p=P, ts=600.0, tw=2.0, m=1024)
SCAN = Program([ScanStage(ADD)], name="scan")
SCANRED = Program([ScanStage(ADD), ReduceStage(ADD)], name="scan;reduce")


def _job(tenant="t", params=PARAMS, program=SCAN, inputs=None):
    return Job.create(program, inputs or [float(r) for r in range(P)],
                      params, tenant)


# -- FairQueue ----------------------------------------------------------------

class TestFairQueue:
    def test_fifo_within_tenant(self):
        q = FairQueue(capacity=8)
        jobs = [_job() for _ in range(3)]
        for j in jobs:
            q.push(j)
        assert [q.pop() for _ in range(3)] == jobs

    def test_round_robin_across_tenants(self):
        """A tenant that floods the queue cannot starve the others: pops
        rotate tenant-by-tenant regardless of push order."""
        q = FairQueue(capacity=16)
        for _ in range(4):
            q.push(_job(tenant="hog"))
        q.push(_job(tenant="small-a"))
        q.push(_job(tenant="small-b"))
        order = [q.pop().tenant for _ in range(6)]
        # both small tenants are served within the first rotation
        assert set(order[:3]) == {"hog", "small-a", "small-b"}
        assert order.count("hog") == 4

    def test_queue_full_is_typed(self):
        q = FairQueue(capacity=2)
        q.push(_job())
        q.push(_job())
        with pytest.raises(QueueFullError) as exc_info:
            q.push(_job())
        assert exc_info.value.depth == 2
        assert exc_info.value.capacity == 2
        assert "2" in str(exc_info.value)

    def test_push_on_a_closed_queue_is_typed_but_requeue_still_lands(self):
        q = FairQueue(capacity=4)
        q.close()
        with pytest.raises(ManagerClosedError):
            q.push(_job())
        assert len(q) == 0
        retried = _job()
        q.requeue(retried)  # an admitted job's retry must not be dropped
        assert q.pop(timeout=0.01) is retried

    def test_requeue_bypasses_capacity_and_jumps_the_line(self):
        """Retries re-enter at the *front* of their tenant's FIFO and are
        exempt from the admission cap (the job was already admitted)."""
        q = FairQueue(capacity=1)
        first, retry = _job(), _job()
        q.push(first)
        q.requeue(retry)  # would raise if capacity applied
        assert q.pop() is retry
        assert q.pop() is first

    def test_pop_batch_same_tenant_same_key_only(self):
        q = FairQueue(capacity=16)
        small = MachineParams(p=P, ts=1.0, tw=1.0, m=1024)
        a1, a2 = _job(tenant="a"), _job(tenant="a")
        a_other = _job(tenant="a", params=small)   # different batch key
        b1 = _job(tenant="b")                       # different tenant
        for j in (a1, a2, a_other, b1):
            q.push(j)
        first = q.pop()
        assert first is a1
        batch = q.pop_batch(first, limit=8)
        assert batch == [a1, a2]          # stops at the key change
        assert q.pop() is b1              # b was never raided
        assert q.pop() is a_other

    def test_no_batch_jobs_run_solo(self):
        q = FairQueue(capacity=8)
        j1, j2 = _job(), _job()
        j2.no_batch = True
        q.push(j1)
        q.push(j2)
        first = q.pop()
        assert q.pop_batch(first, limit=8) == [j1]

    def test_pop_timeout_and_close(self):
        q = FairQueue(capacity=4)
        assert q.pop(timeout=0.01) is None
        leftover = _job()
        q.push(leftover)
        q.close()
        # admission after close is the manager's job (submit raises
        # ManagerClosedError); the queue itself still drains leftovers
        assert q.pop() is leftover
        assert q.pop(timeout=5.0) is None  # returns, does not block

    def test_close_wakes_blocked_popper(self):
        q = FairQueue(capacity=4)
        out = []
        t = threading.Thread(target=lambda: out.append(q.pop(timeout=30.0)))
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert out == [None]

    def test_drain(self):
        q = FairQueue(capacity=8)
        jobs = [_job(tenant=t) for t in ("a", "b", "a")]
        for j in jobs:
            q.push(j)
        assert sorted(j.job_id for j in q.drain()) == \
            sorted(j.job_id for j in jobs)
        assert len(q) == 0


# -- TenantQuotas -------------------------------------------------------------

class TestTenantQuotas:
    def test_default_limit(self):
        quotas = TenantQuotas(default_limit=2)
        quotas.admit("a")
        quotas.admit("a")
        with pytest.raises(TenantQuotaError) as exc_info:
            quotas.admit("a")
        assert exc_info.value.tenant == "a"
        assert exc_info.value.quota == 2
        quotas.admit("b")  # other tenants unaffected
        quotas.release("a")
        quotas.admit("a")  # slot freed

    def test_per_tenant_override(self):
        quotas = TenantQuotas(default_limit=1, limits={"vip": 3})
        for _ in range(3):
            quotas.admit("vip")
        with pytest.raises(TenantQuotaError):
            quotas.admit("vip")
        quotas.admit("steerage")
        with pytest.raises(TenantQuotaError):
            quotas.admit("steerage")  # default limit applies to the rest
        assert quotas.inflight() == 4
        assert quotas.snapshot() == {"vip": 3, "steerage": 1}

    def test_unlimited_by_default(self):
        quotas = TenantQuotas()
        for _ in range(100):
            quotas.admit("a")
        assert quotas.inflight("a") == 100


# -- RetryPolicy / deadlines --------------------------------------------------

class TestRetryPolicy:
    def test_backoff_caps_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        ladder = [backoff(n, policy.backoff_base, policy.backoff_cap)
                  for n in (0, 1, 2, 3, 4, 10)]
        assert ladder == pytest.approx([0.0, 0.1, 0.2, 0.4, 0.5, 0.5])

    def test_should_quarantine(self):
        policy = RetryPolicy(quarantine_after=2)
        crashes = Strikes(policy.quarantine_after)
        job, other = _job(), _job()
        assert not crashes.hit(job.job_id)
        assert not crashes.hit(other.job_id)  # strikes are per job
        assert crashes.hit(job.job_id)
        crashes.clear(job.job_id)
        assert crashes.counts == {other.job_id: 1}

    def test_remaining_budget(self):
        job = _job()
        assert remaining_budget(job) is None
        job.deadline_at = time.monotonic() + 10.0
        left = remaining_budget(job)
        assert 9.0 < left <= 10.0
        job.deadline_at = time.monotonic() - 1.0
        assert remaining_budget(job) <= 0.0


# -- EventBus -----------------------------------------------------------------

def test_eventbus_sequences_are_gapless_under_contention():
    import sys

    bus = EventBus()
    ready = threading.Barrier(8)  # all eight emit at once, not one by one

    def spam():
        ready.wait(30.0)
        for _ in range(200):
            bus.emit("submit", job="j", tenant="t")
            bus.emit("complete", job="j", tenant="t", status="ok")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spam) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    seqs = [e["seq"] for e in bus.log.events]
    assert seqs == list(range(1, 3201))  # no gaps, no dups, ordered
    # the bus takes no lock: each thread counts into its own tally shard,
    # so no update is lost
    assert bus.tally() == {("submit", None): 1600, ("complete", "ok"): 1600}


def test_a_reader_beside_the_emitters_sees_whole_events_and_a_growing_len():
    """Eight threads emit hit lifecycles — the four marks, under no lock —
    while a reader loops over ``of_kind("complete")``, ``tally()`` and
    ``len(bus)``.  No read raises, every rendered event has all of its
    fields and ``len`` never goes down; once the emitters have returned
    the ``seq`` numbers are dense and the tally exact (the bus's ``seq``
    contract, by hammering)."""
    import sys

    from repro.serving.events import ADMIT, COMPLETE, START, SUBMIT

    bus = EventBus()
    done, ready = threading.Event(), threading.Barrier(9)
    lens: list[int] = []
    failures: list[BaseException] = []

    def lifecycles(worker):
        ready.wait(30.0)
        for j in range(400):
            life = (f"job-{worker}-{j}", "t", P)
            bus.mark(SUBMIT, life)
            bus.mark(ADMIT, life, j % 3)
            bus.mark(START, life, worker, "cooperative", 1)
            bus.mark(COMPLETE, life, "ok", 1)

    def reader():
        ready.wait(30.0)
        try:
            while not done.is_set():
                completes = bus.of_kind("complete")
                for event in completes:
                    assert list(event) == ["event", "seq", "job", "tenant",
                                           "status", "attempts"], event
                    assert event["status"] == "ok" and event["attempts"] == 1
                seqs = [event["seq"] for event in completes]
                assert seqs == sorted(set(seqs)) and (not seqs or seqs[0] > 0)
                assert sum(bus.tally().values()) <= 12800
                lens.append(len(bus))
        except BaseException as exc:  # surfaced on the test's thread
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher = threading.Thread(target=reader)
        watcher.start()
        threads = [threading.Thread(target=lifecycles, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        done.set()
        watcher.join(timeout=30.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads + [watcher])
    assert failures == []
    assert lens and lens == sorted(lens)
    events = bus.log.events
    assert [e["seq"] for e in events] == list(range(1, 12801))
    fields = {"submit": ["p"], "admit": ["depth"],
              "start": ["worker", "substrate", "attempt"],
              "complete": ["status", "attempts"]}
    for event in events:
        assert list(event) == ["event", "seq", "job", "tenant",
                               *fields[event["event"]]]
    assert len(bus) == 12800
    assert bus.tally() == {("submit", None): 3200, ("admit", None): 3200,
                           ("start", None): 3200, ("complete", "ok"): 3200}


# -- the substrate ladder ------------------------------------------------------

class _Incident(RuntimeError):
    pass


class TestCircuitBreaker:
    """``demote_after`` consecutive incidents step the manager's ladder
    down one rung from the substrate they happened on."""

    def test_demotes_down_the_ladder(self):
        with ServingManager(_cfg(substrate="process", demote_after=2)) as mgr:
            assert mgr.stats()["substrate"] == "process"
            mgr.record_incident("process", _Incident("one"))
            assert mgr.stats()["substrate"] == "process"  # streak 1: hold
            mgr.record_incident("process", _Incident("two"))
            assert mgr.stats()["substrate"] == "threaded"  # demoted, loudly
            for _ in range(2):
                mgr.record_incident("threaded", _Incident("x"))
            assert mgr.stats()["substrate"] == "cooperative"
            for _ in range(2):
                mgr.record_incident("cooperative", _Incident("x"))
            stats = mgr.stats()
        assert stats["substrate"] == "cooperative"  # floor: nowhere lower
        assert stats["demotions"] == 2

    def test_success_resets_the_streak(self):
        with ServingManager(_cfg(substrate="process", demote_after=2)) as mgr:
            mgr.record_incident("process", _Incident("one"))
            mgr.record_success()
            mgr.record_incident("process", _Incident("two"))
            assert mgr.stats()["substrate"] == "process"  # never reached 2

    def test_demotion_is_logged(self):
        with ServingManager(_cfg(substrate="threaded", demote_after=1)) as mgr:
            mgr.record_incident("threaded", _Incident("boom\ndetail"))
            (event,) = mgr.events.of_kind("fallback")
        assert event["scope"] == "serving"
        assert event["source"] == "threaded"
        assert event["target"] == "cooperative"
        assert event["reason"] == "_Incident: boom"

    def test_force(self, monkeypatch):
        """A platform that cannot run processes jumps the ladder at the
        first process job, once, whatever ``demote_after`` says."""
        monkeypatch.setattr(backend, "process_fallback_reason",
                            lambda p: "process backend unavailable")
        with ServingManager(_cfg(substrate="process",
                                 demote_after=99)) as mgr:
            assert mgr.substrate_for(_job()) == "threaded"
            assert mgr.substrate_for(_job()) == "threaded"
            stats = mgr.stats()
            (event,) = mgr.events.of_kind("fallback")
        assert stats["substrate"] == "threaded" and stats["demotions"] == 1
        assert event["reason"] == "process backend unavailable"

    def test_concurrent_incidents_on_one_rung_demote_it_once(self):
        """Workers that all failed on ``process`` step the ladder down from
        ``process`` once, however many of their streaks cross together;
        a lost update would demote twice or leave a second event."""
        import sys

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingManager(_cfg(substrate="process",
                                     demote_after=1)) as mgr:
                threads = [threading.Thread(
                    target=lambda: [mgr.record_incident("process",
                                                        _Incident("kill"))
                                    for _ in range(50)])
                    for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                stats = mgr.stats()
                events = mgr.events.of_kind("fallback")
        finally:
            sys.setswitchinterval(switch)
        assert stats["substrate"] == "threaded" and stats["demotions"] == 1
        assert len(events) == 1


def test_a_refused_arena_reruns_the_job_on_threaded(monkeypatch):
    """``/dev/shm`` refusing an arena is the substrate's failure, not the
    job's: the ladder steps down once, loudly, and the job completes on
    the threaded engine bit-identically."""
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(backend, "process_fallback_reason", lambda p: None)
    monkeypatch.setattr(backend, "SharedArena", no_space)
    xs = [1, 2, 3, 4]
    ref = simulate_program(SCAN, xs, PARAMS, engine="threaded")
    with ServingManager(_cfg(workers=1, substrate="process")) as mgr:
        handle = mgr.submit(SCAN, xs, PARAMS)
        assert handle.result(timeout=60.0) == ref.values
        stats = mgr.stats()
        (event,) = mgr.events.of_kind("fallback")
    assert handle.sim.time == ref.time
    assert handle.sim.stats.clocks == ref.stats.clocks
    assert stats["demotions"] == 1 and stats["substrate"] == "threaded"
    assert (event["source"], event["target"]) == ("process", "threaded")
    assert event["reason"].startswith("shared-memory setup failed")
    assert stats["completed"] == 1 and stats["failed"] == 0


# -- end-to-end on the cooperative substrate ----------------------------------

def _until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _cfg(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("substrate", "cooperative")
    return ServingConfig(**kw)


class TestServingManager:
    def test_multi_tenant_stream_matches_unserved_execution(self):
        """60 concurrent jobs across 3 tenants and 2 program shapes come
        back bit-identical to direct simulate_program runs."""
        with ServingManager(_cfg(workers=3)) as mgr:
            expected, handles = [], []
            for j in range(60):
                prog = SCAN if j % 2 else SCANRED
                inputs = [float(r + j) for r in range(P)]
                ref = simulate_program(prog, list(inputs), PARAMS,
                                       engine="cooperative")
                expected.append(tuple(ref.values))
                handles.append(mgr.submit(prog, inputs, PARAMS,
                                          tenant=f"tenant-{j % 3}"))
            got = [h.result(timeout=60.0) for h in handles]
        assert got == expected
        stats = mgr.stats()
        assert stats["submitted"] == 60
        assert stats["completed"] == 60
        assert stats["failed"] == 0
        assert sum(stats["inflight"].values()) == 0
        assert stats["queue_depth"] == 0

    def test_event_trail_per_job(self):
        with ServingManager(_cfg(workers=1)) as mgr:
            handle = mgr.submit(SCAN, [1.0, 2.0, 3.0, 4.0], PARAMS,
                                tenant="solo")
            handle.result(timeout=30.0)
            trail = [e["event"] for e in mgr.events.log.events
                     if e.get("job") == handle.job_id]
        assert trail == ["submit", "admit", "start", "complete"]
        assert all(e.get("tenant") == "solo"
                   for e in mgr.events.log.events
                   if e.get("job") == handle.job_id)

    def test_deterministic_failure_is_job_failed_with_cause(self):
        def boom(x):
            raise ValueError("deterministic bug in user code")

        bad = Program([MapStage(boom)], name="boom")
        with ServingManager(_cfg()) as mgr:
            handle = mgr.submit(bad, [1.0] * P, PARAMS)
            with pytest.raises(JobFailedError) as exc_info:
                handle.result(timeout=30.0)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert "deterministic bug" in str(exc_info.value.__cause__)
        assert mgr.stats()["failed"] == 1

    def test_expired_deadline_is_typed(self):
        with ServingManager(_cfg()) as mgr:
            handle = mgr.submit(SCAN, [1.0] * P, PARAMS, deadline=0.0)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30.0)
            assert mgr.stats()["deadline_misses"] == 1
            assert mgr.events.of_kind("deadline_miss")

    def test_queue_full_backpressure(self):
        """With workers wedged and the queue at capacity, submit refuses
        with QueueFullError — admission control, not silent dropping."""
        gate = threading.Event()

        def wedge(x):
            gate.wait(10.0)
            return x

        slow = Program([MapStage(wedge)], name="wedge")
        mgr = ServingManager(_cfg(workers=1, queue_capacity=1))
        try:
            blocker = mgr.submit(slow, [1.0] * P, PARAMS)
            time.sleep(0.1)  # let the worker take it off the queue
            queued = mgr.submit(SCAN, [1.0] * P, PARAMS)
            with pytest.raises(QueueFullError):
                mgr.submit(SCAN, [1.0] * P, PARAMS)
            assert mgr.stats()["rejected"] == 1
            assert mgr.events.of_kind("reject")[0]["reason"] == "queue_full"
            gate.set()
            blocker.result(timeout=30.0)
            queued.result(timeout=30.0)
        finally:
            gate.set()
            mgr.close(drain=True, timeout=30.0)

    def test_tenant_quota_backpressure(self):
        gate = threading.Event()

        def wedge(x):
            gate.wait(10.0)
            return x

        slow = Program([MapStage(wedge)], name="wedge")
        mgr = ServingManager(_cfg(workers=1, tenant_quota=1,
                                  queue_capacity=8))
        try:
            blocker = mgr.submit(slow, [1.0] * P, PARAMS, tenant="greedy")
            with pytest.raises(TenantQuotaError):
                mgr.submit(SCAN, [1.0] * P, PARAMS, tenant="greedy")
            other = mgr.submit(SCAN, [1.0] * P, PARAMS, tenant="patient")
            gate.set()
            blocker.result(timeout=30.0)
            other.result(timeout=30.0)
            assert mgr.stats()["rejected"] == 1
        finally:
            gate.set()
            mgr.close(drain=True, timeout=30.0)

    def test_submit_after_close_is_refused(self):
        mgr = ServingManager(_cfg())
        assert mgr.close(drain=True, timeout=30.0)
        with pytest.raises(ManagerClosedError):
            mgr.submit(SCAN, [1.0] * P, PARAMS)

    def test_close_racing_a_submit_is_refused_not_stranded(self, monkeypatch):
        """A submit that passed the open check while another thread
        closed the manager used to push after the last worker had seen
        "closed and empty": the handle never resolved.  The close is
        forced into that window from inside ``quotas.admit``."""
        mgr = ServingManager(_cfg(workers=1, tenant_quota=1))
        admit = mgr.quotas.admit

        def close_then_admit(tenant):
            assert mgr.close(drain=True, timeout=30.0)  # workers are gone
            admit(tenant)

        monkeypatch.setattr(mgr.quotas, "admit", close_then_admit)
        with pytest.raises(ManagerClosedError):
            mgr.submit(SCAN, [1.0] * P, PARAMS, tenant="t")
        assert len(mgr.queue) == 0
        assert mgr.quotas.snapshot().get("t", 0) == 0  # quota handed back
        assert mgr.events.of_kind("reject")[0]["reason"] == "closed"
        assert mgr.stats()["rejected"] == 1
        assert mgr.stats()["submitted"] == 0

    def test_abort_close_fails_queued_jobs_typed(self):
        """close(drain=False) cancels queued work with ManagerClosedError
        on every handle — no caller is left blocking forever."""
        gate = threading.Event()

        def wedge(x):
            gate.wait(10.0)
            return x

        slow = Program([MapStage(wedge)], name="wedge")
        mgr = ServingManager(_cfg(workers=1, queue_capacity=32))
        try:
            mgr.submit(slow, [1.0] * P, PARAMS)
            time.sleep(0.1)
            queued = [mgr.submit(SCAN, [1.0] * P, PARAMS) for _ in range(5)]
        finally:
            gate.set()
            mgr.close(drain=False, timeout=30.0)
        for handle in queued:
            with pytest.raises(ManagerClosedError):
                handle.result(timeout=30.0)

    def test_default_deadline_applies(self):
        with ServingManager(_cfg(default_deadline=0.0)) as mgr:
            handle = mgr.submit(SCAN, [1.0] * P, PARAMS)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30.0)

    def test_threaded_substrate_end_to_end(self):
        with ServingManager(_cfg(substrate="threaded")) as mgr:
            handle = mgr.submit(SCAN, [1.0, 2.0, 3.0, 4.0], PARAMS)
            assert handle.result(timeout=60.0) == (1.0, 3.0, 6.0, 10.0)

    def test_handle_carries_the_models_verdict(self):
        """``handle.sim`` is the unserved run's SimResult — on a miss, on
        a hit and on the threaded substrate — while ``result()`` is
        still the value tuple."""
        clear_caches()
        prog = Program([ScanStage(ADD), ReduceStage(ADD)], name="verdict")
        streams = [[r + j for r in range(P)] for j in range(3)]
        with ServingManager(_cfg(workers=1)) as coop, \
                ServingManager(_cfg(workers=1, substrate="threaded")) as thr:
            for mgr in (coop, thr):
                for xs in streams:
                    ref = simulate_program(prog, xs, PARAMS)
                    handle = mgr.submit(prog, xs, PARAMS)
                    assert handle.result(timeout=60.0) == ref.values
                    sim = handle.sim
                    assert sim.values == handle.result()
                    assert sim.time == ref.time
                    assert sim.stats.clocks == ref.stats.clocks
                    assert sim.stats.messages == ref.stats.messages
                    assert sim.stats.words == ref.stats.words
            assert coop.stats()["resident_hits"] == 2  # miss, hit, hit
            assert coop.stats()["resident_bypasses"] == {}
            assert thr.stats()["resident_hits"] == 0
            assert thr.stats()["resident_bypasses"] == {}

    @pytest.mark.skipif(
        process_fallback_reason(P) is not None,
        reason=f"process backend unavailable: {process_fallback_reason(P)}")
    def test_process_substrate_returns_values_only(self):
        with ServingManager(_cfg(workers=1, substrate="process")) as mgr:
            handle = mgr.submit(SCAN, [1, 2, 3, 4], PARAMS)
            assert handle.result(timeout=120.0) == (1, 3, 6, 10)
            assert mgr.stats()["substrate"] == "process"
        assert handle.sim is None

    def test_failed_job_has_no_verdict(self):
        with ServingManager(_cfg()) as mgr:
            handle = mgr.submit(SCAN, [1] * P, PARAMS, deadline=0.0)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30.0)
        assert handle.sim is None

    def test_float_stream_bypasses_and_stays_bit_identical(self):
        """Floats keep the machine's own combining order: every job runs
        the engine, counted, and matches the unserved run bit for bit."""
        params = MachineParams(p=8, ts=600.0, tw=2.0, m=1)
        prog = Program([ReduceStage(ADD)], name="float-reduce")
        streams = [[0.1 * (r + 1) + j for r in range(8)] for j in range(20)]
        assert any(simulate_program(prog, xs, params).values[0]
                   != prog.run(xs)[0] for xs in streams)
        with ServingManager(_cfg(workers=2)) as mgr:
            handles = [mgr.submit(prog, xs, params) for xs in streams]
            got = [h.result(timeout=60.0) for h in handles]
        for xs, values, handle in zip(streams, got, handles):
            ref = simulate_program(prog, xs, params)
            assert values == ref.values
            assert handle.sim.time == ref.time
        stats = mgr.stats()
        assert stats["resident_bypasses"] == {"inexact-input": len(streams)}
        assert stats["resident_hits"] == 0

    def test_resident_schedules_add_no_event(self):
        """A miss and a hit leave the same four-event trail a bypass does."""
        clear_caches()
        with ServingManager(_cfg(workers=1)) as mgr:
            handles = [mgr.submit(SCAN, xs, PARAMS) for xs in
                       ([1, 2, 3, 4], [5, 6, 7, 8], [1.0, 2.0, 3.0, 4.0])]
            for handle in handles:
                handle.result(timeout=30.0)
            stats = mgr.stats()
            assert stats["resident_hits"] == 1
            assert stats["resident_bypasses"] == {"inexact-input": 1}
            for handle in handles:
                trail = [e["event"] for e in mgr.events.log.events
                         if e.get("job") == handle.job_id]
                assert trail == ["submit", "admit", "start", "complete"]
            assert stats["events"] == 4 * len(handles)

    def test_the_flight_recorder_keeps_the_recent_past_only(self):
        """The bus retains the latest ``RETAINED_EVENTS`` records (it used
        to keep all of them: ~1.1 KB of RSS a job for the manager's life);
        what it *counts* is still every event emitted."""
        from repro.serving.events import RETAINED_EVENTS

        jobs, window = 20_000, 250
        with ServingManager(_cfg(workers=1)) as mgr:
            for _ in range(jobs // window):
                handles = [mgr.submit(SCAN, [1, 2, 3, 4], PARAMS)
                           for _ in range(window)]
                for handle in handles:
                    handle.result(timeout=30.0)
            stats = mgr.stats()
            retained = list(mgr.events.log.events)
        assert stats["events"] == len(mgr.events) == 4 * jobs == 80_000
        assert len(retained) <= RETAINED_EVENTS
        newest = retained[-1]
        assert (newest["event"], newest["seq"], newest["job"]) == (
            "complete", 4 * jobs, handles[-1].job_id)
        assert [e["seq"] for e in retained] == list(
            range(4 * jobs - len(retained) + 1, 4 * jobs + 1))

    def test_a_lifecycle_outlives_the_retained_window(self, monkeypatch):
        """One job waits in the queue while 40 inline hits push its
        ``submit`` and ``admit`` out of a 64-event window; once it runs,
        its ``complete`` still renders, numbered last, and every count
        has it; the window is one dense run of ``seq`` numbers ending at
        ``len(bus)``."""
        import repro.serving.events

        monkeypatch.setattr(repro.serving.events, "RETAINED_EVENTS", 64)
        clear_caches()
        gate = threading.Event()

        def wedge(x):
            gate.wait(30.0)
            return x

        with ServingManager(_cfg(workers=1)) as mgr:
            mgr.submit(SCAN, [0, 1, 2, 3], PARAMS).result(timeout=30.0)
            wedged = mgr.submit(Program([MapStage(wedge)], name="wedge"),
                                [1, 2, 3, 4], PARAMS)
            _until(lambda: len(mgr.events.of_kind("start")) == 2)
            held = mgr.submit(SCAN, [0.5] * P, PARAMS)  # inexact: queued
            hits = [mgr.submit(SCAN, [j, 1, 2, 3], PARAMS)
                    for j in range(40)]
            assert all(h.done() for h in hits) and not held.done()
            assert not [e for e in mgr.events.log.events
                        if e["job"] == held.job_id]
            gate.set()
            assert held.result(timeout=30.0) == (0.5, 1.0, 1.5, 2.0)
            assert wedged.result(timeout=30.0) == (1, 2, 3, 4)
            stats = mgr.stats()
            retained = mgr.events.log.events
        assert stats["completed"] == stats["submitted"] == 43
        assert stats["events"] == len(mgr.events) == 4 * 43
        assert [e["seq"] for e in retained] == list(
            range(len(mgr.events) - 63, len(mgr.events) + 1))
        assert retained[-1] == {"event": "complete", "seq": len(mgr.events),
                                "job": held.job_id, "tenant": "default",
                                "status": "ok", "attempts": 1}
        assert [e["event"] for e in retained
                if e["job"] == held.job_id] == ["start", "complete"]

    def test_describe_and_stats_shape(self):
        with ServingManager(_cfg()) as mgr:
            mgr.submit(SCAN, [1.0] * P, PARAMS).result(timeout=30.0)
            stats = mgr.stats()
            text = mgr.describe()
        assert stats["substrate"] == "cooperative"
        assert set(stats) >= {
            "submitted", "completed", "failed", "rejected",
            "quarantined", "deadline_misses", "retries",
            "resident_hits", "resident_bypasses"}
        assert "cooperative" in text
        assert "resident schedules: hits=0 bypasses={'inexact-input': 1}" \
            in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(workers=0)
        with pytest.raises(ValueError):
            ServingConfig(substrate="quantum")
        with pytest.raises(ValueError):
            ServingConfig(queue_capacity=0)
