"""Serving-runtime chaos: SIGKILL roulette over a multi-tenant stream.

``test_parallel_chaos.py`` proves one *supervised run* survives real
kills; this suite proves the *serving tier* does, with tenants in the
blast radius.  :func:`repro.testing.run_serving_chaos` drives a
multi-tenant job stream on the process substrate while a sniper
SIGKILLs workers mid-job (and a dedicated poison tenant's jobs are
killed on *every* attempt).  Invariants, every run:

* **never hangs** — every handle resolves within its timeout (plus a
  SIGALRM backstop here, sized per shard);
* **bit-identical or typed** — each job either returns values equal to
  its fault-free cooperative reference or raises a ``ServingError``
  subclass, never defined-but-wrong, never an untyped error;
* **tenant isolation** — tenants whose workers were never killed
  complete bit-identically, regardless of the carnage next door;
* **poison containment** — the persistently-killed job is quarantined
  as a typed ``PoisonJobError`` carrying per-attempt forensics, and its
  batch-mates still complete.

The roulette covers >= 200 serving runs at the default setting;
``REPRO_SERVING_CHAOS_RUNS`` scales the sweep for CI smoke jobs.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import Program, ReduceStage, ScanStage
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.serving import (
    PoisonJobError,
    RetryPolicy,
    ServingConfig,
    ServingManager,
)
from repro.testing import run_serving_chaos

pytestmark = pytest.mark.skipif(
    process_fallback_reason(2) is not None,
    reason=f"process backend unavailable: {process_fallback_reason(2)}")

P = 4
PARAMS = MachineParams(p=P, ts=600.0, tw=2.0, m=1024)
SCAN = Program([ScanStage(ADD)], name="scan")
SCANRED = Program([ScanStage(ADD), ReduceStage(ADD)], name="scan;reduce")

#: total roulette runs across all shards (>= 200 for the acceptance
#: sweep; CI smoke jobs lower it via the env knob)
TOTAL_RUNS = int(os.environ.get("REPRO_SERVING_CHAOS_RUNS", "208"))
N_SHARDS = 4
SHARD_RUNS = max(2, TOTAL_RUNS // N_SHARDS)


@pytest.fixture(autouse=True)
def _hang_backstop():
    """Never a hang: a SIGALRM sized for one shard of the sweep."""
    if hasattr(signal, "SIGALRM"):
        def _fire(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("serving chaos exceeded the hang backstop")

        old = signal.signal(signal.SIGALRM, _fire)
        signal.alarm(420)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    else:  # pragma: no cover - non-POSIX
        yield


@pytest.mark.parametrize("shard", range(N_SHARDS))
def test_sigkill_roulette_shard(shard):
    """One shard of the roulette: random worker kills + poison tenants
    across a randomized multi-tenant stream.  The report aggregates the
    per-run invariant checks; any violation fails with the seed."""
    report = run_serving_chaos(seed=1_000 + shard, runs=SHARD_RUNS)
    assert report.ok, report.describe()
    assert report.jobs > 0
    # the roulette must actually shoot: a pacifist sweep proves nothing
    assert report.kills > 0, report.describe()


def test_sweep_is_at_least_200_runs():
    """The acceptance floor: the shards above cover >= 200 chaos runs
    at the default setting."""
    if TOTAL_RUNS >= 200:
        assert N_SHARDS * SHARD_RUNS >= 200
    else:  # smoke setting: still a real sweep per shard
        assert SHARD_RUNS >= 2


# -- targeted ladder tests (deterministic, not roulette) ----------------------

def _refs(jobs):
    return [tuple(simulate_program(prog, list(inputs), PARAMS,
                                   engine="cooperative").values)
            for prog, inputs in jobs]


def test_batched_process_stream_is_bit_identical_and_amortized():
    """Same-tenant same-shape jobs share fork generations — and still
    come back bit-identical to unserved runs."""
    jobs = [(SCAN if j % 2 else SCANRED,
             [float(r + j) for r in range(P)]) for j in range(32)]
    expected = _refs(jobs)
    with ServingManager(ServingConfig(
            workers=2, substrate="process", batch_max=8,
            queue_capacity=64)) as mgr:
        handles = [mgr.submit(prog, inputs, PARAMS, tenant="batch")
                   for prog, inputs in jobs]
        got = [h.result(timeout=120.0) for h in handles]
        batched = [e for e in mgr.events.of_kind("start") if "batch" in e]
    assert got == expected
    assert batched, "no fork generation ever carried more than one job"


def test_one_sigkill_retries_to_bit_identical():
    """A single kill of the first fork generation: the ladder retries
    and the job completes bit-identically, with the story in the log."""
    fired = threading.Event()

    def sniper(procs, info):
        if not fired.is_set():
            fired.set()
            os.kill(procs[0].pid, signal.SIGKILL)

    (expected,) = _refs([(SCAN, [1.0, 2.0, 3.0, 4.0])])
    with ServingManager(ServingConfig(
            workers=1, substrate="process", batch_max=1,
            retry=RetryPolicy(quarantine_after=5, backoff_base=0.01,
                              backoff_cap=0.05),
            demote_after=10_000, spawn_hook=sniper)) as mgr:
        handle = mgr.submit(SCAN, [1.0, 2.0, 3.0, 4.0], PARAMS)
        assert handle.result(timeout=120.0) == expected
        kinds = [e["event"] for e in mgr.events.log.events
                 if e.get("job") == handle.job_id]
        stats = mgr.stats()
    assert fired.is_set()
    assert "retry" in kinds
    assert kinds[-1] == "complete"
    assert stats["retries"] >= 1


def test_persistent_killer_quarantines_with_forensics():
    """A job killed on every attempt exhausts ``quarantine_after`` and
    surfaces as PoisonJobError with one forensics line per attempt —
    while an innocent tenant's concurrent job completes untouched."""
    policy = RetryPolicy(quarantine_after=3, backoff_base=0.01,
                         backoff_cap=0.02)

    def sniper(procs, info):
        if info.get("tenant") == "victim":
            os.kill(procs[0].pid, signal.SIGKILL)

    (expected,) = _refs([(SCAN, [5.0, 6.0, 7.0, 8.0])])
    with ServingManager(ServingConfig(
            workers=2, substrate="process", batch_max=1, retry=policy,
            demote_after=10_000, spawn_hook=sniper)) as mgr:
        doomed = mgr.submit(SCAN, [1.0] * P, PARAMS, tenant="victim")
        innocent = mgr.submit(SCAN, [5.0, 6.0, 7.0, 8.0], PARAMS,
                              tenant="bystander")
        assert innocent.result(timeout=120.0) == expected
        with pytest.raises(PoisonJobError) as exc_info:
            doomed.result(timeout=120.0)
        stats = mgr.stats()
    err = exc_info.value
    assert err.crashes == 3
    assert len(err.forensics) == 3
    assert all("attempt" in line for line in err.forensics)
    assert stats["quarantined"] == 1
    assert mgr.events.of_kind("quarantine")


def test_retry_backoff_caps_exponential_growth():
    """The ladder sleeps ``min(cap, base * 2^(crashes-1))`` between
    respawns: three kills with base 0.05/cap 0.1 back off 0.05 + 0.1 +
    0.1, so the whole affair stays under a second."""
    kills = []

    def sniper(procs, info):
        if len(kills) < 3:
            kills.append(time.monotonic())
            os.kill(procs[0].pid, signal.SIGKILL)

    with ServingManager(ServingConfig(
            workers=1, substrate="process", batch_max=1,
            retry=RetryPolicy(quarantine_after=10, backoff_base=0.05,
                              backoff_cap=0.1),
            demote_after=10_000, spawn_hook=sniper)) as mgr:
        handle = mgr.submit(SCAN, [1.0] * P, PARAMS)
        handle.result(timeout=120.0)
        backoffs = [e["backoff"] for e in mgr.events.of_kind("retry")]
    assert backoffs == [0.05, 0.1, 0.1]


def test_circuit_breaker_demotes_under_sustained_kills():
    """Sustained incidents trip the breaker: the substrate drops to
    ``threaded``, the doomed job completes there bit-identically, and
    the demotion is a loud ``fallback`` event."""
    def sniper(procs, info):
        os.kill(procs[0].pid, signal.SIGKILL)  # every fork generation dies

    (expected,) = _refs([(SCAN, [1.0, 2.0, 3.0, 4.0])])
    with ServingManager(ServingConfig(
            workers=1, substrate="process", batch_max=1,
            retry=RetryPolicy(quarantine_after=100, backoff_base=0.01,
                              backoff_cap=0.02),
            demote_after=2, spawn_hook=sniper)) as mgr:
        handle = mgr.submit(SCAN, [1.0, 2.0, 3.0, 4.0], PARAMS)
        assert handle.result(timeout=120.0) == expected
        stats = mgr.stats()
        fallback = mgr.events.of_kind("fallback")
    assert stats["substrate"] in ("threaded", "cooperative")
    assert stats["demotions"] >= 1
    assert fallback and fallback[0]["source"] == "process"


def test_batch_incident_respawns_all_mates_solo():
    """Killing a multi-job fork generation requeues every batch-mate
    for solo execution; all of them still complete bit-identically and
    the batch retry charges nobody's crash counter."""
    fired = threading.Event()

    def sniper(procs, info):
        if len(info.get("jobs", ())) > 1 and not fired.is_set():
            fired.set()
            os.kill(procs[0].pid, signal.SIGKILL)

    jobs = [(SCAN, [float(r + j) for r in range(P)]) for j in range(6)]
    expected = _refs(jobs)
    with ServingManager(ServingConfig(
            workers=1, substrate="process", batch_max=6,
            retry=RetryPolicy(quarantine_after=2, backoff_base=0.01,
                              backoff_cap=0.02),
            demote_after=10_000, spawn_hook=sniper)) as mgr:
        handles = [mgr.submit(prog, inputs, PARAMS, tenant="batch")
                   for prog, inputs in jobs]
        got = [h.result(timeout=120.0) for h in handles]
        batch_retries = [e for e in mgr.events.of_kind("retry")
                         if e.get("scope") == "batch"]
    assert fired.is_set(), "no multi-job fork generation ever formed"
    assert got == expected
    assert batch_retries, "batch incident never logged a batch retry"
