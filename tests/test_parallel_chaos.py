"""Real-crash chaos for the process backend: SIGKILL/SIGSTOP roulette.

The other chaos suites fire *simulated* faults; this one kills actual
OS processes.  A randomly chosen rank is SIGKILLed (or SIGSTOPped) at a
randomly chosen stage, at a random wall-clock offset into the attempt,
across ``p in {2, 4, 8}`` — at least 200 runs by default
(``REPRO_PROCESS_CHAOS_RUNS`` scales the sweep for CI).  The headline
invariant, the same one the recovery runtime promises for simulated
faults: a supervised run either produces values **bit-identical** to
the fault-free reference, or raises a typed ``UnrecoverableError`` —
never a hang (SIGALRM backstop), never defined-but-wrong, never an
untyped error.  A *single* kill is always survivable, so the property
sharpens to "always bit-identical"; the persistent-killer tests cover
the shrink / fallback / refusal endgames.
"""

from __future__ import annotations

import os
import random
import signal
import threading

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import AllReduceStage, BcastStage, Program, ScanStage
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.parallel.errors import WorkerCrashError, WorkerHangError
from repro.recovery import RecoveryPolicy, UnrecoverableError, supervise

pytestmark = pytest.mark.skipif(
    process_fallback_reason(2) is not None,
    reason=f"process backend unavailable: {process_fallback_reason(2)}")

PROG = Program([BcastStage(), ScanStage(ADD), AllReduceStage(ADD)],
               name="bcast;scan;allreduce")
PARAMS = {p: MachineParams(p=p, ts=600.0, tw=2.0) for p in (2, 4, 8)}
INPUTS = {p: [float(i + 1) for i in range(p)] for p in (2, 4, 8)}
REFS = {p: simulate_program(PROG, INPUTS[p], PARAMS[p], engine="threaded")
        for p in (2, 4, 8)}

#: total kill-roulette runs across all p (>= 200 for the acceptance
#: sweep; CI can lower it for smoke jobs)
TOTAL_RUNS = int(os.environ.get("REPRO_PROCESS_CHAOS_RUNS", "208"))
#: sweep weights — small machines are cheap, spend more runs there
_WEIGHTS = {2: 4, 4: 3, 8: 1}
RUNS = {p: max(8, TOTAL_RUNS * w // sum(_WEIGHTS.values()))
        for p, w in _WEIGHTS.items()}


@pytest.fixture(autouse=True)
def _hang_backstop():
    """Never a hang: pytest-timeout is CI-only, so the local backstop is
    a plain SIGALRM sized for the largest sweep."""
    if hasattr(signal, "SIGALRM"):
        def _fire(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("process chaos exceeded the hang backstop")

        old = signal.signal(signal.SIGALRM, _fire)
        signal.alarm(420)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    else:  # pragma: no cover - non-POSIX
        yield


class _Sniper:
    """Kills one live child at a sampled (stage, rank, delay).

    The delay lands the signal at an arbitrary point of the attempt's
    real execution — mid-rendezvous, mid-ring-transfer, or even after
    the stage finished (a no-op kill on an exited child is a legal
    sample too: the invariant must hold for every timing).
    """

    def __init__(self, rng: random.Random, p: int, stages: int,
                 sig: int = signal.SIGKILL):
        self.stage = rng.randrange(stages)
        self.rank = rng.randrange(p)
        self.delay = rng.uniform(0.0, 0.05)
        self.sig = sig
        self.fired = False
        self._timers: list[threading.Timer] = []

    def __call__(self, procs, info):
        if self.fired or info.get("stage") != self.stage:
            return
        self.fired = True
        victim = procs[self.rank]

        def _shoot():
            try:
                if victim.is_alive():
                    os.kill(victim.pid, self.sig)
            except (ProcessLookupError, ValueError):  # pragma: no cover
                pass  # already reaped - a legal (no-op) sample

        if self.delay == 0.0:
            _shoot()
        else:
            timer = threading.Timer(self.delay, _shoot)
            timer.daemon = True
            self._timers.append(timer)
            timer.start()

    def cleanup(self) -> None:
        for timer in self._timers:
            timer.cancel()


@pytest.mark.parametrize("p", (2, 4, 8))
def test_sigkill_roulette_recovers_bit_identical(p):
    """SIGKILL a random rank at a random stage and wall-clock offset:
    a single kill is always survivable, so supervision must *always*
    come back bit-identical to the fault-free run."""
    ref = REFS[p]
    for case in range(RUNS[p]):
        rng = random.Random(911_000_000 + 1009 * p + case)
        sniper = _Sniper(rng, p, len(PROG.stages))
        try:
            res = supervise(PROG, INPUTS[p], PARAMS[p], engine="process",
                            spawn_hook=sniper)
        except UnrecoverableError:  # pragma: no cover - single kill
            pytest.fail(f"single SIGKILL (p={p}, case={case}, "
                        f"stage={sniper.stage}, rank={sniper.rank}) "
                        f"must be survivable")
        finally:
            sniper.cleanup()
        # bit-identical VALUES; simulated time may grow by checkpoint
        # and respawn-backoff overhead, which is the supervisor's price
        assert list(res.values) == list(ref.values), (
            f"p={p} case={case} stage={sniper.stage} rank={sniper.rank} "
            f"delay={sniper.delay:.3f}")
        if sniper.fired and any(
                e["event"] in ("child_exit", "heartbeat_miss")
                for e in res.log.events):
            assert any(e["event"] == "respawn" for e in res.log.events)


def test_sweep_is_at_least_200_runs():
    """The acceptance floor: the roulette above covers >= 200 real-kill
    supervised runs at the default setting."""
    if TOTAL_RUNS >= 200:
        assert sum(RUNS.values()) >= 200
    else:  # smoke setting: still a real sweep on every machine size
        assert all(RUNS[p] >= 8 for p in RUNS)


def test_sigstop_hang_detected_and_respawned():
    """A SIGSTOPped (not dead, just silent) child trips the heartbeat
    watchdog and is respawned; values stay bit-identical."""
    p = 4
    stopped: dict[int, bool] = {}

    def hook(procs, info):
        if not stopped and info.get("stage") == 1:
            stopped[0] = True
            os.kill(procs[2].pid, signal.SIGSTOP)

    res = supervise(PROG, INPUTS[p], PARAMS[p], engine="process",
                    spawn_hook=hook, hb_timeout=1.0)
    assert list(res.values) == list(REFS[p].values)
    kinds = [e["event"] for e in res.log.events]
    assert "heartbeat_miss" in kinds
    assert "respawn" in kinds


def test_persistent_killer_shrinks_or_refuses():
    """A killer that murders the same rank on *every* attempt exhausts
    the respawn budget; the supervisor must shrink onto survivors (still
    bit-identical) or refuse with a typed error — never hang or lie."""
    p = 4
    victim = 1

    def hook(procs, info):
        if victim in info.get("hosts", range(p)):
            os.kill(procs[victim].pid, signal.SIGKILL)

    policy = RecoveryPolicy(max_respawns=1)
    try:
        res = supervise(PROG, INPUTS[p], PARAMS[p], engine="process",
                        spawn_hook=hook, policy=policy)
    except UnrecoverableError:
        return  # typed refusal is the other legal outcome
    assert list(res.values) == list(REFS[p].values)
    assert any(dead == victim for dead, _ in res.shrinks)


def test_omnicidal_killer_falls_back_loudly():
    """A killer that shoots a *random* live rank on every attempt keeps
    incidents coming; once the per-stage incident budget is spent the
    supervisor must abandon real processes for the threaded engine
    (logged as a ``fallback`` event) and still finish bit-identically."""
    p = 4
    rng = random.Random(4242)

    def hook(procs, info):
        hosts = [h for h in info.get("hosts", range(p))]
        if hosts:
            os.kill(procs[rng.choice(hosts)].pid, signal.SIGKILL)

    policy = RecoveryPolicy(max_respawns=0, process_fallback_after=2)
    try:
        res = supervise(PROG, INPUTS[p], PARAMS[p], engine="process",
                        spawn_hook=hook, policy=policy)
    except UnrecoverableError:
        return  # all hosts murdered before the fallback tripped: typed
    assert list(res.values) == list(REFS[p].values)
    (event,) = res.log.of_kind("fallback")
    stage = event["stage"]
    assert event == {
        "event": "fallback", "stage": stage, "source": "process",
        "target": "threaded",
        "reason": "2 process incidents on one stage (threshold 2)"}
    assert res.log.of_kind("start")[0]["engine"] == "process"


class TestUnsupervised:
    """Without a supervisor there is no recovery — but still no hangs
    and no lies: a real kill surfaces as a typed incident with forensics."""

    def test_sigkill_raises_worker_crash(self):
        p = 2

        def hook(procs, info):
            os.kill(procs[1].pid, signal.SIGKILL)

        from repro.parallel.backend import process_spmd_run

        def program(comm, x):
            return comm.scan(x, op=ADD)

        with pytest.raises(WorkerCrashError) as exc_info:
            process_spmd_run(program, INPUTS[p], PARAMS[p],
                             spawn_hook=hook)
        err = exc_info.value
        assert err.rank == 1
        assert err.exitcode == -signal.SIGKILL
        assert "rank" in str(err)

    def test_errors_pickle_round_trip(self):
        import pickle
        for err in (WorkerCrashError(3, -9, "detail"),
                    WorkerHangError(2, 1.5, "silent")):
            clone = pickle.loads(pickle.dumps(err))
            assert type(clone) is type(err)
            assert clone.rank == err.rank
            assert str(clone) == str(err)
