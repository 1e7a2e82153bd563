"""Chaos conformance with the recovery runtime in the loop.

The headline invariant of the recovery subsystem, checked over hundreds
of sampled fault plans on BOTH engines: a survivable ``FaultPlan``
produces results ``defined_equal`` to the fault-free run (with the same
``UNDEF`` mask — recovery masks faults completely), and an unsurvivable
plan ends in a typed ``UnrecoverableError`` naming the exhausted policy.
Never a hang (a SIGALRM backstop turns one into a test failure), never
defined-but-wrong.
"""

from __future__ import annotations

import signal

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import Program, ScanStage
from repro.testing import run_chaos_recovery
from repro.testing.chaos import recovered_run


@pytest.fixture(autouse=True)
def _hang_backstop():
    """No supervised run may hang; pytest-timeout is CI-only, so the
    local backstop is a plain SIGALRM."""
    if hasattr(signal, "SIGALRM"):
        def _fire(signum, frame):  # pragma: no cover - only on regression
            raise TimeoutError("chaos recovery exceeded the hang backstop")

        old = signal.signal(signal.SIGALRM, _fire)
        signal.alarm(300)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    else:  # pragma: no cover - non-POSIX
        yield


class TestRecoveryInvariant:
    def test_200_plans_across_both_engines(self):
        """The acceptance sweep: >= 200 sampled plans, each supervised on
        both engines, zero contract violations."""
        report = run_chaos_recovery(seed=0, iters=50, plans_per_case=4)
        assert report.plan_runs >= 400  # 200 plans x 2 engines
        assert report.ok, report.describe()
        # every non-recovered run refused with the one legal error type
        assert set(report.error_kinds) <= {"UnrecoverableError"}
        # the sweep is not vacuous: most plans are survivable and recover
        assert report.completed >= report.plan_runs // 2

    def test_second_seed(self):
        report = run_chaos_recovery(seed=1, iters=25, plans_per_case=4)
        assert report.ok, report.describe()
        assert report.plan_runs == 200

    def test_deterministic_replay(self):
        a = run_chaos_recovery(seed=3, iters=10, plans_per_case=2)
        b = run_chaos_recovery(seed=3, iters=10, plans_per_case=2)
        assert a.describe() == b.describe()
        assert a.completed == b.completed
        assert a.error_kinds == b.error_kinds


class TestRecoveredRun:
    PARAMS = MachineParams(p=4, ts=10.0, tw=1.0, m=4)
    PROG = Program([ScanStage(ADD)], name="scan")

    def test_classifies_recovery(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 2, "drop", count=None),))
        out = recovered_run("cooperative", self.PROG, [1, 2, 3, 4],
                            self.PARAMS, plan)
        assert out.ok
        assert out.values == (1, 3, 6, 10)
        assert "replays=" in out.detail

    def test_classifies_refusal(self):
        params = MachineParams(p=2, ts=10.0, tw=1.0, m=4)
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),))
        out = recovered_run("cooperative", self.PROG, [1, 2], params, plan)
        assert out.kind == "UnrecoverableError"
        assert "[link-quarantine]" in out.detail

    def test_failure_replay_line_carries_recover_flag(self):
        from repro.testing.chaos import ChaosFailure

        failure = ChaosFailure(kind="recovery", iteration=3, plan_index=1,
                               case_seed=9, plan_seed=17, base_seed=0,
                               detail="d", flags=" --recover")
        assert "--chaos --recover" in failure.describe()
