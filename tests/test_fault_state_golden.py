"""One fault interpreter plays every plan exactly as the three did.

``tests/data/fault_state_golden_v1.json`` was written by
:func:`golden_doc` with the ``src`` of the last commit at which the
fault verdict had three interpreters on ``PYTHONPATH``:
``FaultState`` with twelve storage hooks, ``SupervisedFaultState`` adding
the host map and quarantine on top, and the process engine's
``ArenaFaultState`` re-implementing every hook on arena cells.

The sweep is the chaos deck's: 30 cases dealt by ``deal_cases(0, …)``
with ``RULE_CASES``, each drawing its machine size, parameters and inputs
as :func:`repro.testing.chaos.run_chaos` does, and 2 plans per case
sampled by ``FaultPlan.sample`` over the fault-free makespan.  For each
plan it keeps:

* on the cooperative, threaded and process engines, what
  ``simulate_program(…, faults=plan)`` returned — the ``UNDEF`` mask, the
  per-rank clocks and every :class:`~repro.faults.FaultSummary` field —
  or the class of the typed error it raised;
* on the cooperative engine only, what ``supervise`` returned — the
  aggregate summary, attempts, replays, quarantined links, shrinks and
  makespan — or its error class.  (Engines may see simultaneous faults
  in different orders, so supervised attempts are not compared across
  engines; see ``run_chaos_recovery``.)

Every leaf is a ``repr`` or an int, so equal records are equal bytes.
The process rows only run real processes where the backend can fork
(they fall back to the threaded engine, with identical results, elsewhere).

Regenerate (deliberately, with the reason in the commit)::

    REPRO_PARALLEL_FORCE=1 PYTHONPATH=src python tests/test_fault_state_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF
from repro.testing.generator import RULE_CASES, deal_cases
from repro.testing.soundness import sample_machine_params

GOLDEN = Path(__file__).parent / "data" / "fault_state_golden_v1.json"

CASES = 30
PLANS_PER_CASE = 2
SIZES = (2, 3, 4, 5, 8)
ENGINES = ("cooperative", "threaded", "process")


def _deck():
    """``(key, program, inputs, params, plan)`` for every sampled plan."""
    for i, case_seed, rng, gp, _template in deal_cases(0, CASES, RULE_CASES):
        n = rng.choice(SIZES)
        params = sample_machine_params(rng).with_(p=n)
        xs = gp.inputs(rng, n)
        horizon = simulate_program(gp.program, list(xs), params).time
        for k in range(PLANS_PER_CASE):
            plan = FaultPlan.sample(case_seed * 7919 + k, n, horizon=horizon)
            yield f"{i:02d}/{k}", gp.program, xs, params, plan


def _summary(summary) -> dict | None:
    if summary is None:
        return None
    return {f.name: repr(getattr(summary, f.name))
            for f in dataclasses.fields(summary)}


def _faulted(engine: str, program, xs, params, plan) -> dict:
    try:
        res = simulate_program(program, list(xs), params, faults=plan,
                               engine=engine)
    except Exception as exc:  # noqa: BLE001 - the error class is the record
        return {"error": type(exc).__name__}
    return {"undef": repr(tuple(v is UNDEF for v in res.values)),
            "clocks": repr(tuple(res.stats.clocks)),
            "faults": _summary(res.faults)}


def _supervised(program, xs, params, plan) -> dict:
    from repro.recovery import supervise

    try:
        res = supervise(program, list(xs), params, faults=plan)
    except Exception as exc:  # noqa: BLE001 - the error class is the record
        return {"error": type(exc).__name__}
    return {"faults": _summary(res.faults), "attempts": res.attempts,
            "replays": res.replays, "quarantined": repr(res.quarantined),
            "shrinks": repr(res.shrinks), "time": repr(res.time)}


def faulted_records(engine: str) -> dict:
    return {key: _faulted(engine, *case) for key, *case in _deck()}


def supervised_records() -> dict:
    return {key: _supervised(*case) for key, *case in _deck()}


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    doc = {engine: faulted_records(engine) for engine in ENGINES}
    doc["supervise"] = supervised_records()
    return doc


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", ENGINES)
def test_faulted_runs_match_the_three_interpreters(engine, golden):
    assert len(golden[engine]) == CASES * PLANS_PER_CASE
    assert faulted_records(engine) == golden[engine]


def test_supervised_runs_match_the_three_interpreters(golden):
    assert supervised_records() == golden["supervise"]


if __name__ == "__main__":
    os.environ.setdefault("REPRO_PARALLEL_FORCE", "1")
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1, sort_keys=True) + "\n")
