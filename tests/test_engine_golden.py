"""The cooperative engine runs over the shared kernel exactly as it ran alone.

``tests/data/engine_golden_v1.json`` was written by :func:`golden_doc`
with the ``src`` of PR 17 on ``PYTHONPATH`` — the last commit whose
``machine/engine.py`` matched, clocked and resolved fault verdicts in its
own sweep.  The corpus is the conformance generator's (``seed 0``: the
rule templates, the planner cases and random programs, each as written
and as ``optimize`` plans it), run on the cooperative engine at
p ∈ {1, 2, 3, 4, 8} fault-free and under the chaos deck's seed-0 plans
(``FaultPlan.sample(case_seed * 7919 + k, p, horizon)``, k < 3).  Per
block of ``CHUNK`` programs the file keeps one hash of every run's
``(values, time, clocks, messages, words, compute_ops, timeline, events,
faults)`` — or of the exception's type and text — which
``run_spmd`` over :mod:`repro.machine.rendezvous` must reproduce.

Two ``FaultSummary`` fields are left out of that hash because this PR
redefines them (``docs/FAULTS.md``): ``timeouts`` is now sorted by link
rather than listed in arrival order, and ``extra_delay`` is the
``math.fsum`` over matched pairs rather than a running sum.  They are
held separately in an order-free form — the hash of the *sorted*
timeouts, and each block's ``fsum`` of ``extra_delay`` compared to
1e-12 — so the change is visible as exactly that and nothing more.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.optimizer import optimize
from repro.core.rules import ALL_RULES
from repro.faults import FaultPlan
from repro.machine.run import simulate_program
from repro.testing.generator import (
    PLANNER_CASES,
    RULE_CASES,
    generate_from_case,
    generate_planner_case,
    generate_random,
)
from repro.testing.soundness import sample_machine_params

GOLDEN = Path(__file__).parent / "data" / "engine_golden_v1.json"

#: programs per hash
CHUNK = 50
ITERS = 150
SIZES = (1, 2, 3, 4, 8)
PLANS_PER_CASE = 3


def _record(program, xs, params, plan):
    """``(core, timeouts, extra_delay, time)`` of one cooperative run;
    ``time`` is None when it raised."""
    try:
        res = simulate_program(program, list(xs), params, faults=plan)
    except Exception as exc:  # noqa: BLE001 - the text is the golden
        return [type(exc).__name__, str(exc)], [], 0.0, None
    stats, faults = res.stats, res.faults
    core = [repr(res.values), repr(res.time), repr(stats.clocks),
            stats.messages, repr(stats.words), repr(stats.compute_ops),
            repr(stats.timeline), repr(stats.events),
            None if faults is None else repr(replace(
                faults, timeouts=(), extra_delay=0.0))]
    if faults is None:
        return core, [], 0.0, res.time
    return core, sorted(faults.timeouts), faults.extra_delay, res.time


def case_records(i: int) -> list:
    """Every run of conformance case ``i``: as written and as planned,
    each machine size, fault-free and under each sampled plan."""
    case_seed = i  # the conformance deck's seed 0
    rng = random.Random(case_seed)
    slot = i % (len(RULE_CASES) + len(PLANNER_CASES) + 1)
    if slot < len(RULE_CASES):
        gp = generate_from_case(rng, RULE_CASES[slot])
    elif slot < len(RULE_CASES) + len(PLANNER_CASES):
        gp = generate_planner_case(PLANNER_CASES[slot - len(RULE_CASES)])
    else:
        gp = generate_random(rng)
    proto = sample_machine_params(rng)
    out = []
    for n in SIZES:
        params = proto.with_(p=n)
        xs = gp.inputs(rng, n)
        planned = optimize(gp.program, params, rules=ALL_RULES).program
        for program in (gp.program, planned):
            free = _record(program, xs, params, None)
            out.append(free)
            horizon = free[-1]
            if n < 2 or horizon is None:
                continue
            for k in range(PLANS_PER_CASE):
                plan = FaultPlan.sample(case_seed * 7919 + k, n, horizon)
                out.append(_record(program, xs, params, plan))
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    doc = {"programs": ITERS, "runs": 0, "core": [], "timeouts": [],
           "extra_delay": []}
    for at in range(0, ITERS, CHUNK):
        records = [r for i in range(at, min(at + CHUNK, ITERS))
                   for r in case_records(i)]
        doc["runs"] += len(records)
        doc["core"].append(_digest([r[0] for r in records]))
        doc["timeouts"].append(_digest([r[1] for r in records]))
        doc["extra_delay"].append(math.fsum(r[2] for r in records))
    return doc


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def today() -> dict:
    return golden_doc()


def test_corpus_is_the_one_the_golden_was_written_over(today, golden):
    assert (today["programs"], today["runs"]) == \
        (golden["programs"], golden["runs"])


def test_cooperative_runs_reproduce_the_parent_engine(today, golden):
    differing = [f"programs {i * CHUNK}–{i * CHUNK + CHUNK - 1}"
                 for i, (g, w) in enumerate(zip(today["core"], golden["core"]))
                 if g != w]
    assert not differing, differing


def test_redefined_summary_fields_differ_only_in_order(today, golden):
    # sorted timeouts hash alike whichever order the engine listed them
    # in; fsum and the parent's running sum agree to rounding
    assert today["timeouts"] == golden["timeouts"]
    for got, want in zip(today["extra_delay"], golden["extra_delay"]):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
