"""The three case decks deal the cards they dealt before they shared a dealer.

``tests/data/chaos_deck_golden_v1.json`` was written by :func:`golden_doc`
with the ``src`` of PR 20 on ``PYTHONPATH`` — the last commit at which
``run_conformance``, ``run_chaos`` and ``run_chaos_recovery`` each
carried their own case loop (``seed * 1_000_003 + i``, the slot cycle,
sizes, params, plan seeds) and ``faulted_run`` / ``recovered_run`` their
own outcome classifier.  A report's ``describe()`` counts every case,
run, completion, degradation and error kind the deck produced, so one
moved draw of the case ``rng`` or one re-ordered check shows up as a
changed byte.

The passing reports cannot show the failure path, so each chaos deck is
also run once with its runner patched to return a wrong block on the
second engine; every failure the failing case records is pinned by its
``describe()`` — kind, seeds, the forensic detail and the replay line
with its flags.  They are compared sorted: the order in which one plan's
violations are listed is the one thing the two decks did differently for
no reason, and it is not part of the contract.

Regenerate (deliberately, with the reason in the commit)::

    PYTHONPATH=src python tests/test_chaos_deck_golden.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.semantics.functional import UNDEF
from repro.testing import chaos, run_chaos, run_chaos_recovery, run_conformance

GOLDEN = Path(__file__).parent / "data" / "chaos_deck_golden_v1.json"

REPORTS = {
    "conformance-seed0": lambda: run_conformance(seed=0, iters=30),
    "chaos-seed0": lambda: run_chaos(seed=0, iters=15, plans_per_case=3),
    "chaos-seed123": lambda: run_chaos(seed=123, iters=15, plans_per_case=3),
    "chaos-seed11-jit": lambda: run_chaos(
        seed=11, iters=4, plans_per_case=2, engines=("cooperative", "jit")),
    "recovery-seed0": lambda: run_chaos_recovery(
        seed=0, iters=10, plans_per_case=4),
    "recovery-seed3": lambda: run_chaos_recovery(
        seed=3, iters=10, plans_per_case=4),
}

#: deck -> (the runner to patch, the sweep that must then fail)
INJECTED = {
    "chaos": ("faulted_run", lambda: run_chaos(
        seed=5, iters=6, plans_per_case=2, max_failures=1)),
    "recovery": ("recovered_run", lambda: run_chaos_recovery(
        seed=5, iters=6, plans_per_case=2, max_failures=1)),
}


def _lying(runner):
    """``runner``, except that the threaded engine's first defined block
    of a completed run comes back wrong."""
    def run(engine, *args, **kwargs):
        out = runner(engine, *args, **kwargs)
        if engine != "threaded" or not out.ok:
            return out
        values = list(out.values)
        for at, value in enumerate(values):
            if value is not UNDEF:
                values[at] = "<wrong>"
                break
        return replace(out, values=tuple(values))
    return run


def injected_failure(deck: str, patch) -> str:
    name, sweep = INJECTED[deck]
    patch(chaos, name, _lying(getattr(chaos, name)))
    report = sweep()
    assert not report.ok
    return "\n\n".join(sorted(f.describe() for f in report.failures))


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    doc = {"reports": {key: run().describe() for key, run in REPORTS.items()},
           "injected": {}}
    for deck, (name, _sweep) in INJECTED.items():
        real = getattr(chaos, name)
        try:
            doc["injected"][deck] = injected_failure(deck, setattr)
        finally:
            setattr(chaos, name, real)
    return doc


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", REPORTS)
def test_report_is_byte_identical(key, golden):
    assert REPORTS[key]().describe() == golden["reports"][key]


@pytest.mark.parametrize("deck", INJECTED)
def test_injected_failure_describes_itself_as_before(deck, golden,
                                                     monkeypatch):
    got = injected_failure(deck, monkeypatch.setattr)
    assert got == golden["injected"][deck]
    assert got.splitlines()[-1].startswith(
        "replay   : python -m repro conformance --chaos")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_doc(), indent=1) + "\n")
