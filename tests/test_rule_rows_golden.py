"""Seventeen rows match and rewrite what seventeen classes did.

``tests/data/rule_rows_golden_v1.json`` was written by :func:`golden_doc`
with the ``src`` of PR 21 on ``PYTHONPATH`` — the last commit at which
every rule of ``repro.core.rules`` was a hand-written class with its own
``match`` body.  For every rule of ``FULL_RULES`` and every window of the
rule's width over :data:`ALPHABET` it holds whether the rule matches and,
where it does, the ``pretty()``, ``token()`` and ``origin`` of every
stage of ``rewrite(window, general=False)`` and of ``general=True`` —
stored sparse: a window that is not listed did not match — beside the
rule's declared facts.  The alphabet is chosen so that every arm of every
side condition has windows on both sides: distributive and
non-distributive pairs, commutative and non-commutative operators
(``concat``, the segmented transformer), elementwise and scalar ones,
matching and mismatching ``counts``, and a map that no rule admits.

Regenerated once, deliberately, when a derived operator's signature
came to carry its ``op_count``, its width and its components'
signatures: only the ``token()`` of a comcast, iter or balanced stage
changed (every changed line holds a ``derived`` signature), and with
the old class-and-name signature put back the file reproduces byte for
byte.

Regenerate (deliberately, with the reason in the commit)::

    PYTHONPATH=src python tests/test_rule_rows_golden.py
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest

from repro.core.operators import ADD, CONCAT, EW_ADD, EW_MAX, MAX, MIN, MUL
from repro.core.rules import FULL_RULES
from repro.core.segmented import segmented_op
from repro.core.stages import (
    AllGatherVStage,
    AllReduceStage,
    BcastStage,
    MapStage,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
)

GOLDEN = Path(__file__).parent / "data" / "rule_rows_golden_v1.json"

OPS = (ADD, MUL, MAX, MIN, CONCAT, segmented_op(ADD), EW_ADD, EW_MAX)
COUNTS = (1, 3)

#: thirty stages, told apart by their ``pretty()``
ALPHABET = (
    BcastStage(),
    *(cls(op) for cls in (ScanStage, ReduceStage, AllReduceStage)
      for op in OPS),
    ReduceScatterStage(EW_ADD),
    ReduceScatterStage(EW_ADD, counts=COUNTS),
    AllGatherVStage(),
    AllGatherVStage(counts=COUNTS),
    MapStage(lambda x: x, label="f", ops_per_element=1),
)


def _stages(stages) -> list:
    return [[s.pretty(), repr(s.token()), s.origin] for s in stages]


def rule_doc(rule) -> dict:
    """The rule's declared facts and its rewrite of every window of its
    width it matches."""
    matches = {}
    for window in product(ALPHABET, repeat=rule.window):
        if rule.match(window):
            matches[" ; ".join(s.pretty() for s in window)] = {
                "strict": _stages(rule.rewrite(window, general=False)),
                "general": _stages(rule.rewrite(window, general=True)),
            }
    return {
        "window": rule.window,
        "lossy_nonroot": rule.lossy_nonroot,
        "requires_power_of_two": rule.requires_power_of_two,
        "condition_text": rule.condition_text,
        "improvement_text": rule.improvement_text,
        "matches": matches,
    }


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    return {"alphabet": [s.pretty() for s in ALPHABET],
            "rules": {rule.name: rule_doc(rule) for rule in FULL_RULES}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_alphabet_and_the_rule_set_are_the_golden_ones(golden):
    assert [s.pretty() for s in ALPHABET] == golden["alphabet"]
    assert len(set(golden["alphabet"])) == len(ALPHABET) == 30
    assert [rule.name for rule in FULL_RULES] == list(golden["rules"])


@pytest.mark.parametrize("rule", FULL_RULES, ids=lambda rule: rule.name)
def test_rule_matches_and_rewrites_as_before(rule, golden):
    expected = golden["rules"][rule.name]
    assert expected["matches"]  # every rule fires somewhere in the alphabet
    assert rule_doc(rule) == expected


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def test_the_whole_file_reproduces_byte_for_byte():
    assert _dump(golden_doc()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_doc()))
