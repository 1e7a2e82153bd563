"""The interval reading of the tapes proves exactly what the recursions proved.

``tests/data/bounds_golden_v1.json`` was written by :func:`golden_doc`
with the ``src`` of PR 18 on ``PYTHONPATH`` — the last commit whose
``jit/bounds.py`` walked ``kind`` / ``parts`` and the map labels itself
(``slot_count``, ``combine_intervals``, the ``map_intervals`` if-chain)
beside the tape the compiler ran.  The corpus is the conformance
generator's numeric one (``seed 0``: the rule templates, the planner
cases and random programs over the ``int`` and ``vec`` domains), each as
written and as ``optimize(rules=FULL_RULES, strategy="beam")`` plans it
at p ∈ {1, 2, 3, 4, 8, 16}, unfused and with its local stages fused — plus
a hand-made vocabulary of componentwise products (the generator draws
none), which reaches leaf widths 3 and 4 through ``triple`` / ``quadruple``.
Over a grid of input hulls that straddles ``2**62`` the file keeps, per
block of ``CHUNK`` programs, one hash of every ``analyze_stages`` verdict
and one of every fold's ``fold_intervals`` hull with the worst magnitude
it recorded (at every leaf width of 1–4 the fold accepts on two blocks),
which the tapes' interval reading must reproduce.

The one thing this module may not ask of both commits alike is *what a
fold is handed*: the parent's ``fold_intervals`` read the operator, this
PR's reads the operator's tape bound to interval rows (:func:`_proof_form`).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.derived_ops import sr2_op
from repro.core.operators import ADD, MAX, MIN, MUL, product_op
from repro.core.optimizer import optimize
from repro.core.rewrite import fuse_local_stages
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.jit.bounds import BoundsCtx, fold_intervals
from repro.testing.generator import (
    PLANNER_CASES,
    RULE_CASES,
    generate_from_case,
    generate_planner_case,
    generate_random,
)
from repro.testing.soundness import sample_machine_params

try:  # this PR on: the proof reads the tape the compiler runs
    from repro.jit.compiler import JitUnsupported, analyze_stages, bind, emit_combine
except ImportError:  # the parent, which wrote the golden, read the operator
    from repro.jit.bounds import analyze_stages

    emit_combine = None

GOLDEN = Path(__file__).parent / "data" / "bounds_golden_v1.json"

#: programs per hash
CHUNK = 25
ITERS = 150
SIZES = (1, 2, 3, 4, 8, 16)
BIG = 2 ** 62
#: inclusive input hulls, from a handful of values to just past the safe range
HULLS = ((0, 0), (1, 1), (-3, 3), (0, 1), (-1, 0), (2, 7), (-2 ** 20, 2 ** 20),
         (0, 2 ** 31), (-2 ** 31, 5), (2 ** 40, 2 ** 40 + 9), (-BIG // 16, BIG // 16),
         (0, BIG // 2), (-BIG // 2, 1), (BIG - 1, BIG - 1), (-BIG, BIG),
         (1, BIG + 1), (-BIG - 1, 0))


def _map(label: str) -> MapStage:
    return MapStage(lambda x: x, label=label)  # the proof reads the label only


#: products the generator does not draw, under every replicating map
HAND_MADE = (
    Program([_map("pair"), ScanStage(product_op(ADD, MUL)), _map("pi_1")]),
    Program([_map("inc;pair"), ReduceStage(product_op(MAX, MIN)),
             _map("pi_1;neg")]),
    Program([_map("triple"), AllReduceStage(product_op(product_op(ADD, MAX), MUL)),
             _map("pi_1"), _map("dbl")]),
    Program([_map("quadruple"), BcastStage(),
             ScanStage(product_op(sr2_op(MUL, ADD), product_op(MIN, ADD)))]),
    Program([_map("pair"), ScanStage(product_op(ADD, MUL)), _map("pair")]),
    Program([_map("triple"), ScanStage(product_op(ADD, MUL))]),
)


def _proof_form(op):
    """What ``fold_intervals`` reads for ``op`` (None: nothing to read)."""
    if emit_combine is None:
        return op
    try:
        return bind(emit_combine(op), "interval")
    except JitUnsupported:
        return None


def numeric_programs():
    """``(case, p, program)`` over the numeric corpus: each case as written
    and as planned, unfused and fused, on every machine size."""
    for i in range(ITERS):
        rng = random.Random(i)  # the conformance deck's seed 0
        slot = i % (len(RULE_CASES) + len(PLANNER_CASES) + 1)
        if slot < len(RULE_CASES):
            gp = generate_from_case(rng, RULE_CASES[slot])
        elif slot < len(RULE_CASES) + len(PLANNER_CASES):
            gp = generate_planner_case(PLANNER_CASES[slot - len(RULE_CASES)])
        else:
            gp = generate_random(rng)
        if gp.domain.name not in ("int", "vec"):
            continue
        proto = sample_machine_params(rng)
        for n in SIZES:
            planned = optimize(gp.program, proto.with_(p=n), rules=FULL_RULES,
                               strategy="beam").program
            for program in (gp.program, planned):
                yield i, n, program
                yield i, n, fuse_local_stages(program)
    for k, program in enumerate(HAND_MADE):
        for n in SIZES:
            yield ITERS + k, n, program
            yield ITERS + k, n, fuse_local_stages(program)


def _folds(program):
    """The operators the program folds with, definitions expanded."""
    return [stage.op for s in program.stages
            for stage in s.definition() or (s,) if hasattr(stage, "op")]


def _fold_record(op, p: int) -> list:
    read = _proof_form(op)
    if read is None:
        return []
    out = []
    for width in (1, 2, 3, 4):
        if fold_intervals(BoundsCtx(), read, ((0, 0),) * width, 2) is None:
            continue  # not this operator's width
        for hull in HULLS:
            ctx = BoundsCtx()
            got = fold_intervals(ctx, read, (hull,) * width, p)
            out.append(None if got is None
                       else [width, str(ctx.worst), repr(got)])
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    doc = {"programs": 0, "proven": 0, "hulls": 0, "verdicts": [], "folds": []}
    chunks: dict[int, tuple[list, list]] = {}
    fold_memo: dict[tuple, list] = {}
    for i, n, program in numeric_programs():
        verdicts, folds = chunks.setdefault(i // CHUNK, ([], []))
        row = [analyze_stages(program.stages, hull, n) for hull in HULLS]
        verdicts.append([i, n, program.pretty(), row])
        doc["programs"] += 1
        doc["proven"] += sum(row)
        for op in _folds(program):
            key = (op.name, n)
            if key not in fold_memo:
                fold_memo[key] = _fold_record(op, n)
            folds.append([op.name, n, fold_memo[key]])
            doc["hulls"] += sum(r is not None for r in fold_memo[key])
    for at in sorted(chunks):
        doc["verdicts"].append(_digest(chunks[at][0]))
        doc["folds"].append(_digest(chunks[at][1]))
    return doc


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def today() -> dict:
    return golden_doc()


def test_corpus_is_the_one_the_golden_was_written_over(today, golden):
    assert today["programs"] == golden["programs"] > 1000
    assert len(today["verdicts"]) == len(golden["verdicts"])


def test_the_grid_straddles_the_safe_range(golden):
    # neither all-proven nor all-refused: the hulls cross 2**62 both ways
    assert 0 < golden["proven"] < golden["programs"] * len(HULLS)
    assert golden["hulls"] > 0


def test_verdicts_reproduce_the_parent_analysis(today, golden):
    assert today["proven"] == golden["proven"]
    differing = [f"programs {i * CHUNK}–{i * CHUNK + CHUNK - 1}"
                 for i, (g, w) in enumerate(zip(today["verdicts"],
                                                golden["verdicts"])) if g != w]
    assert not differing, differing


def test_fold_hulls_reproduce_the_parent_analysis(today, golden):
    assert today["hulls"] == golden["hulls"]
    differing = [f"programs {i * CHUNK}–{i * CHUNK + CHUNK - 1}"
                 for i, (g, w) in enumerate(zip(today["folds"],
                                                golden["folds"])) if g != w]
    assert not differing, differing
