"""The stage facets answer exactly as the ``isinstance`` ladders did.

``tests/data/stage_facets_golden_v1.json`` was written by :func:`golden_doc`
with the ``src`` of PR 16 on ``PYTHONPATH`` — the last commit whose
``core/cost.py``, ``core/search.py``, ``lang/printer.py`` and
``codegen/mpi4py_gen.py`` spelled every stage class out in a ladder.  For
each of the 502 programs of the planner corpora (``planner_corpus`` on a
rotating preset, the random programs of ``test_planner_property`` on
their sampled machines; as written and as beam-planned) and of a
hand-made vocabulary that reaches every stage class and variant, it
records what each ladder answered: the planner
signature (an on-disk ``PlanCache`` key), the MPI surface text, the
mpi4py script or its ``CodegenError`` message, and per stage the round
counts, the ``repr`` of the model cost on six machines and the Table-1
formula.  The file keeps one hash per facet and block of ``CHUNK``
programs; today's facet methods must reproduce every one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import planner_corpus
from test_planner_property import _specs

from repro.codegen.mpi4py_gen import CodegenError, generate_mpi4py
from repro.core.cost import MachineParams, stage_cost, stage_formula, stage_rounds
from repro.core.derived_ops import (
    SRTreeOp,
    SSButterflyOp,
    br_iter_op,
    bs_comcast_op,
    bsr2_iter_op,
    bsr_iter_op,
    bss2_comcast_op,
    bss_comcast_op,
    sr2_op,
)
from repro.core.operators import ADD, CONCAT, EW_ADD, MUL, elementwise_op
from repro.core.planner import beam_optimize, plan_signature
from repro.core.stages import (
    AllGatherStage,
    AllGatherVStage,
    AllReduceStage,
    BalancedReduceStage,
    BalancedScanStage,
    BcastStage,
    ComcastStage,
    GatherStage,
    IterStage,
    Map2Stage,
    MapIndexedStage,
    MapStage,
    Program,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
    ScatterStage,
)
from repro.lang.printer import to_mpi_text

GOLDEN = Path(__file__).parent / "data" / "stage_facets_golden_v1.json"

#: programs per hash
CHUNK = 50

#: the planner presets plus the shapes they miss: one processor, an odd
#: ring under a round penalty, a non-power-of-two fold
MACHINES = planner_corpus.PRESETS + (
    MachineParams(p=1, ts=600.0, tw=2.0, m=1024),
    MachineParams(p=3, ts=7.0, tw=0.25, m=12, round_penalty=3.5),
    MachineParams(p=5, ts=100.0, tw=1.5, m=333),
)


def _first(a, b):
    return a


def _vocabulary() -> list[Program]:
    """One program per stage class and variant (every other one marked as
    rule-introduced), then all the printable ones in a row — enough
    statements to run the printer out of single-letter variables."""
    folds = (ADD, MUL, CONCAT, EW_ADD, sr2_op(MUL, ADD))
    stages = [
        MapStage(abs, "f", 3),
        MapIndexedStage(_first, "g", 2),
        Map2Stage(_first, (1, 2), "h", False, 1),
        Map2Stage(_first, (1, 2), "h", True, 4),
        BcastStage(),
        AllGatherStage(),
        AllGatherStage(width=3),
        ScatterStage(2),
        GatherStage(2),
        AllGatherVStage(),
        AllGatherVStage((1, 2, 3), 2),
        *[cls(op) for cls in (ScanStage, ReduceStage, AllReduceStage)
          for op in folds],
        ReduceScatterStage(EW_ADD),
        ReduceScatterStage(elementwise_op(CONCAT)),
        ReduceScatterStage(EW_ADD, (2, 1, 0)),
        BalancedReduceStage(SRTreeOp(ADD)),
        BalancedReduceStage(SRTreeOp(MUL), to_all=True),
        BalancedScanStage(SSButterflyOp(ADD)),
        ComcastStage(bs_comcast_op(ADD)),
        ComcastStage(bss2_comcast_op(MUL, ADD), "doubling"),
        ComcastStage(bss_comcast_op(ADD)),
        IterStage(br_iter_op(ADD)),
        IterStage(bsr2_iter_op(MUL, ADD), general=True),
        IterStage(bsr_iter_op(ADD), then_bcast=True),
    ]
    stages = [s.with_origin("Some-Rule") if i % 2 else s
              for i, s in enumerate(stages)]
    out = [Program([s], name=f"vocab{i}") for i, s in enumerate(stages)]
    out.append(Program(stages, name="vocab_all"))
    return out


def programs() -> list[Program]:
    """Each corpus program as written and as beam-planned, then the
    vocabulary."""
    presets = planner_corpus.PRESETS
    specs = [(program, presets[i % len(presets)], rules)
             for i, (program, rules) in enumerate(planner_corpus.programs())]
    specs += [(gp.program, params, rules)
              for gp, params, rules, is_trap in _specs() if not is_trap]
    out = []
    for program, params, rules in specs:
        out += [program,
                beam_optimize(program, params, rules, width=4).program]
    return out + _vocabulary()


def _mpi4py(program: Program) -> str:
    try:
        return generate_mpi4py(program)
    except CodegenError as exc:
        return f"CodegenError: {exc}"


def _formula(stage) -> str:
    try:
        return stage_formula(stage).pretty()
    except TypeError:
        return "no Table-1 form"


FACETS = {
    "plan_signature": lambda prog: repr(plan_signature(prog)),
    "to_mpi_text": to_mpi_text,
    "generate_mpi4py": _mpi4py,
    "stage_rounds": lambda prog: [[stage_rounds(s, m) for m in MACHINES]
                                  for s in prog.stages],
    "stage_cost": lambda prog: [[repr(stage_cost(s, m)) for m in MACHINES]
                                for s in prog.stages],
    "stage_formula": lambda prog: [_formula(s) for s in prog.stages],
}


def chunk_hashes(facet: str, progs: list[Program]) -> list[str]:
    """One digest per ``CHUNK`` programs of what ``facet`` answers."""
    answer = FACETS[facet]
    return [
        hashlib.sha256(json.dumps(
            [answer(prog) for prog in progs[at:at + CHUNK]]).encode()
        ).hexdigest()[:16]
        for at in range(0, len(progs), CHUNK)
    ]


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    progs = programs()
    return {"programs": len(progs),
            **{facet: chunk_hashes(facet, progs) for facet in FACETS}}


@pytest.fixture(scope="module")
def corpus() -> list[Program]:
    return programs()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_is_the_one_the_golden_was_written_over(corpus, golden):
    assert len(corpus) == golden["programs"]
    reached = {type(s) for prog in corpus for s in prog.stages}
    assert len(reached) == 16  # every stage class of core.stages


@pytest.mark.parametrize("facet", sorted(FACETS))
def test_facet_answers_as_the_ladder_did(facet, corpus, golden):
    got = chunk_hashes(facet, corpus)
    differing = [f"programs {i * CHUNK}–{i * CHUNK + CHUNK - 1}"
                 for i, (g, w) in enumerate(zip(got, golden[facet]))
                 if g != w]
    assert not differing and len(got) == len(golden[facet]), differing
