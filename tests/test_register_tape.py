"""A compiled program is one register tape: its work, counted, and the
contracts the step-by-step kernels kept.

The work is counted, not timed: the rows a run draws from the block pool
and the raw ufunc calls per chunk.  The contracts are read against
``tests/data/jit_tape_contract_v1.json``, written by :func:`golden_doc`
with the ``src`` of the commit before the register tape (one closure per
plan step) on ``PYTHONPATH``:

* **aliasing** — for the ``exec_block`` deck and the ``tests/test_jit.py``
  decks, on int, 0-d, float, empty and UNDEF-holding blocks at
  p ∈ {1, 2, 3, 5, 8}: which reply blocks are one object, which share
  memory with an input or an earlier reply block, and whether a block's
  slots share memory (a bcast and an allreduce hand every rank one
  object, scan rows are distinct and alias nothing, inputs are never
  written);
* **the fallback contract** — the :data:`repro.jit.STATS` snapshot
  (the block pool's counters aside: the tape draws fewer rows by
  design) of ``run_jit`` and of ``simulate_program(jit=True)`` on decks
  that decline a step at run time or never compile one.  Steps are
  counted as plan steps, and every reason where a step-by-step run
  counted it.  Its ``simulate`` records were rewritten where the engine
  ladder lost its raw rung: a run that declines ``fused`` on its inputs
  now lowers to ``checked``, so ``full_jit_runs`` reads 0 there.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost import MachineParams
from repro.core.derived_ops import (
    br_iter_op,
    bs_comcast_op,
    bsr_iter_op,
    bss_comcast_op,
    sr2_op,
)
from repro.core.operators import ADD, FADD, FMUL, MUL, product_op
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.rules.base import pair_stage, projection_stage
from repro.core.rules.reduction import SR_REDUCTION
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    ComcastStage,
    IterStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.jit import STATS, clear_jit_cache, compiled_program, reset_stats, run_jit
from repro.jit.compiler import DEFAULT_LOCAL_PARAMS, _chunk_slices
from repro.kernels.registry import primitive, register_binop_kernel
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, dbl, inc

GOLDEN = Path(__file__).parent / "data" / "jit_tape_contract_v1.json"

P = 8
#: ``exec_block``'s blocks
BLOCK = 131_072
PS = (1, 2, 3, 5, 8)
KINDS = ("int", "0d", "float", "empty", "undef")


def _params(p: int, m: int) -> MachineParams:
    return MachineParams(p=p, ts=10.0, tw=1.0, m=m)


def _exec_block_deck() -> dict[str, Program]:
    """The ``exec_block`` pipelines as its set-up plans them."""
    written = {
        "sr2": [ScanStage(MUL), ReduceStage(ADD)],
        "ss": [ScanStage(MUL), ScanStage(ADD)],
        "comcast": [BcastStage(), ScanStage(ADD)],
        "allreduce": [AllReduceStage(ADD)],
    }
    return {name: optimize(Program(stages, name=name), _params(P, BLOCK),
                           rules=FULL_RULES, strategy="beam").program
            for name, stages in written.items()}


def _decks() -> dict[str, Program]:
    sr2 = sr2_op(MUL, ADD)
    inc_map, dbl_map = MapStage(inc, label="inc"), MapStage(dbl, label="dbl")
    decks = {f"exec_block:{name}": prog
             for name, prog in _exec_block_deck().items()}
    decks.update({
        "scan;reduce": Program([ScanStage(MUL), ReduceStage(ADD)]),
        "inc;scan;reduce": Program([inc_map, ScanStage(ADD), ReduceStage(ADD)]),
        "fscan;fallreduce": Program([ScanStage(FMUL), AllReduceStage(FADD)]),
        "reduce;inc": Program([ReduceStage(ADD), inc_map]),
        "dbl;bcast": Program([dbl_map, BcastStage()]),
        "reduce;bcast": Program([ReduceStage(ADD), BcastStage()]),
        "inc;scan": Program([inc_map, ScanStage(ADD)]),
        "scan": Program([ScanStage(ADD)]),
        "bcast": Program([BcastStage()]),
        "scan;bcast": Program([ScanStage(ADD), BcastStage()]),
        "bcast;pair": Program([BcastStage(), pair_stage("t")]),
        "bcast;inc": Program([BcastStage(), inc_map]),
        "allreduce;inc": Program([AllReduceStage(ADD), inc_map]),
        "pair;scan(sr2)": Program([pair_stage("t"), ScanStage(sr2)]),
        "pair;scan(sr2);pi1": Program([pair_stage("t"), ScanStage(sr2),
                                       projection_stage("t")]),
        "pair;allreduce(sr2)": Program([pair_stage("t"), AllReduceStage(sr2)]),
        "pair;scan(add*add)": Program([pair_stage("t"),
                                       ScanStage(product_op(ADD, ADD))]),
        # the derived-stage sandwiches and the doubling pipeline
        "pair;comcast;pi1": Program([pair_stage("t"),
                                     ComcastStage(bs_comcast_op(sr2)),
                                     projection_stage("t")]),
        "pair;doubling;pi1;scan": Program([
            pair_stage("t"), ComcastStage(bs_comcast_op(sr2), impl="doubling"),
            projection_stage("t"), ScanStage(ADD)]),
        "inc;pair;iter;bcast;pi1": Program([
            inc_map, pair_stage("t"),
            IterStage(br_iter_op(sr2), general=True, then_bcast=True),
            projection_stage("t")]),
        "pair;iter;pi1;bcast": Program([
            pair_stage("t"), IterStage(br_iter_op(sr2), general=True),
            projection_stage("t"), BcastStage()]),
        "bss;bsr": Program([ComcastStage(bss_comcast_op(ADD), impl="doubling"),
                            IterStage(bsr_iter_op(ADD), general=True)]),
    })
    return decks


def _inputs(kind: str, p: int, seed: int = 0) -> list:
    """Vectorized blocks: what ``CompiledProgram.run`` is handed."""
    rng = np.random.default_rng(seed)
    if kind == "float":
        return [rng.random(7) for _ in range(p)]
    if kind == "empty":
        return [np.zeros(0, dtype=np.int64) for _ in range(p)]
    if kind == "0d":
        return [np.asarray(int(v), dtype=np.int64)
                for v in rng.integers(-3, 4, p)]
    xs = [rng.integers(-3, 4, 7).astype(np.int64) for _ in range(p)]
    if kind == "undef":
        xs[p // 2] = UNDEF
    return xs


def _arrays(block) -> list:
    if block is UNDEF:
        return []
    comps = block if isinstance(block, tuple) else (block,)
    return [c for c in comps if isinstance(c, np.ndarray)]


def _shares(a: list, b: list) -> bool:
    return any(np.shares_memory(x, y) for x in a for y in b)


def _aliasing(xs: list, reply: list) -> list:
    """Per reply block: "U" (UNDEF), or ``[the earlier block it is, the
    inputs it shares memory with, the other earlier blocks it does,
    whether two of its slots do]`` — so a 0-d result counts alike as a
    NumPy scalar and as a 0-d array."""
    record = []
    for i, block in enumerate(reply):
        if block is UNDEF:
            record.append("U")
            continue
        mine = _arrays(block)
        record.append([
            next((j for j in range(i) if reply[j] is block), None),
            [k for k, x in enumerate(xs) if _shares(mine, _arrays(x))],
            [j for j in range(i) if reply[j] is not block
             and _shares(mine, _arrays(reply[j]))],
            any(_shares(mine[:n], mine[n:n + 1]) for n in range(len(mine))),
        ])
    return record


def _alias_records(prog: Program) -> dict:
    out = {}
    for kind in KINDS:
        for p in PS:
            xs = _inputs(kind, p)
            kept = [x if x is UNDEF else x.copy() for x in xs]
            try:
                reply = compiled_program(prog).run(list(xs))
            except Exception as exc:  # recorded: the kernels raise alike
                out[f"{kind}/{p}"] = type(exc).__name__
                continue
            assert all(y is UNDEF if x is UNDEF else np.array_equal(x, y)
                       for x, y in zip(xs, kept)), "an input was written"
            out[f"{kind}/{p}"] = _aliasing(xs, reply)
    return out


def _wide() -> list:
    xs = [np.ones(8, dtype=np.int64) for _ in range(P)]
    xs[2][5] = 2 ** 40
    return xs


def _mixed() -> list:
    """Blocks of unequal shapes: a map runs on them, a fold declines."""
    return [np.arange(4, dtype=np.int64)] + [np.asarray(2, dtype=np.int64)] * 3


#: name -> (program, inputs, p): steps declined at run time or never compiled
FALLBACK_DECKS = {
    "undef-after-a-reduce": (
        lambda: Program([ReduceStage(ADD), ScanStage(ADD)]),
        lambda: _inputs("int", P), P),
    "undef-after-a-reduce-then-two-tapes": (
        lambda: Program([ScanStage(ADD), ReduceStage(ADD),
                         MapStage(inc, label="inc"), ScanStage(MUL),
                         BcastStage(), MapStage(dbl, label="dbl")]),
        lambda: _inputs("int", P), P),
    "a-reduce-feeds-a-derived-root": (
        lambda: Program([ReduceStage(ADD), ComcastStage(bs_comcast_op(ADD))]),
        lambda: _inputs("int", P), P),
    "float-blocks-on-comcast": (
        lambda: Program([ComcastStage(bs_comcast_op(FADD))]),
        lambda: _inputs("float", 7), 7),
    "float-blocks-on-iter": (
        lambda: Program([ScanStage(FADD), IterStage(
            br_iter_op(FADD), general=True, then_bcast=True)]),
        lambda: _inputs("float", 7), 7),
    "empty-blocks-on-comcast": (
        lambda: Program([ComcastStage(bs_comcast_op(ADD))]),
        lambda: [UNDEF] * 4, 4),
    "non-general-iter-off-powers-of-two": (
        lambda: Program([IterStage(br_iter_op(ADD))]),
        lambda: _inputs("int", 3), 3),
    "runtime-shape-undef-input": (
        lambda: Program([MapStage(inc, label="inc"), ScanStage(ADD)]),
        lambda: _inputs("undef", P), P),
    "runtime-shape-unequal-blocks": (
        lambda: Program([MapStage(inc, label="inc"), ScanStage(ADD),
                         BcastStage()]),
        _mixed, 4),
    "uncompiled-balanced-stage": (
        lambda: Program(SR_REDUCTION.rewrite((ScanStage(ADD), ReduceStage(ADD)))),
        lambda: _inputs("int", P), P),
    "bounds-unproven": (
        lambda: Program([ReduceStage(MUL), BcastStage()]), _wide, P),
}


def _stats_record(name: str) -> dict:
    make_prog, make_xs, p = FALLBACK_DECKS[name]
    prog, out = make_prog(), {}
    runs = {"run_jit": lambda xs: run_jit(prog, xs),
            "simulate": lambda xs: simulate_program(prog, xs, _params(p, 8),
                                                    jit=True)}
    for entry, run in runs.items():
        clear_jit_cache()
        reset_stats()
        try:
            run(make_xs())
            raised = None
        except Exception as exc:  # recorded: the kernels raise alike
            raised = type(exc).__name__
        snap = {key: value for key, value in STATS.snapshot().items()
                if not key.startswith("pool_")}
        out[entry] = {**snap, "raised": raised}
    return out


def golden_doc() -> dict:
    """What the golden file holds, computed with the ``src`` in use."""
    return {"aliasing": {name: _alias_records(prog)
                         for name, prog in _decks().items()},
            "stats": {name: _stats_record(name) for name in FALLBACK_DECKS}}


@pytest.fixture(autouse=True)
def _fresh():
    clear_jit_cache()
    reset_stats()
    yield
    clear_jit_cache()
    reset_stats()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestWork:
    """What a run does, counted on ``exec_block``'s blocks."""

    @pytest.mark.parametrize("name,rows", [
        ("sr2", 1), ("ss", 8), ("comcast", 8), ("allreduce", 1)])
    def test_rows_drawn_per_run(self, name, rows):
        # ss: the reply's rows only — scan(mul)'s stay in chunk scratch
        prog = _exec_block_deck()[name]
        xs = [np.random.default_rng(k).integers(1, 4, BLOCK).astype(np.int64)
              for k in range(P)]
        simulate_program(prog, xs, _params(P, BLOCK), jit=True)
        reset_stats()
        res = simulate_program(prog, xs, _params(P, BLOCK), jit=True)
        assert STATS.pool_hits + STATS.pool_misses == rows
        assert STATS.full_jit_runs == 1 and not STATS.fallbacks
        want = Program(prog.stages).run(list(xs))
        assert all(np.array_equal(a, b) for a, b in zip(res.values, want)
                   if a is not UNDEF)

    @pytest.mark.parametrize("name", ["sr2", "ss", "comcast", "allreduce"])
    def test_the_hull_reads_each_input_once(self, name, monkeypatch):
        # one bitwise-or pass per block, no min/max: the blocks hold 1..3
        from repro.jit import compiler

        prog = _exec_block_deck()[name]
        xs = [np.random.default_rng(k).integers(1, 4, BLOCK).astype(np.int64)
              for k in range(P)]
        simulate_program(prog, xs, _params(P, BLOCK), jit=True)
        reads: Counter = Counter()
        hull = compiler._hull

        def counted(a, exact=False):
            reads["exact" if exact else "one-pass"] += 1
            return hull(a, exact)

        monkeypatch.setattr(compiler, "_hull", counted)
        simulate_program(prog, xs, _params(P, BLOCK), jit=True)
        assert reads == {"one-pass": P}
        assert STATS.full_jit_runs == 2 and not STATS.fallbacks

    def test_sr2_runs_fourteen_raw_ufunc_calls_per_chunk(self):
        # per combine s1 + r1·x and r1·x: pair made both rhs slots one
        # block, so r1·s2 and r1·r2 are one instruction, not two
        prog = _exec_block_deck()["sr2"]
        assert prog.pretty() == "map pair ; reduce (op_sr2[mul,add]) ; map pi_1"
        xs = [np.random.default_rng(k).integers(1, 4, BLOCK).astype(np.int64)
              for k in range(P)]
        calls: Counter = Counter()
        rows = {op: primitive(op) for op in (ADD, MUL)}

        def counted(name, raw):
            def fn(*args, **kwargs):
                calls[name] += 1
                return raw(*args, **kwargs)
            return fn

        try:
            for op, row in rows.items():
                register_binop_kernel(op, replace(row, raw=counted(row.name, row.raw)))
            got = compiled_program(prog).run(list(xs))
        finally:
            for op, row in rows.items():
                register_binop_kernel(op, row)
        chunks = len(_chunk_slices((BLOCK,), DEFAULT_LOCAL_PARAMS))
        assert chunks > 1
        assert calls == {"mul": 7 * chunks, "add": 7 * chunks}
        assert STATS.kernelized_steps == 0
        want = compiled_program(prog).run(list(xs))
        assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("name", list(_decks()))
def test_replies_alias_what_the_step_kernels_replies_did(name, golden):
    assert _alias_records(_decks()[name]) == golden["aliasing"][name]


@pytest.mark.parametrize("name", list(FALLBACK_DECKS))
def test_the_fallback_contract_holds_step_by_step(name, golden):
    assert _stats_record(name) == golden["stats"][name]
