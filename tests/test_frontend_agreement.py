"""Fuzz: cooperative vs. threaded engines must agree exactly.

Random stage programs are executed by both front ends; values, virtual
makespans and message counts must coincide — the threaded rendezvous is
a drop-in reimplementation of the cooperative event engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MUL
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.machine import simulate_program

OPS = st.sampled_from([ADD, MUL, MAX])


@st.composite
def safe_programs(draw) -> Program:
    """Random pipelines that never read undefined blocks."""
    stages = []
    open_reduce = False
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["map", "scan", "allreduce", "bcast", "reduce"]))
        if open_reduce and kind != "bcast":
            stages.append(BcastStage())
        open_reduce = False
        if kind == "map":
            stages.append(MapStage(lambda x: x + 1, label="inc", ops_per_element=1))
        elif kind == "scan":
            stages.append(ScanStage(draw(OPS)))
        elif kind == "allreduce":
            stages.append(AllReduceStage(draw(OPS)))
        elif kind == "reduce":
            stages.append(ReduceStage(draw(OPS)))
            open_reduce = True
        else:
            stages.append(BcastStage())
    if open_reduce:
        stages.append(BcastStage())
    return Program(stages)


@given(
    prog=safe_programs(),
    p=st.sampled_from([1, 2, 3, 4, 6, 8]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_both_engines_agree(prog, p, seed):
    import random

    rng = random.Random(seed)
    xs = [rng.randint(-3, 3) for _ in range(p)]
    params = MachineParams(p=p, ts=123.0, tw=2.5, m=16)
    a = simulate_program(prog, xs, params)
    b = simulate_program(prog, xs, params, engine="threaded")
    assert a.values == b.values
    assert a.time == pytest.approx(b.time)
    assert a.stats.messages == b.stats.messages
    assert a.stats.words == pytest.approx(b.stats.words)
    assert a.stats.compute_ops == pytest.approx(b.stats.compute_ops)


def test_engine_propagates_user_exceptions():
    def bad_fn(x):
        raise RuntimeError("stage blew up")

    prog = Program([MapStage(bad_fn)])
    with pytest.raises(RuntimeError, match="stage blew up"):
        simulate_program(prog, [1, 2], MachineParams(p=2, ts=1, tw=1))
    with pytest.raises(RuntimeError, match="stage blew up"):
        simulate_program(prog, [1, 2], MachineParams(p=2, ts=1, tw=1),
                         engine="threaded")
