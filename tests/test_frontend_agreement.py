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
from repro.semantics.functional import inc

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
            stages.append(MapStage(inc, label="inc", ops_per_element=1))
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


@pytest.mark.parametrize("p", range(2, 10))
def test_one_selection_one_price_for_allgather(p):
    """``scan (+) ; allgather`` costs one simulated time however it is
    written: as stages, through ``Comm``, through ``ThreadedComm`` and as
    the generated mpi4py script.  The ring-or-doubling choice is made in
    one place, so the facades cannot price the program differently from
    the stage table (they took the ring at every p: 1 860 against the
    stages' 704 units at p = 8)."""
    from repro.codegen import generate_mpi4py
    from repro.codegen.simulated_backend import run_generated
    from repro.core.stages import AllGatherStage
    from repro.mpi import spmd_run, threaded_spmd_run

    prog = Program([ScanStage(ADD), AllGatherStage()])
    params = MachineParams(p=p, ts=100.0, tw=2.0, m=4)
    xs = list(range(1, p + 1))

    def generator(comm, x):
        y = yield from comm.scan(x, op=ADD)
        return tuple((yield from comm.allgather(y)))

    def blocking(comm, x):
        return tuple(comm.allgather(comm.scan(x, op=ADD)))

    runs = {
        "stages": simulate_program(prog, xs, params),
        "stages-threaded": simulate_program(prog, xs, params, engine="threaded"),
        "Comm": spmd_run(generator, xs, params),
        "ThreadedComm": threaded_spmd_run(blocking, xs, params),
        "generated": run_generated(generate_mpi4py(prog), xs, params),
    }
    want = runs["stages"]
    assert want.values == tuple(prog.run(xs))
    for name, res in runs.items():
        assert res.values == want.values, name
        assert res.time == want.time, name
        assert res.stats.clocks == want.stats.clocks, name
        assert (res.stats.messages, res.stats.words) == (
            want.stats.messages, want.stats.words), name
    if p == 8:
        assert want.time == 704.0
