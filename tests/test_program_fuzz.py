"""Program-level fuzzing: the optimizer on randomly generated programs.

Hypothesis builds random stage pipelines over the operator zoo; for every
generated program and machine the optimizer must (1) preserve semantics
modulo undefined blocks, (2) never increase the model cost, and (3) emit
programs whose simulated time is bounded by the model cost (the model
assumes inter-stage barriers; the simulator may pipeline across stages,
as the paper's Figure 1 allows).  This is the broadest correctness net
in the suite.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import MachineParams, program_cost
from repro.core.operators import ADD, MAX, MIN, MUL
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.machine import simulate_program
from repro.semantics.functional import UNDEF, defined_equal, inc

# operators kept small-valued so products cannot explode
OPS = st.sampled_from([ADD, MUL, MAX, MIN])


@st.composite
def random_programs(draw) -> Program:
    """Random pipelines of 1-6 stages, always safe to evaluate.

    The tricky invariant: a ``reduce`` leaves non-root blocks undefined,
    so any later *collective* reading all blocks would read garbage.  We
    therefore close every reduce with a bcast (matching how real programs
    use MPI_Reduce), unless it is the final stage.
    """
    stages = []
    n_stages = draw(st.integers(1, 6))
    open_reduce = False
    for _ in range(n_stages):
        kind = draw(st.sampled_from(["map", "scan", "reduce", "allreduce", "bcast"]))
        if open_reduce and kind in ("scan", "allreduce"):
            stages.append(BcastStage())
            open_reduce = False
        if kind == "map":
            stages.append(MapStage(inc, label="inc", ops_per_element=1))
        elif kind == "scan":
            stages.append(ScanStage(draw(OPS)))
        elif kind == "reduce":
            stages.append(ReduceStage(draw(OPS)))
            open_reduce = True
        elif kind == "allreduce":
            stages.append(AllReduceStage(draw(OPS)))
            open_reduce = False
        else:
            stages.append(BcastStage())
            open_reduce = False
    return Program(stages, name="fuzz")


class _SafeRunner:
    """Run a program tolerating reads of undefined blocks."""

    @staticmethod
    def run(prog: Program, xs):
        try:
            return prog.run(xs)
        except TypeError:
            return None  # program reads garbage; skip the case


@given(
    prog=random_programs(),
    p=st.sampled_from([2, 4, 8, 16]),
    seed=st.integers(0, 10_000),
    ts=st.floats(0.0, 5000.0),
    tw=st.floats(0.0, 8.0),
    m=st.integers(1, 1024),
)
@settings(max_examples=120, deadline=None)
def test_optimizer_preserves_fuzzed_programs(prog, p, seed, ts, tw, m):
    import random

    rng = random.Random(seed)
    xs = [rng.randint(-3, 3) for _ in range(p)]
    reference = _SafeRunner.run(prog, xs)
    if reference is None:
        return  # the random program itself was invalid; nothing to check

    params = MachineParams(p=p, ts=ts, tw=tw, m=m)
    res = optimize(prog, params, rules=FULL_RULES)

    assert res.cost_after <= res.cost_before + 1e-9, (
        f"cost rose {res.cost_before} -> {res.cost_after} for "
        f"{prog.pretty()} [replay: seed={seed}, p={p}, ts={ts}, tw={tw}, m={m}]"
    )
    optimized = res.program.run(xs)
    assert defined_equal(reference, optimized), (
        f"{prog.pretty()} != {res.program.pretty()} on {xs} "
        f"[replay: seed={seed}, p={p}, ts={ts}, tw={tw}, m={m}]"
    )


@given(
    prog=random_programs(),
    p=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_program_simulation_matches_model(prog, p, seed):
    import random

    rng = random.Random(seed)
    xs = [rng.randint(-3, 3) for _ in range(p)]
    if _SafeRunner.run(prog, xs) is None:
        return
    params = MachineParams(p=p, ts=77.0, tw=1.5, m=24)
    sim = simulate_program(prog, xs, params)
    # The additive cost model assumes a barrier between collectives; the
    # simulator lets stages pipeline across ranks (paper Figure 1: "no
    # obligatory synchronization between two subsequent collective
    # operations"), so simulation is bounded by the model but may beat it.
    model = program_cost(prog, params)
    assert sim.time <= model + 1e-6, (
        f"simulated {sim.time} > model {model} for {prog.pretty()} "
        f"[replay: seed={seed}, p={p}]"
    )
    slowest_stage = max(
        (program_cost(Program([st]), params) for st in prog.stages),
        default=0.0,
    )
    assert sim.time >= slowest_stage - 1e-6, (
        f"simulated {sim.time} < slowest stage {slowest_stage} for "
        f"{prog.pretty()} [replay: seed={seed}, p={p}]"
    )
    assert defined_equal(prog.run(xs), list(sim.values)), (
        f"simulator output differs from reference on {xs} for "
        f"{prog.pretty()} [replay: seed={seed}, p={p}]"
    )


@given(prog=random_programs(), p=st.sampled_from([4, 8]))
@settings(max_examples=60, deadline=None)
def test_optimizer_is_idempotent(prog, p):
    params = MachineParams(p=p, ts=900.0, tw=2.0, m=64)
    once = optimize(prog, params, rules=FULL_RULES)
    twice = optimize(once.program, params, rules=FULL_RULES)
    assert twice.cost_after == pytest.approx(once.cost_after)
