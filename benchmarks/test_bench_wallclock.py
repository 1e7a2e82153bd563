"""Wall-clock benchmarks of the library itself (NumPy blocks).

Unlike the figure benchmarks (which report *model* time), these measure
real CPU time of the reproduction's hot paths with pytest-benchmark:

* the simulator running a full collective program over 64 ranks with
  100k-element NumPy blocks;
* the reference balanced scan on array blocks;
* the optimizer's exhaustive search on a 7-stage pipeline;
* sample sort end to end.

No paper claims attach to these numbers; they document that the
reproduction is usable at realistic block sizes (vectorized inner loop —
per-element Python would be ~1000x slower).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.samplesort import sample_sort
from repro.apps.vectorops import NP_ADD, blocks_allclose
from repro.core.cost import MachineParams
from repro.core.derived_ops import SSButterflyOp
from repro.core.optimizer import exhaustive_optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    BcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.machine import simulate_program
from repro.semantics.balanced import scan_balanced
from repro.semantics.functional import quadruple, scan_fn


def _blocks(p: int, m: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(m) for _ in range(p)]


def test_simulator_with_100k_blocks(benchmark):
    p, m = 64, 100_000
    xs = _blocks(p, m)
    params = MachineParams(p=p, ts=600.0, tw=2.0, m=m)
    prog = Program([BcastStage(), ScanStage(NP_ADD), ReduceStage(NP_ADD)])

    sim = benchmark(lambda: simulate_program(prog, xs, params))
    want = prog.run(xs)
    assert blocks_allclose(list(sim.values), want)


def test_balanced_scan_on_arrays(benchmark):
    p, m = 64, 100_000
    xs = [quadruple(b) for b in _blocks(p, m, seed=1)]

    out = benchmark(lambda: scan_balanced(SSButterflyOp(NP_ADD), xs))
    values = _blocks(p, m, seed=1)
    want = scan_fn(NP_ADD, scan_fn(NP_ADD, values))
    assert blocks_allclose([s[0] for s in out], want)


def test_exhaustive_optimizer_walltime(benchmark):
    from repro.core.operators import ADD, MUL

    prog = Program([
        BcastStage(), ScanStage(MUL), ScanStage(ADD), ReduceStage(ADD),
        BcastStage(), ScanStage(ADD), ReduceStage(ADD),
    ])
    params = MachineParams(p=64, ts=600.0, tw=2.0, m=512)

    res = benchmark(lambda: exhaustive_optimize(prog, params, rules=FULL_RULES))
    assert res.cost_after < res.cost_before


def test_sample_sort_walltime(benchmark):
    import random

    p, n = 16, 50_000
    rng = random.Random(0)
    data = [rng.randint(-10**6, 10**6) for _ in range(n)]
    blocks = [data[r * n // p : (r + 1) * n // p] for r in range(p)]
    params = MachineParams(p=p, ts=600.0, tw=2.0, m=n // p)

    flat, _ = benchmark(lambda: sample_sort(blocks, params))
    assert flat == sorted(data)


def test_threaded_engine_overhead(benchmark):
    """Wall-clock cost of the thread-per-rank engine vs. the cooperative
    one on the same program (documentation, not a paper claim)."""
    from repro.apps import build_example

    prog = build_example()
    params = MachineParams(p=16, ts=600.0, tw=2.0, m=64)
    xs = list(range(1, 17))
    coop = simulate_program(prog, xs, params)

    threaded = benchmark(lambda: simulate_program(prog, xs, params,
                                                  engine="threaded"))
    assert threaded.values == coop.values
    assert threaded.time == coop.time


def test_optimizer_scaling_with_program_length(benchmark):
    """Exhaustive-search wall time over growing collective chains;
    the rewrite graph stays tractable (every rule shrinks the program)."""
    from repro.core.operators import ADD, MUL
    from repro.core.rules import FULL_RULES

    def build_chain(k: int) -> Program:
        stages = []
        for i in range(k):
            stages += [BcastStage(), ScanStage(MUL if i % 2 else ADD),
                       ReduceStage(ADD)]
        return Program(stages)

    params = MachineParams(p=64, ts=600.0, tw=2.0, m=512)

    def run_all():
        explored = []
        for k in (1, 2, 3, 4):
            res = exhaustive_optimize(build_chain(k), params, rules=FULL_RULES)
            explored.append(res.programs_explored)
            assert res.cost_after < res.cost_before
        return explored

    explored = benchmark(run_all)
    assert explored == sorted(explored)  # graph grows with program length
