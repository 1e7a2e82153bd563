"""Property tests: threaded and process engines are bit-identical.

Random generator programs (the conformance generator's own distribution —
int, list-concat, and segmented domains, including empty tuples) run on
both blocking engines at p ∈ {1, 2, 8}.  Values AND simulated clocks must
agree exactly: the process backend drives the identical collective
algorithms through the same rendezvous formula, so any divergence is a
transport bug, not a modelling choice.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cost import MachineParams
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.testing.generator import DOMAINS, generate_random

needs_processes = pytest.mark.skipif(
    process_fallback_reason(8) is not None,
    reason=process_fallback_reason(8) or "",
)

SIZES = (1, 2, 8)


def _check_case(gp, p: int, rng: random.Random) -> None:
    params = MachineParams(p=p, ts=rng.choice([0.0, 1.0, 600.0]),
                           tw=rng.choice([0.0, 0.5, 2.0]),
                           m=rng.choice([1, 4, 1024]))
    inputs = gp.inputs(rng, p)
    rt = simulate_program(gp.program, inputs, params, engine="threaded")
    rp = simulate_program(gp.program, inputs, params, engine="process")
    assert rp.stats.clocks == rt.stats.clocks, (
        f"clock divergence on {gp.program.pretty()} (p={p})")
    assert repr(rp.values) == repr(rt.values), (
        f"value divergence on {gp.program.pretty()} (p={p})")
    assert rp.stats.messages == rt.stats.messages
    assert rp.stats.words == rt.stats.words
    # the cooperative engine is the reference both must match
    rc = simulate_program(gp.program, inputs, params)
    assert rp.stats.clocks == rc.stats.clocks
    assert repr(rp.values) == repr(rc.values)


@needs_processes
@pytest.mark.parametrize("seed", range(8))
def test_random_programs_bit_identical(seed):
    rng = random.Random(1000 + seed)
    gp = generate_random(rng)
    for p in SIZES:
        _check_case(gp, p, rng)


@needs_processes
@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_every_domain_crosses_the_boundary(domain):
    # list domain exercises variable-length tuples (including empty);
    # seg domain exercises (bool, int) pair payloads
    rng = random.Random(77)
    gp = generate_random(rng, domain=domain, max_stages=4)
    for p in SIZES:
        _check_case(gp, p, rng)


@needs_processes
def test_empty_tuple_blocks_cross_intact():
    # the list domain's identity element: zero-length payloads must move
    # through the rings without wedging a reader/writer pair
    from repro.core.operators import CONCAT
    from repro.core.stages import Program, ScanStage
    from repro.testing.generator import GeneratedProgram, LIST_DOMAIN

    gp = GeneratedProgram(program=Program([ScanStage(CONCAT)]),
                          domain=LIST_DOMAIN)
    params = MachineParams(p=8, ts=1.0, tw=0.5, m=1)
    inputs = [()] * 8
    rt = simulate_program(gp.program, inputs, params, engine="threaded")
    rp = simulate_program(gp.program, inputs, params, engine="process")
    assert rp.values == rt.values == ((),) * 8
    assert rp.stats.clocks == rt.stats.clocks
