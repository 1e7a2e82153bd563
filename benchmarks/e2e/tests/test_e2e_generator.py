"""The seeded generator: same seed, same inputs; well-formed programs."""

import random

import numpy as np

from benchmarks.e2e.workloads import (
    MAX_MUL,
    SCALAR_ENV,
    distinct_bodies,
    gen_statements,
    make_workload,
    render_text,
)
from repro.lang import parse_program


def _pool_fingerprint(seed):
    w = make_workload("serve_hot", seed)
    try:
        w.setup()
        return [(j.text, j.params, tuple(j.inputs)) for j in w.pool]
    finally:
        w.close()


def test_same_seed_same_inputs():
    assert _pool_fingerprint(3) == _pool_fingerprint(3)
    assert _pool_fingerprint(3) != _pool_fingerprint(4)


def test_array_and_list_blocks_follow_the_seed():
    a, b, c = (make_workload("exec_block", s) for s in (5, 5, 6))
    for w in (a, b, c):
        w.setup()
    assert all(np.array_equal(x, y)
               for x, y in zip(a.deck[0].inputs, b.deck[0].inputs))
    assert not all(np.array_equal(x, y)
                   for x, y in zip(a.deck[0].inputs, c.deck[0].inputs))
    t, p = make_workload("engine_threaded", 7), make_workload("engine_process", 7)
    t.setup(), p.setup()
    assert t.job.inputs == p.job.inputs        # the identical job
    assert t.job.text == p.job.text


def test_plan_cold_texts_are_distinct_and_seeded():
    bodies = distinct_bodies(random.Random(1), 2000, 5, 9)
    assert len(set(bodies)) == 2000
    assert bodies == distinct_bodies(random.Random(1), 2000, 5, 9)
    assert all(5 <= len(b) <= 9 for b in bodies)


def test_generated_programs_are_well_formed():
    rng = random.Random(0)
    for k in range(300):
        body = gen_statements(rng, rng.randint(3, 9))
        # only a broadcast may follow a reduce; products stay bounded
        for (call, _), (nxt, _) in zip(body, body[1:]):
            assert call != "MPI_Reduce" or nxt == "MPI_Bcast"
        assert sum(op == "op_mul" for _, op in body) <= MAX_MUL
        program = parse_program(render_text(f"t{k}", body)) \
            .to_program(SCALAR_ENV)
        assert len(program) == len(body)
        program.run([1, 2, 3, 1])               # the reference accepts it
