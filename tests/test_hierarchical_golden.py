"""The two-level collectives compose the flat loops exactly as they ran
hand-written.

``tests/data/hierarchical_golden_v1.json`` was written by
:func:`golden_text` with the ``src`` of PR 23 on ``PYTHONPATH`` — the
last commit whose ``machine/hierarchical.py`` carried its own copies of
the binomial broadcast, the binomial reduce and the butterfly.  The sweep
is nodes ∈ {1, 2, 3, 4, 5, 8} × cores ∈ {1, 2, 3, 4} × {bcast, reduce and
allreduce over commutative ``ADD`` and over non-commutative ``CONCAT``}:
120 cases, each keeping its values, makespan, messages, words, compute
ops and every rank's clock.  The compositions over groups must reproduce
the file byte for byte on the cooperative and on the threaded engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.operators import ADD, CONCAT
from repro.machine.hierarchical import (
    TwoLevelParams,
    allreduce_hierarchical,
    bcast_hierarchical,
    reduce_hierarchical,
)
from repro.machine.run import run_ranks

GOLDEN = Path(__file__).parent / "data" / "hierarchical_golden_v1.json"

NODES = (1, 2, 3, 4, 5, 8)
CORES = (1, 2, 3, 4)
COLLECTIVES = {
    "bcast": (bcast_hierarchical, None),
    "reduce-add": (reduce_hierarchical, ADD),
    "reduce-concat": (reduce_hierarchical, CONCAT),
    "allreduce-add": (allreduce_hierarchical, ADD),
    "allreduce-concat": (allreduce_hierarchical, CONCAT),
}


def case_record(name: str, nodes: int, cores: int, engine: str) -> dict:
    collective, op = COLLECTIVES[name]
    p = nodes * cores
    params = TwoLevelParams(p=p, ts=1000.0, tw=4.0, m=8, nodes=nodes,
                            cores=cores, ts_intra=10.0, tw_intra=0.25)
    if op is CONCAT:
        xs = [f"<{i}>" for i in range(p)]
    else:
        xs = [3 * i + 1 for i in range(p)]
    args = () if op is None else (op,)

    def rank_fn(ctx, x):
        out = yield from collective(ctx, x, *args)
        return out

    res = run_ranks(engine, rank_fn, xs, params)
    return {
        "values": repr(res.values),
        "time": repr(res.time),
        "messages": res.stats.messages,
        "words": repr(res.stats.words),
        "compute_ops": repr(res.stats.compute_ops),
        "clocks": repr(res.stats.clocks),
    }


def golden_text(engine: str = "cooperative") -> str:
    """What the golden file holds, computed with the ``src`` in use."""
    doc = {f"{name}/{nodes}x{cores}": case_record(name, nodes, cores, engine)
           for name in COLLECTIVES for nodes in NODES for cores in CORES}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("engine", ["cooperative", "threaded"])
def test_two_level_collectives_match_the_hand_written_ones(engine):
    golden = GOLDEN.read_text()
    assert len(json.loads(golden)) == 120
    assert golden_text(engine) == golden


if __name__ == "__main__":  # regenerate (deliberately): python tests/test_...
    GOLDEN.write_text(golden_text())
