"""Seeded planner corpus shared by the golden and the structure tests.

``programs()`` is ≈300 fixed programs: the seeded greedy traps, random
stage pipelines over every value domain (the ``vec`` domain brings the
``allreduce (ew)`` sites the bandwidth rules fire on) and generated
MPI-notation texts parsed through ``repro.lang``.  ``golden_lines()`` runs
all three planner tiers over programs × ``PRESETS`` and renders what each
returned; ``tests/data/planner_golden_v1.json`` holds those lines as the
planner of PR 11 produced them (written by ``python tests/planner_corpus.py
PATH`` with that commit's ``src`` on ``PYTHONPATH``), and
``tests/test_planner_structure.py`` requires today's planner to reproduce
them byte for byte.
"""

from __future__ import annotations

import json
import random
import sys

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MIN, MUL
from repro.core.optimizer import exhaustive_optimize, greedy_optimize
from repro.core.planner import beam_optimize, trace_of
from repro.core.rules import ALL_RULES, FULL_RULES
from repro.lang import parse_program
from repro.testing.generator import (
    PLANNER_CASES,
    generate_planner_case,
    generate_random,
)

N_RANDOM = 150
N_TEXTS = 150

SCALAR_ENV = {"op_add": ADD, "op_mul": MUL, "op_max": MAX, "op_min": MIN}

#: a paper-like power-of-two machine, a low-latency non-power-of-two one
#: (the Local rules' ``general`` rewrite) and a post-quarantine machine
#: (``round_penalty``: the recovery runtime's suffix replanning)
PRESETS = (
    MachineParams(p=64, ts=600.0, tw=2.0, m=1024),
    MachineParams(p=6, ts=4.0, tw=0.5, m=16),
    MachineParams(p=8, ts=5.0, tw=0.5, m=1, round_penalty=50.0),
)

_CALLS = ("MPI_Scan", "MPI_Reduce", "MPI_Allreduce", "MPI_Bcast")


def mpi_text(rng: random.Random, name: str, n: int) -> str:
    """``n`` collective statements in the paper's MPI notation; only a
    broadcast may follow a reduce (its non-root blocks are undefined)."""
    lines, cur, defined = [], 0, True
    for _ in range(n):
        call = rng.choice(_CALLS) if defined else "MPI_Bcast"
        defined = call != "MPI_Reduce"
        if call == "MPI_Bcast":
            lines.append(f"MPI_Bcast (x{cur}, 1, MPI_INT, 0, MPI_COMM_WORLD);")
            continue
        root = "0, " if call == "MPI_Reduce" else ""
        lines.append(f"{call} (x{cur}, x{cur + 1}, 1, MPI_INT, "
                     f"{rng.choice(sorted(SCALAR_ENV))}, {root}MPI_COMM_WORLD);")
        cur += 1
    head = f"Program {name} (x0: input, x{cur}: output);"
    return "\n".join([head, *lines]) + "\n"


def programs() -> list[tuple]:
    """``(program, rules)`` for the whole corpus, in a fixed order."""
    out = []
    for trap in PLANNER_CASES:
        rules = FULL_RULES if trap.extensions else ALL_RULES
        out.append((generate_planner_case(trap).program, rules))
    for i in range(N_RANDOM):
        gp = generate_random(random.Random(7_000_003 * i + 29))
        out.append((gp.program, FULL_RULES))
    rng = random.Random("planner-golden-texts")
    for i in range(N_TEXTS):
        text = mpi_text(rng, f"golden{i}", rng.randint(3, 8))
        out.append((parse_program(text).to_program(SCALAR_ENV), FULL_RULES))
    return out


def _record(result) -> dict:
    rec = {
        "trace": [list(step) for step in trace_of(result)],
        "cost_before": repr(result.cost_before),
        "cost_after": repr(result.cost_after),
        "programs_explored": result.programs_explored,
    }
    if hasattr(result, "pruned"):
        rec["pruned"] = result.pruned
        rec["levels"] = result.levels
    return rec


def golden_lines() -> list[str]:
    """One JSON line per (program, preset): what each tier returned."""
    lines = []
    for i, (program, rules) in enumerate(programs()):
        for j, params in enumerate(PRESETS):
            width = (4, 8)[i % 2]
            lines.append(json.dumps({
                "program": i,
                "pretty": program.pretty(),
                "preset": j,
                "greedy": _record(greedy_optimize(program, params, rules)),
                "beam": _record(beam_optimize(program, params, rules,
                                              width=width)),
                "exhaustive": _record(
                    exhaustive_optimize(program, params, rules)),
            }, sort_keys=True))
    return lines


def golden_text() -> str:
    return "[\n" + ",\n".join(golden_lines()) + "\n]\n"


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        fh.write(golden_text())
