"""Program evaluation utilities over the reference semantics.

:func:`run_program` is a thin wrapper over ``Program.run``;
:func:`run_with_trace` additionally records the distributed list after
every stage (the x → y → z → u → v chain of the paper's Example program),
and :func:`equivalent_on` checks two programs for semantic equality modulo
undefined blocks — the notion of equivalence under which the optimization
rules are proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.stages import Program, Stage
from repro.semantics.functional import defined_equal

__all__ = ["StageTrace", "run_program", "run_with_trace", "equivalent_on"]


@dataclass(frozen=True)
class StageTrace:
    """Intermediate machine states of one program run."""

    program: Program
    inputs: tuple[Any, ...]
    #: states[i] is the distributed list *after* stage i
    states: tuple[tuple[Any, ...], ...]

    @property
    def output(self) -> tuple[Any, ...]:
        return self.states[-1] if self.states else self.inputs

    def describe(self) -> str:
        lines = [f"input: {list(self.inputs)}"]
        for stage, state in zip(self.program.stages, self.states):
            lines.append(f"  after {stage.pretty():40s} {list(state)}")
        return "\n".join(lines)


def run_program(program: Program, xs: Sequence[Any]) -> list[Any]:
    """Run ``program`` on distributed list ``xs`` (reference semantics:
    per-block Python evaluation, the paper's specification)."""
    return program.run(xs)


def run_with_trace(program: Program, xs: Sequence[Any]) -> StageTrace:
    """Run ``program`` recording every intermediate distributed list."""
    states: list[tuple[Any, ...]] = []
    data = list(xs)
    for stage in program.stages:
        data = stage.apply(data)
        states.append(tuple(data))
    return StageTrace(program=program, inputs=tuple(xs), states=tuple(states))


def equivalent_on(
    prog_a: Program, prog_b: Program, inputs: Sequence[Sequence[Any]]
) -> bool:
    """Do the two programs agree (modulo ``_``) on every given input list?

    This is the executable counterpart of the paper's semantic equality:
    rules may leave blocks undefined (Local class), and undefined blocks
    match anything.
    """
    for xs in inputs:
        if not defined_equal(prog_a.run(xs), prog_b.run(xs)):
            return False
    return True
