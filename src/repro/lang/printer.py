"""Pretty-printer: stage Programs back to MPI-like surface text.

Each statement is the stage class's ``mpi_text``: the call it declares
(``mpi_call``), which :mod:`repro.lang.parser` reads back, or for a
``NOT_WRITABLE`` class one of the "new collective operations" the paper's
conclusions describe (``MPI_Reduce_balanced``, ``Comcast``, ``Iter``, ...).
A stage a rule introduced is annotated with the rule's name; a class
with neither form is a ``StageFacetError``.
"""

from __future__ import annotations

from repro.core.stages import Program

__all__ = ["to_mpi_text"]

_VARS = "xyzuvwabcdefgh"


def _var(i: int) -> str:
    if i < len(_VARS):
        return _VARS[i]
    return f"t{i}"


def to_mpi_text(program: Program) -> str:
    """Render a Program as MPI-like pseudo code (the paper's notation)."""
    lines = [f"Program {program.name} ({_var(0)}: input);"]
    cur = 0
    for stage in program.stages:
        src = _var(cur)
        if not (stage.mpi_call and stage.mpi_call.in_place):
            cur += 1
        comment = f"  // introduced by {stage.origin}" if stage.origin else ""
        lines.append(stage.mpi_text(src, _var(cur)) + comment)
    return "\n".join(lines)
