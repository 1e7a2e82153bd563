"""Pretty-printer: stage Programs back to MPI-like surface text.

Round-trips the stages the parser produces; rule-introduced stages print
as the "new collective operations" the paper's conclusions describe
(``MPI_Reduce_balanced``, ``MPI_Scan_balanced``, ``Comcast``, ``Iter``),
annotated with the rule that created them.  Each statement is the stage
class's own ``mpi_text`` facet; a class without one is a
``StageFacetError``.
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
        if not stage.mpi_in_place:
            cur += 1
        comment = f"  // introduced by {stage.origin}" if stage.origin else ""
        lines.append(stage.mpi_text(src, _var(cur)) + comment)
    return "\n".join(lines)
