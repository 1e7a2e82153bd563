"""The vectorized reference evaluator: plan, run, fall back exactly.

:func:`run_vectorized` is the kernel layer's counterpart of
``Program.run``: same distributed-list semantics, whole-block array
kernels per stage.  It is the fifth conformance backend
(``repro.testing.oracle``), so every generated program is differentially
checked between the two representations.

Execution goes through a :class:`VectorPlan` whose steps group the
``map pair ; collective(op) ; map π₁`` sandwiches the rewrite rules emit
into single *fused-collective* steps — after local-stage fusion each
optimized right-hand side executes as one kernelized unit per block, and
the step's ``origin`` still names the rule that created it.

Fallback contract (exactness over speed):

* **static** — inputs without an array representation (the list and
  segmented generator domains) or stages without a kernel raise
  :class:`KernelUnsupported`; with ``strict=False`` (the default) the
  program is simply run in object mode instead, bit-for-bit.
* **dynamic** — a checked integer kernel detecting imminent int64
  overflow raises :class:`KernelOverflow`; the program is *always*
  replayed in object mode (Python bigints), even under ``strict=True``,
  because the caller asked for results, not for a representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.stages import MapStage, Program, Stage
from repro.kernels.blocks import (
    KernelFallback,
    KernelUnsupported,
    devectorize_block,
    vectorize_block,
)
from repro.kernels.lowering import vectorize_program
from repro.kernels.registry import map_rows

__all__ = ["PlanStep", "VectorPlan", "build_plan", "run_lowered",
           "run_vectorized"]


@dataclass(frozen=True)
class PlanStep:
    """One unit of vectorized execution.

    ``kind`` is ``"local"`` (a fused run of map stages), ``"collective"``
    (a lone communicating stage), or ``"fused-collective"`` (a rule's
    ``map pre ; collective ; map π₁`` sandwich executing as one unit).
    ``origin`` names the rewrite rule that introduced the step, if any.
    """

    kind: str
    stages: tuple[Stage, ...]
    label: str
    origin: str = ""

    def run(self, xs: Sequence[Any]) -> list[Any]:
        data = list(xs)
        for stage in self.stages:
            data = stage.apply(data)
        return data

    def pretty(self) -> str:
        body = " ; ".join(s.pretty() for s in self.stages)
        tag = f"  [{self.origin}]" if self.origin else ""
        return f"{self.kind}: {body}{tag}"


@dataclass(frozen=True)
class VectorPlan:
    """A kernelized program grouped into execution steps."""

    program: Program  # the kernelized (fused + lowered) program
    steps: tuple[PlanStep, ...]

    def run(self, xs: Sequence[Any]) -> list[Any]:
        data = list(xs)
        for step in self.steps:
            data = step.run(data)
        return data

    def pretty(self) -> str:
        return "\n".join(step.pretty() for step in self.steps)


def _edge_effect(stage: Stage, at: int) -> str:
    """The tape effect of a map stage's first (0) or last (-1) fused part:
    the rules' pre-adjustments replicate, their post-adjustment projects."""
    if not isinstance(stage, MapStage):
        return ""
    _part, row = map_rows(stage.label)[at]
    return row.effect[0] if row is not None and row.effect else ""


def build_plan(program: Program) -> VectorPlan:
    """Lower ``program`` and group its stages into plan steps.

    Raises :class:`KernelUnsupported` when any stage has no lowering.
    """
    lowered = vectorize_program(program)
    stages = lowered.stages
    steps: list[PlanStep] = []
    i = 0
    while i < len(stages):
        stage = stages[i]
        kind, group = "local", (stage,)
        if stage.is_collective:
            kind = "collective"
            # try to absorb the rule sandwich around a collective
            pre = steps[-1] if steps else None
            if (pre is not None and pre.kind == "local"
                    and _edge_effect(pre.stages[0], -1) == "replicate"):
                kind, group = "fused-collective", pre.stages + group
                steps.pop()
            post = stages[i + 1] if i + 1 < len(stages) else None
            if post is not None and _edge_effect(post, 0) == "project":
                kind, group = "fused-collective", group + (post,)
                i += 1
        steps.append(PlanStep(kind=kind, stages=group, label=stage.pretty(),
                              origin=stage.origin))
        i += 1
    return VectorPlan(program=lowered, steps=tuple(steps))


def run_lowered(
    lower: Mapping[str, Callable[[], Any]],
    run: Callable[..., Any],
    replay: Callable[[], Any],
    *,
    strict: bool = False,
    declined: Callable[[str], None] = lambda why: None,
) -> Any:
    """The one fallback contract of every kernel tier (module docstring).

    ``lower`` is the static part, in order: each thunk lowers one thing
    (the program, the inputs) and is keyed by the reason to report when
    it raises :class:`KernelUnsupported` — then ``replay()``, the exact
    object-mode run, answers instead, unless ``strict`` propagates the
    skip.  ``run(*lowered)`` is the dynamic part and devectorizes its own
    result; any :class:`KernelFallback` out of it (a checked kernel met
    an int64 overflow) is ``"overflow-replay"`` and always replays.
    """
    lowered = []
    try:
        for why, thunk in lower.items():
            lowered.append(thunk())
    except KernelUnsupported:
        declined(why)
        if strict:
            raise
        return replay()
    try:
        return run(*lowered)
    except KernelFallback:
        declined("overflow-replay")
        return replay()


def run_vectorized(
    program: Program, xs: Sequence[Any], *, strict: bool = False
) -> list[Any]:
    """Run ``program`` on the distributed list ``xs`` with array kernels.

    Returns object-mode values (outputs are devectorized), identical to
    ``program.run(xs)``.  ``strict=True`` propagates *static*
    :class:`KernelUnsupported` (no silent object-mode duplicate work —
    the oracle uses this to report SKIPPED); dynamic overflow always
    falls back to the exact object-mode replay.
    """
    return run_lowered(
        {"unsupported-program": lambda: build_plan(program),
         "unsupported-input": lambda: [vectorize_block(x) for x in xs]},
        lambda plan, vec: [devectorize_block(v) for v in plan.run(vec)],
        lambda: program.run(list(xs)), strict=strict)
