"""Rewrite engine: finding and applying rule matches in programs.

A match is a rule plus the index of the stage window it fires on.  The
engine is purely syntactic/algebraic — it checks stage shapes and operator
side conditions, not machine parameters; cost-directed *choice* among
matches is the optimizer's job (:mod:`repro.core.optimizer`).

Local-class rules are semantic equalities only modulo undefined non-root
blocks, so :func:`find_matches` marks whether each match site is *safe*
(no later stage can observe the destroyed blocks) and the engine refuses
unsafe lossy rewrites unless explicitly overridden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.rules import ALL_RULES, Rule, RuleApplication
from repro.core.stages import (
    BcastStage,
    Map2Stage,
    MapIndexedStage,
    MapStage,
    Program,
    Stage,
    _LocalMap,
)

__all__ = ["Match", "match_at", "find_matches", "apply_match", "Derivation",
           "fuse_local_stages"]


@dataclass(frozen=True)
class Match:
    """A rule that fires on ``program.stages[start : start + rule.window]``."""

    rule: Rule
    start: int
    #: False when the rule is lossy and a later stage might read the blocks
    #: the right-hand side leaves undefined.
    safe: bool

    def describe(self) -> str:
        marker = "" if self.safe else "  [unsafe: destroys non-root blocks]"
        return f"{self.rule.name} @ stage {self.start}{marker}"


def _lossy_site_is_safe(stages: Sequence[Stage], end: int) -> bool:
    """May a lossy (Local-class) rule fire on a window ending at ``end``?

    Safe iff nothing after the window can observe non-root blocks: either
    the window is a suffix of the program, or the very next stage is a
    broadcast (which only reads the root block and re-defines the rest).
    """
    return end == len(stages) or isinstance(stages[end], BcastStage)


def match_at(program: Program, rule: Rule, start: int) -> Match | None:
    """Does ``rule`` fire on the window starting at stage ``start``?

    The one place that decides it — ``rule.match`` on the window plus the
    lossy-site safety flag; :func:`find_matches`, the search core
    (:mod:`repro.core.search`) and trace replay all ask here.  ``None``
    when the window runs off the program or the rule does not match.
    """
    stages = program.stages
    end = start + rule.window
    if start < 0 or end > len(stages) or not rule.match(stages[start:end]):
        return None
    return Match(rule, start, not rule.lossy_nonroot
                 or _lossy_site_is_safe(stages, end))


def _usable(match: Match, allow_lossy: bool) -> bool:
    return match.safe or allow_lossy


def find_matches(
    program: Program,
    rules: Iterable[Rule] = ALL_RULES,
    p: int | None = None,
    allow_general: bool = True,
) -> list[Match]:
    """Every rule application site in ``program``, in ``(rule order,
    start)`` order.

    ``p`` (the machine size) filters out power-of-two-only rules on
    machines where the restriction fails, unless ``allow_general`` permits
    the generalized Local extension.
    """
    matches: list[Match] = []
    for rule in rules:
        if rule.requires_power_of_two and p is not None:
            pow2 = p > 0 and (p & (p - 1)) == 0
            if not pow2 and not allow_general:
                continue
        for start in range(len(program.stages) - rule.window + 1):
            match = match_at(program, rule, start)
            if match is not None:
                matches.append(match)
    return matches


def apply_match(
    program: Program,
    match: Match,
    p: int | None = None,
    force_unsafe: bool = False,
) -> tuple[Program, RuleApplication]:
    """Apply one match, returning the rewritten program and the trace step."""
    if not match.safe and not force_unsafe:
        raise ValueError(
            f"{match.rule.name} at stage {match.start} would destroy non-root "
            "blocks that later stages may read (pass force_unsafe to override)"
        )
    rule, start = match.rule, match.start
    window = program.stages[start : start + rule.window]
    if not rule.match(window):
        raise ValueError(f"{rule.name} does not match at stage {start}")
    general = False
    if rule.requires_power_of_two and p is not None:
        general = not (p > 0 and (p & (p - 1)) == 0)
    new_stages = rule.rewrite(window, general=general)
    rewritten = program.replaced(start, rule.window, new_stages)
    step = RuleApplication(rule=rule, start=start, removed=tuple(window),
                          inserted=tuple(new_stages))
    return rewritten, step


@dataclass(frozen=True)
class Derivation:
    """A program together with the rewrite steps that produced it."""

    initial: Program
    final: Program
    steps: tuple[RuleApplication, ...]

    def describe(self) -> str:
        lines = [f"initial: {self.initial.pretty()}"]
        for i, step in enumerate(self.steps, 1):
            lines.append(f"  step {i}: {step.describe()}")
        lines.append(f"final:   {self.final.pretty()}")
        return "\n".join(lines)

    @property
    def rules_used(self) -> tuple[str, ...]:
        return tuple(step.rule.name for step in self.steps)


# ---------------------------------------------------------------------------
# Local-stage fusion (the paper's §5.1 step from PolyEval_2 to PolyEval_3)
# ---------------------------------------------------------------------------


def _fused_origin(first: Stage, second: Stage) -> str:
    """Origin of a fused stage: keep the source-rule names visible.

    When either side was introduced by a rewrite rule (e.g. the ``map π₁``
    of SR2-Reduction), the fused stage keeps that rule name so derivation
    reports can still explain where the stage came from; plain user maps
    fuse under the generic ``"local-fusion"`` tag.
    """
    origins = [o for o in (first.origin, second.origin)
               if o and o != "local-fusion"]
    if not origins:
        return "local-fusion"
    return "+".join(dict.fromkeys(origins))


def _fuse_pair(first: Stage, second: Stage) -> Stage | None:
    """Fuse two adjacent local stages into one, or None if not fusible."""
    if not (isinstance(first, _LocalMap) and isinstance(second, _LocalMap)):
        return None  # e.g. IterStage is local but not a fusible map
    (f, f_rank, f_other), (g, g_rank, g_other) = (first.normal_form(),
                                                  second.normal_form())
    if f_other is not None and (g_rank or g_other is not None):
        return None  # map2 ; map# and map2 ; map2 have no fused form
    rank, other = f_rank or g_rank, g_other if f_other is None else f_other
    facts = dict(label=f"{first.label};{second.label}",
                 ops_per_element=first.ops_per_element + second.ops_per_element,
                 origin=_fused_origin(first, second))

    def call(k, x, y):
        return g(k, f(k, x, y), y)

    if other is not None:
        fn = call if rank else lambda x, y: call(None, x, y)
        return Map2Stage(fn, other=other, indexed=rank, **facts)
    if rank:
        return MapIndexedStage(lambda k, x: call(k, x, None), **facts)
    return MapStage(lambda x: call(None, x, None), **facts)


def fuse_local_stages(program: Program) -> Program:
    """Merge every run of adjacent local stages into a single local stage.

    This is the purely local transformation the paper uses to go from
    PolyEval_2 to PolyEval_3 (fusing ``map# op_poly`` with ``map2 (×) as``
    into ``map2# op_new``).  Collective stages are never touched.
    """
    stages: list[Stage] = []
    for stage in program.stages:
        if stages and not stage.is_collective and not stages[-1].is_collective:
            fused = _fuse_pair(stages[-1], stage)
            if fused is not None:
                stages[-1] = fused
                continue
        stages.append(stage)
    return Program(stages, name=program.name)
