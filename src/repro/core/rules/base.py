"""Rule framework: format, matching and application of optimization rules.

Each optimization rule of the paper (Section 3.1's format,
``lhs --{condition}--> rhs``) is one :class:`Rule` row stating

* ``lhs``         — per window position, the stage classes admitted there
  (:data:`SCAN`, :data:`FOLD` = the rule boxes' ``[all]reduce``, …);
* ``when``        — the algebraic side condition over the window
  (:func:`distributive` / :func:`commutative`), if the rule has one;
* ``rhs``         — the builder of the right-hand-side stages (tagged with
  the rule name as their ``origin``), ``rhs_text`` the paper's wording;
* the human-readable condition and Table 1's "improved if" entry.

Everything else is read off the row: ``match`` is the one pattern-plus-
condition check, ``window`` is ``len(lhs)``, ``exemplar`` is the left-hand
side over the unit base operators in ``units``, and the Table-1 data —
closed-form before/after costs per ``log p`` for unit base operators —
is :func:`~repro.core.cost.program_formula` of the exemplar and of its
rewrite.

Rules that eliminate *all* communication (the Local class) are marked
``lossy_nonroot``: their RHS leaves non-root blocks undefined, so they are
semantic equalities only modulo the paper's ``_`` (see the discussion under
BR-Local in the paper).  The optimizer refuses to apply them mid-program
unless explicitly allowed.

Rules whose ``iter`` exponent is ``log2 p`` are marked
``requires_power_of_two``; passing ``general=True`` to ``rewrite`` selects
our arbitrary-``p`` extension instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Callable, Sequence

from repro.core.cost import CostFormula, MachineParams, program_formula
from repro.core.operators import BinOp, distributes_over
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.semantics.functional import UNDEF, pair, quadruple

__all__ = ["Rule", "RuleApplication", "NoTable1Form", "SCAN", "REDUCE",
           "ALLREDUCE", "FOLD", "BCAST", "distributive", "commutative",
           "is_all", "pair_stage", "quadruple_stage", "projection_stage",
           "adjusted", "safe_pi1"]


def safe_pi1(t):
    """π₁ lifted over the undefined block (Local rules leave ``_`` behind)."""
    if t is UNDEF:
        return UNDEF
    return t[0]


def pair_stage(origin: str) -> MapStage:
    """The rules' pre-adjustment ``map pair`` (cost ignored, per paper §4.2)."""
    return MapStage(pair, label="pair", origin=origin)


def quadruple_stage(origin: str) -> MapStage:
    """The SS/BSS rules' pre-adjustment ``map quadruple``."""
    return MapStage(quadruple, label="quadruple", origin=origin)


def projection_stage(origin: str) -> MapStage:
    """The rules' post-adjustment ``map π1``."""
    return MapStage(safe_pi1, label="pi_1", origin=origin)


def adjusted(rule: "Rule", stage: Stage, pre=pair_stage) -> tuple[Stage, ...]:
    """``map pair ; stage ; map π1`` — a fused collective between the
    adjustments (``pre``: the tupling it needs)."""
    return (pre(rule.name), stage, projection_stage(rule.name))


# -- the left-hand-side vocabulary: stage classes admitted at a position ----

SCAN = (ScanStage,)
REDUCE = (ReduceStage,)
ALLREDUCE = (AllReduceStage,)
#: the rule boxes' ``[all]reduce``: either arm, the builder asks which
FOLD = (ReduceStage, AllReduceStage)
BCAST = (BcastStage,)


def is_all(stage: Stage) -> bool:
    """Which arm of ``[all]reduce`` a :data:`FOLD` position matched."""
    return isinstance(stage, AllReduceStage)


# -- the two side conditions the paper's conditional rules share, each over
# -- the window's last two stages: the folds being fused


def distributive(window: Sequence[Stage]) -> bool:
    """⊗ distributes over ⊕, different operators (the ``*2`` rules)."""
    otimes, oplus = window[-2].op, window[-1].op
    return otimes.name != oplus.name and distributes_over(otimes, oplus)


def commutative(window: Sequence[Stage]) -> bool:
    """One commutative ⊕ in both folds (the same-operator rules)."""
    first, second = window[-2].op, window[-1].op
    return first.name == second.name and first.commutative


class NoTable1Form(ValueError):
    """A rule was asked for the Table-1 columns it does not have."""


_SERIALS = count()


@dataclass(frozen=True, eq=False)
class Rule:
    """An optimization rule ``lhs --{condition}--> rhs``, as one row.

    A rule's identity is the row object (``eq=False``): rule sets are
    hashed on the planner's hot path and must not hash field tuples.
    """

    #: rule name as in the paper, e.g. "SR2-Reduction"
    name: str
    #: per window position, the stage classes admitted there
    lhs: tuple[tuple[type, ...], ...]
    #: ``rhs(rule, window, general)`` builds the right-hand-side stages
    rhs: Callable[["Rule", Sequence[Stage], bool], tuple[Stage, ...]]
    #: the right-hand side in the paper's wording
    rhs_text: str
    #: the side condition, verbatim from the paper
    condition_text: str
    #: Table 1's "improved if" entry
    improvement_text: str
    #: the side condition over the window (None: the shape is enough)
    when: Callable[[Sequence[Stage]], bool] | None = None
    #: the exemplar's unit base operators, in window order
    units: tuple[BinOp, ...] = ()
    #: does the RHS leave non-root processors undefined?
    lossy_nonroot: bool = False
    #: does the RHS's `iter` require p to be a power of two?
    requires_power_of_two: bool = False
    #: ``exact(params)``: the improvement test of a rule whose costs have
    #: no per-``log p`` form; such a row has no Table-1 columns
    exact: Callable[[MachineParams], bool] | None = None
    #: number of consecutive stages matched by the LHS
    window: int = field(init=False)
    #: process-unique, so a process-wide memo can tell a doctored copy
    #: (``dataclasses.replace``) from the catalogue's row of the same name
    serial: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", len(self.lhs))
        object.__setattr__(self, "serial", next(_SERIALS))

    # -- matching / rewriting ------------------------------------------------

    def match(self, stages: Sequence[Stage]) -> bool:
        """Shape and side-condition check on a window of ``self.window`` stages."""
        return (len(stages) == self.window
                and all(map(isinstance, stages, self.lhs))
                and (self.when is None or self.when(stages)))

    def rewrite(self, stages: Sequence[Stage], general: bool = False) -> tuple[Stage, ...]:
        """The RHS stages.  Only call when ``match`` returned True.

        ``general=True`` selects the non-power-of-two extension where one
        exists (Local rules); rules without the restriction ignore it.
        """
        return self.rhs(self, stages, general)

    @cached_property
    def exemplar(self) -> tuple[Stage, ...]:
        """The left-hand side over the unit base operators."""
        units = iter(self.units)
        return tuple(
            cls(next(units)) if "op" in cls.__dataclass_fields__ else cls()
            for cls, *_ in self.lhs)

    # -- Table 1 -------------------------------------------------------------

    @cached_property
    def _columns(self) -> tuple[CostFormula, CostFormula]:
        if self.exact is not None:
            raise NoTable1Form(
                f"{self.name}: its costs carry (1 - 1/p) volume factors, "
                "which have no per-log p form; improves(params) compares "
                "the exact closed forms")
        return (program_formula(self.exemplar).collective,
                program_formula(self.rewrite(self.exemplar)).collective)

    def before_formula(self) -> CostFormula:
        """LHS cost per ``log p`` for unit base operators (Table 1 column 2)."""
        return self._columns[0]

    def after_formula(self) -> CostFormula:
        """RHS cost per ``log p`` for unit base operators (Table 1 column 3)."""
        return self._columns[1]

    def improvement_margin(self) -> CostFormula:
        """before - after; positive where the rule pays off."""
        return self.before_formula() - self.after_formula()

    def improves(self, params: MachineParams) -> bool:
        """Does the rule improve performance at these machine parameters?

        Evaluates Table 1's condition exactly (unit base operators); for
        composite operators use the generic stage costs instead.
        """
        if self.exact is not None:
            return self.exact(params)
        return self.improvement_margin().is_positive(params)

    def always_improves(self) -> bool:
        """Table 1 "always" entries."""
        return self.exact is None and self.improvement_margin().always_positive()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Rule {self.name}>"


@dataclass(frozen=True)
class RuleApplication:
    """One rewrite step in a derivation trace."""

    rule: Rule
    start: int  # index of the first replaced stage
    removed: tuple[Stage, ...]
    inserted: tuple[Stage, ...]

    def describe(self) -> str:
        lhs = " ; ".join(s.pretty() for s in self.removed)
        rhs = " ; ".join(s.pretty() for s in self.inserted)
        return f"{self.rule.name}: [{lhs}]  -->  [{rhs}]"
