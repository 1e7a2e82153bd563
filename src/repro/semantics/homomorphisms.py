"""List homomorphisms: the algebraic foundation under the paper's rules.

The paper's basic building blocks — map, broadcast, reduction, scan —
were identified in the authors' earlier work as the canonical skeletons
for *linear list recursions* (their refs [6], [20]).  A function ``h`` on
lists is a **homomorphism** when

    h (xs ++ ys) = h xs ⊙ h ys            for an associative ⊙,

and then the *first homomorphism theorem* factorizes it as

    h = reduce (⊙) ∘ map (h ∘ wrap)

— i.e. every homomorphism is exactly a ``map`` followed by a
``reduce``, the shape the paper's framework optimizes.  This module
makes that constructive:

* :class:`ListHomomorphism` — (``combine``, per-element ``prepare``);
* :meth:`~ListHomomorphism.to_program` — the map;reduce Program
  (or map;scan for all prefixes — the second standard factorization);
* ready-made instances (``length``, ``sum``, ``max_segment_sum`` — the
  classic non-obvious homomorphism via auxiliary tuples, the same
  auxiliary-variable technique as the paper's §2.3);
* :func:`promote` — the correctness statement as an executable check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.operators import ADD, BinOp
from repro.core.stages import MapStage, Program, ReduceStage, ScanStage

__all__ = [
    "ListHomomorphism",
    "LENGTH",
    "SUM",
    "MAX_SEGMENT_SUM",
    "mss_direct",
]


@dataclass(frozen=True)
class ListHomomorphism:
    """``h`` with ``h(xs ++ ys) = combine(h(xs), h(ys))``.

    ``prepare`` is ``h ∘ wrap`` (the single-element case); ``project``
    extracts the user-facing answer from the homomorphic state (identity
    unless auxiliary variables were introduced).
    """

    name: str
    prepare: Callable[[Any], Any]
    combine: BinOp
    project: Callable[[Any], Any] = staticmethod(lambda s: s)

    def apply(self, xs: Sequence[Any]) -> Any:
        """Direct evaluation (the specification)."""
        if not xs:
            if self.combine.has_identity:
                return self.project(self.combine.identity)
            raise ValueError(f"{self.name} undefined on the empty list")
        state = self.prepare(xs[0])
        for x in xs[1:]:
            state = self.combine(state, self.prepare(x))
        return self.project(state)

    def to_program(self, prefixes: bool = False) -> Program:
        """First homomorphism theorem as a Program.

        ``map prepare ; reduce (combine) ; map project`` — or with
        ``prefixes=True`` the scan factorization, which computes ``h`` of
        every prefix (one per processor).
        """
        middle = ScanStage(self.combine) if prefixes else ReduceStage(self.combine)
        return Program(
            [
                MapStage(self.prepare, label=f"{self.name}.prepare"),
                middle,
                MapStage(self.project, label=f"{self.name}.project"),
            ],
            name=self.name,
        )

    def check_promotion(self, xs: Sequence[Any], ys: Sequence[Any]) -> bool:
        """Executable homomorphism property: h(xs++ys) = h(xs) ⊙ h(ys)."""
        if not xs or not ys:
            return True
        whole = self.apply(list(xs) + list(ys))
        left_state = self._state(xs)
        right_state = self._state(ys)
        return whole == self.project(self.combine(left_state, right_state))

    def _state(self, xs: Sequence[Any]) -> Any:
        state = self.prepare(xs[0])
        for x in xs[1:]:
            state = self.combine(state, self.prepare(x))
        return state


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

LENGTH = ListHomomorphism(
    name="length",
    prepare=lambda _x: 1,
    combine=ADD,
)

SUM = ListHomomorphism(
    name="sum",
    prepare=lambda x: x,
    combine=ADD,
)


def _mss_prepare(x: float) -> tuple:
    """(mss, max-prefix, max-suffix, total) of the singleton [x]."""
    x0 = max(x, 0)
    return (x0, x0, x0, x)


def _mss_combine(a: tuple, b: tuple) -> tuple:
    mssa, pa, sa, ta = a
    mssb, pb, sb, tb = b
    return (
        max(mssa, mssb, sa + pb),
        max(pa, ta + pb),
        max(sb, sa + tb),
        ta + tb,
    )


#: Maximum segment sum — the classic "needs auxiliary variables"
#: homomorphism: the quadruple state mirrors the paper's §2.3 technique.
MAX_SEGMENT_SUM = ListHomomorphism(
    name="mss",
    prepare=_mss_prepare,
    combine=BinOp("mss_combine", _mss_combine, commutative=False,
                  identity=(0, 0, 0, 0), has_identity=True,
                  op_count=8, width=4),
    project=lambda s: s[0],
)


def mss_direct(xs: Sequence[float]) -> float:
    """O(n²)-free oracle: Kadane's algorithm (empty segment allowed)."""
    best = 0.0 if xs and isinstance(xs[0], float) else 0
    cur = best
    for x in xs:
        cur = max(cur + x, 0)
        best = max(best, cur)
    return best
