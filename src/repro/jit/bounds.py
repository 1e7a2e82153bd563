"""Static whole-program overflow analysis for the JIT tier.

The vectorized tier (PR 3) proves safety *per combine*: every
``checked_add``/``checked_mul`` call reduces min/max bounds over its
operands before doing the raw ufunc — two extra memory passes per
operand per operation.  The JIT hoists that proof to **one static range
check per program**: given the interval hull of the actual inputs, we
propagate intervals through every stage with exact Python-int interval
arithmetic and record the magnitude of *every* intermediate an execution
could produce.  If the worst magnitude stays within
:data:`~repro.kernels.blocks.MAX_SAFE_INT` (``2**62``), raw unchecked
``np.add``/``np.multiply`` ufuncs are bit-identical to the checked
kernels and the compiled code may drop all runtime guards.

What is interpreted here is **the tape the compiler runs**
(``repro.jit.compiler.emit_combine`` / ``emit_map``), bound to the
``interval`` reading of each primitive's row
(:class:`repro.kernels.registry.Primitive`) instead of the ``raw`` one:
this module knows no operator name, no ``kind`` and no map label, so
every write the raw tape makes has its interval recorded, instruction
for instruction.

Soundness for collectives
-------------------------
Machine collectives (binomial trees, butterflies, Rabenseifner splits)
never apply ``op`` to arbitrary values: every combine is
``op(fold(A), fold(B))`` for disjoint rank sets ``A``, ``B`` — see
``machine/collectives/``.  So we compute a size-indexed table

    C(1) = leaf interval,   C(k) = hull over a+b=k of  op#(C(a), C(b))

(``a`` and ``b`` both range over ``1..k-1``: ``op`` need not commute)

where ``op#`` is the interval extension of ``op``.  By induction any
subset fold of ``k`` leaves lies in ``C(k)``, and every intermediate of
any combine of an ``a``-fold with a ``b``-fold is recorded while
evaluating ``op#(C(a), C(b))``.  This covers every tree shape the
engines use (and the left folds the functional semantics uses) without
the exponential blow-up of naive ``J -> op#(J, J)`` iteration — for
``mul`` on ``[1, 3]`` at ``p = 8`` the table tops out at ``3**8``, not
``3**128``.

The input hull
--------------
The compiler reads each int64 input block once, with
``np.bitwise_or.reduce``: when the OR is non-negative no element has the
sign bit set and each element's bits are a subset of the OR's, so the
block lies in ``[0, OR]``; otherwise it reads the block's exact
``min``/``max``.  Every interval extension here is inclusion-monotone,
so a proof of that possibly wider hull proves every hull inside it;
where it does not prove, the compiler proves the exact ``min``/``max``
hull instead, and every verdict is the exact hull's.

Floats are trivially safe (raw and checked kernels are the same ufunc
in the same association order); bools and mixed dtypes are never
proven.  Intervals are exact Python bigints, so the analysis itself
cannot overflow.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.kernels.blocks import MAX_SAFE_INT
from repro.kernels.registry import Interval

__all__ = [
    "Interval",
    "BoundsCtx",
    "combine_intervals",
    "fold_intervals",
    "map_intervals",
    "prove",
]

#: refuse pathologically wide machines rather than burn O(p^2) bigint ops
_MAX_ANALYZED_P = 4096


class BoundsCtx:
    """Records the worst |endpoint| of every interval the analysis produces."""

    __slots__ = ("worst",)

    def __init__(self) -> None:
        self.worst = 0

    def note(self, iv: Interval) -> Interval:
        mag = max(-iv[0], iv[1])
        if mag > self.worst:
            self.worst = mag
        return iv

    @property
    def safe(self) -> bool:
        return self.worst <= MAX_SAFE_INT


def hull(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


# -- the interval reading of the two tape forms -----------------------------


def combine_intervals(
    ctx: BoundsCtx, tape: Any, a: Sequence[Interval], b: Sequence[Interval]
) -> tuple[Interval, ...]:
    """One ``op(a, b)`` combine over flat slots: ``tape`` (an
    ``emit_combine`` tape bound to interval rows) run on intervals, every
    instruction's result recorded — ``otimes(r1, s2)`` inside an SR2
    combine included, because the raw tape writes it too."""
    tmps: list[Interval] = []

    def res(ref: tuple[str, int]) -> Interval:
        tag, i = ref
        return a[i] if tag == "a" else b[i] if tag == "b" else tmps[i]

    for iv, sa, sb, _dst in tape.instrs:
        tmps.append(ctx.note(iv(res(sa), res(sb))))
    return tuple(res(r) for r in tape.out)


def fold_intervals(
    ctx: BoundsCtx, tape: Any, leaf: Sequence[Interval], p: int
) -> Optional[tuple[Interval, ...]]:
    """Hull over every subset fold of 1..p leaves (any combine tree).

    ``C(k) = hull over a+b=k of op#(C(a), C(b))``, both operand orders
    (a tape need not be commutative: the compiled left fold combines
    ``C(k-1)`` with ``C(1)``); returns ``hull(C(1)..C(p))`` — a sound
    interval for every value a scan, reduce, or allreduce over ``p``
    blocks can hold or pass through.  None for a leaf of another width
    than the tape's, or too wide a machine.
    """
    if p > _MAX_ANALYZED_P or len(leaf) != tape.slots:
        return None
    table: list[tuple[Interval, ...]] = [tuple(leaf)]
    for k in range(2, p + 1):
        acc: Optional[tuple[Interval, ...]] = None
        for a in range(1, k):
            combined = combine_intervals(ctx, tape, table[a - 1], table[k - a - 1])
            if acc is None:
                acc = combined
            else:
                acc = tuple(hull(x, y) for x, y in zip(acc, combined))
        assert acc is not None
        table.append(acc)
    out = table[0]
    for row in table[1:]:
        out = tuple(hull(x, y) for x, y in zip(out, row))
    return out


def map_intervals(
    ctx: BoundsCtx, tape: Any, slots: Sequence[Interval], p: int = 1
) -> tuple[Interval, ...]:
    """A (possibly fused) map: ``tape`` (an ``emit_map`` tape bound
    to interval rows) run on the block's slot intervals.  A map is per
    block, so ``p`` is not consulted."""
    tmps: list[Interval] = []

    def res(ref: tuple[str, int]) -> Interval:
        return slots[ref[1]] if ref[0] == "i" else tmps[ref[1]]

    for iv, src, const in tape.instrs:
        args = (res(src),) if const is None else (res(src), (const, const))
        tmps.append(ctx.note(iv(*args)))
    return tuple(res(r) for r in tape.out)


# -- whole-program proof ----------------------------------------------------


def prove(
    steps: Sequence[tuple[Callable, Any]], input_iv: Interval, p: int
) -> bool:
    """True iff no execution of ``steps`` over ``p`` int blocks whose
    values lie in ``input_iv`` can exceed ``MAX_SAFE_INT`` anywhere —
    including intermediates inside collectives and combines.

    ``steps`` is a program's proof as the compiler states it
    (``repro.jit.compiler``'s stage table): per value-changing stage, in
    run order, one of the readings above and the interval-bound tape it
    reads, widths already matched."""
    ctx = BoundsCtx()
    slots: Optional[tuple[Interval, ...]] = (ctx.note(input_iv),)
    for read, tape in steps:
        slots = read(ctx, tape, slots, p)
        if slots is None or not ctx.safe:
            return False
    return ctx.safe
