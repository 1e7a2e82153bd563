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

Soundness for collectives
-------------------------
Machine collectives (binomial trees, butterflies, Rabenseifner splits)
never apply ``op`` to arbitrary values: every combine is
``op(fold(A), fold(B))`` for disjoint rank sets ``A``, ``B`` — see
``machine/collectives/``.  So we compute a size-indexed table

    C(1) = leaf interval,   C(k) = hull over a+b=k of  op#(C(a), C(b))

where ``op#`` is the interval extension of ``op``.  By induction any
subset fold of ``k`` leaves lies in ``C(k)``, and every intermediate of
any combine of an ``a``-fold with a ``b``-fold is recorded while
evaluating ``op#(C(a), C(b))``.  This covers every tree shape the
engines use (and the left folds the functional semantics uses) without
the exponential blow-up of naive ``J -> op#(J, J)`` iteration — for
``mul`` on ``[1, 3]`` at ``p = 8`` the table tops out at ``3**8``, not
``3**128``.

Floats are trivially safe (raw and checked kernels are the same ufunc
in the same association order); bools and mixed dtypes are never
proven.  Intervals are exact Python bigints, so the analysis itself
cannot overflow.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.operators import BinOp
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.kernels.blocks import MAX_SAFE_INT

__all__ = [
    "Interval",
    "BoundsCtx",
    "slot_count",
    "combine_intervals",
    "fold_intervals",
    "map_intervals",
    "analyze_stages",
]

#: inclusive (lo, hi) over exact Python ints
Interval = tuple[int, int]

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


# -- interval primitives (each records its result) --------------------------


def _iadd(ctx: BoundsCtx, a: Interval, b: Interval) -> Interval:
    return ctx.note((a[0] + b[0], a[1] + b[1]))


def _imul(ctx: BoundsCtx, a: Interval, b: Interval) -> Interval:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return ctx.note((min(ps), max(ps)))


def _imax(ctx: BoundsCtx, a: Interval, b: Interval) -> Interval:
    return ctx.note((max(a[0], b[0]), max(a[1], b[1])))


def _imin(ctx: BoundsCtx, a: Interval, b: Interval) -> Interval:
    return ctx.note((min(a[0], b[0]), min(a[1], b[1])))


#: BinOp name -> interval extension.  ``fadd``/``fmul`` only ever see
#: int intervals here when a float op is (harmlessly) applied to ints.
_IOPS: dict[str, Callable[[BoundsCtx, Interval, Interval], Interval]] = {
    "add": _iadd,
    "fadd": _iadd,
    "mul": _imul,
    "fmul": _imul,
    "max": _imax,
    "min": _imin,
}


# -- structural combine over slot tuples ------------------------------------


def slot_count(op: BinOp) -> Optional[int]:
    """Flat component count of ``op``'s values, or None if not analyzable."""
    if op.name in _IOPS:
        return 1
    kind = getattr(op, "kind", "")
    parts = getattr(op, "parts", ())
    if kind == "ew" and parts:
        return slot_count(parts[0])
    if kind == "sr2" and len(parts) == 2:
        a = slot_count(parts[0])
        b = slot_count(parts[1])
        if a == 1 and b == 1:
            return 2
        return None
    if kind == "product" and parts:
        counts = [slot_count(p) for p in parts]
        if any(c is None for c in counts):
            return None
        return sum(counts)  # type: ignore[arg-type]
    return None


def combine_intervals(
    ctx: BoundsCtx, op: BinOp, a: Sequence[Interval], b: Sequence[Interval]
) -> Optional[tuple[Interval, ...]]:
    """Interval extension of one ``op(a, b)`` combine over flat slots.

    Mirrors the tape the compiler emits (and the structural recursion in
    ``kernels.registry.binop_kernel``), recording every intermediate —
    including ``otimes(r1, s2)`` inside an SR2 combine.
    """
    iop = _IOPS.get(op.name)
    if iop is not None:
        if len(a) != 1 or len(b) != 1:
            return None
        return (iop(ctx, a[0], b[0]),)
    kind = getattr(op, "kind", "")
    parts = getattr(op, "parts", ())
    if kind == "ew" and parts:
        return combine_intervals(ctx, parts[0], a, b)
    if kind == "sr2" and len(parts) == 2:
        otimes, oplus = parts
        if len(a) != 2 or len(b) != 2:
            return None
        t = combine_intervals(ctx, otimes, (a[1],), (b[0],))  # otimes(r1, s2)
        if t is None:
            return None
        s = combine_intervals(ctx, oplus, (a[0],), t)
        r = combine_intervals(ctx, otimes, (a[1],), (b[1],))
        if s is None or r is None:
            return None
        return (s[0], r[0])
    if kind == "product" and parts:
        counts = [slot_count(p) for p in parts]
        if any(c is None for c in counts) or sum(counts) != len(a) or len(a) != len(b):  # type: ignore[arg-type]
            return None
        out: list[Interval] = []
        lo = 0
        for part, c in zip(parts, counts):
            sub = combine_intervals(ctx, part, a[lo : lo + c], b[lo : lo + c])
            if sub is None:
                return None
            out.extend(sub)
            lo += c
        return tuple(out)
    return None


def fold_intervals(
    ctx: BoundsCtx, op: BinOp, leaf: Sequence[Interval], p: int
) -> Optional[tuple[Interval, ...]]:
    """Hull over every subset fold of 1..p leaves (any combine tree).

    ``C(k) = hull over a+b=k of op#(C(a), C(b))``; returns
    ``hull(C(1)..C(p))`` — a sound interval for every value a scan,
    reduce, or allreduce over ``p`` blocks can hold or pass through.
    """
    if p > _MAX_ANALYZED_P:
        return None
    n = len(leaf)
    table: list[tuple[Interval, ...]] = [tuple(leaf)]
    for k in range(2, p + 1):
        acc: Optional[tuple[Interval, ...]] = None
        for a in range(1, k // 2 + 1):
            combined = combine_intervals(ctx, op, table[a - 1], table[k - a - 1])
            if combined is None:
                return None
            if acc is None:
                acc = combined
            else:
                acc = tuple(hull(x, y) for x, y in zip(acc, combined))
        assert acc is not None
        table.append(acc)
    out = table[0]
    for row in table[1:]:
        out = tuple(hull(x, y) for x, y in zip(out, row))
    if len(out) != n:
        return None
    return out


# -- map labels -------------------------------------------------------------


def map_intervals(
    ctx: BoundsCtx, label: str, slots: tuple[Interval, ...]
) -> Optional[tuple[Interval, ...]]:
    """Propagate intervals through a (possibly ``;``-fused) map label."""
    for part in label.split(";"):
        if part in ("pair", "triple", "quadruple"):
            if len(slots) != 1:
                return None
            reps = {"pair": 2, "triple": 3, "quadruple": 4}[part]
            slots = (slots[0],) * reps
        elif part == "pi_1":
            if len(slots) < 2:
                return None
            slots = (slots[0],)
        elif part == "inc":
            if len(slots) != 1:
                return None
            slots = (_iadd(ctx, slots[0], (1, 1)),)
        elif part == "dbl":
            if len(slots) != 1:
                return None
            slots = (_imul(ctx, slots[0], (2, 2)),)
        elif part == "neg":
            if len(slots) != 1:
                return None
            slots = (ctx.note((-slots[0][1], -slots[0][0])),)
        else:
            return None
    return slots


# -- whole-program analysis -------------------------------------------------


def analyze_stages(stages: Sequence[Stage], input_iv: Interval, p: int) -> bool:
    """True iff no execution of ``stages`` over ``p`` int blocks whose
    values lie in ``input_iv`` can exceed ``MAX_SAFE_INT`` anywhere —
    including intermediates inside collectives and combines.

    A stage with a :meth:`~repro.core.stages.Stage.definition` (comcast,
    iter) is analyzed as that pipeline, which is what its compiled
    closure executes — *not* what the engines' digit traversal computes
    (``b^(2^step)`` may leave the hull of the folds), so the proof
    licenses the closure and no raw engine form."""
    ctx = BoundsCtx()
    ctx.note(input_iv)
    slots: Optional[tuple[Interval, ...]] = (input_iv,)
    for stage in (d for s in stages for d in s.definition() or (s,)):
        if slots is None:
            return False
        if isinstance(stage, MapStage):
            slots = map_intervals(ctx, stage.label, slots)
        elif isinstance(stage, (ScanStage, ReduceStage, AllReduceStage)):
            if slot_count(stage.op) != len(slots):
                return False
            slots = fold_intervals(ctx, stage.op, slots, p)
        elif isinstance(stage, BcastStage):
            pass  # pure movement
        else:
            return False  # gather/scatter/balanced/...: not analyzed
        if not ctx.safe:
            return False
    return slots is not None and ctx.safe
