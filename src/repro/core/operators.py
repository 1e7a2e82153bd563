"""Binary-operator algebra for collective-operation fusion.

The optimization rules of Gorlatch/Wedler/Lengauer (IPPS'99) fire only when
the base operators of the fused collectives satisfy algebraic side
conditions: associativity (always), commutativity (SR-/SS-/BSS-/BSR-rules)
and distributivity (the ``*2`` rules).  This module provides

* :class:`BinOp` — a binary operator together with the metadata the rewrite
  engine and the cost model need (algebraic flags, identity element, number
  of elementary machine operations per application, element width in words);
* a *distributivity registry* relating operator pairs;
* randomized property checkers that act as executable proof obligations
  (:func:`check_associative`, :func:`check_commutative`,
  :func:`check_distributes`);
* a zoo of standard operators used throughout the tests, examples and
  benchmarks.

Operators act on opaque Python values; the machine simulator and the
reference semantics both call them through :meth:`BinOp.__call__`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "BinOp",
    "op_signature",
    "OpPropertyError",
    "declare_distributes",
    "distributes_over",
    "check_associative",
    "check_commutative",
    "check_distributes",
    "verify_op",
    "ADD",
    "MUL",
    "MAX",
    "MIN",
    "CONCAT",
    "AND",
    "OR",
    "XOR",
    "FADD",
    "FMUL",
    "MATMUL2",
    "MATADD2",
    "mod_add",
    "mod_mul",
    "product_op",
    "elementwise_op",
    "EW_ADD",
    "EW_MAX",
    "EW_MIN",
    "STANDARD_OPS",
    "DISTRIBUTIVE_PAIRS",
]


class OpPropertyError(AssertionError):
    """A declared algebraic property failed a randomized check."""


@dataclass(frozen=True)
class BinOp:
    """A binary associative operator with rewrite/cost metadata.

    Parameters
    ----------
    name:
        Printed in rule reports and programs, and only printed: laws,
        kernel rows and MPI sources are keyed by the operator itself.
    fn:
        The binary callable.  It must be associative for every collective
        operation in this library to be well defined; commutativity is
        optional and gates some rules.
    associative / commutative:
        Declared algebraic flags.  Declarations can be validated against
        random samples with :func:`verify_op`.
    identity:
        Optional identity element (used by a few degenerate cases, e.g.
        scans over empty lists, and by tests).
    op_count:
        Number of elementary machine operations one application costs in the
        paper's cost model (Section 4.1 counts "one computation operation"
        as the unit).  Base operators cost 1; derived fused operators cost
        more and carry their own count.
    width:
        Number of machine words one *element* occupies on the wire.  Base
        scalars are 1 word; pairs/triples/quadruples built by the rules are
        2/3/4 words.  The cost model multiplies message volume by this.
    kind / parts:
        Structural metadata for composed operators (``"sr2"``,
        ``"product"``, ``"seg"``, ...): ``parts`` holds the component
        operators the composition was built from.  The kernel registry
        (:mod:`repro.kernels`) uses this to lower composed operators to
        whole-block array kernels without inspecting ``fn``.  Leaf
        operators leave both empty.
    source:
        The operator a kernelized or token form was made from (set by
        :meth:`with_fn` only); the form reads that operator's kernel row.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    associative: bool = True
    commutative: bool = False
    identity: Any = None
    has_identity: bool = False
    op_count: int = 1
    width: int = 1
    kind: str = field(default="", compare=False)
    parts: tuple = field(default=(), compare=False)
    source: Optional["BinOp"] = field(default=None, compare=False)

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinOp({self.name})"

    def with_fn(self, fn: Callable[[Any, Any], Any]) -> "BinOp":
        """This operator computing with ``fn``: a kernelized or token form
        that keeps the laws and kernel row of the operator it came from."""
        return replace(self, fn=fn, source=self.source or self)

    def fold(self, items: Sequence[Any]) -> Any:
        """Left fold of a non-empty sequence (or identity for empty)."""
        if not items:
            if self.has_identity:
                return self.identity
            raise ValueError(f"cannot fold empty sequence with {self.name}")
        acc = items[0]
        for item in items[1:]:
            acc = self.fn(acc, item)
        return acc

    def power(self, value: Any, exponent: int) -> Any:
        """``value ⊕ value ⊕ ... ⊕ value`` (``exponent`` occurrences).

        Computed by repeated squaring; requires ``exponent >= 1`` (or an
        identity element for ``exponent == 0``).
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            if self.has_identity:
                return self.identity
            raise ValueError(f"{self.name} has no identity for exponent 0")
        result = None
        base = value
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else self.fn(result, base)
            base = self.fn(base, base)
            n >>= 1
        return result


def op_signature(op) -> tuple:
    """Canonical identity of a stage operator.

    For a :class:`BinOp` this is the name plus the algebraic/cost
    metadata rule matching and costing observe; composed operators
    (``kind``/``parts``) recurse so structurally equal compositions
    agree.  A leaf outside :data:`STANDARD_OPS` also carries its ``fn``'s
    identity, so a namesake never keys as the catalogue operator.  Derived
    operators (``SRTreeOp`` etc.) are identified by class and name, the
    ``op_count`` and width the cost model charges, and the signatures of
    the operators they are built from — a name does not say what a
    component costs.
    """
    if isinstance(op, BinOp):
        sig = ("op", op.name, op.associative, op.commutative,
               op.op_count, op.width)
        if op.kind:
            return sig + (op.kind, tuple(op_signature(p) for p in op.parts))
        base = op.source or op
        return sig if base in _CATALOGUE else sig + (id(base.fn),)
    # derived non-BinOp operators (SRTreeOp, SSButterflyOp, ComcastOp, IterOp)
    name = getattr(op, "name", None)
    parts = getattr(op, "parts", None) or (getattr(op, "op", None),)
    return ("derived", type(op).__name__, repr(op) if name is None else name,
            getattr(op, "op_count", None),
            getattr(op, "comm_width", getattr(op, "state_width", None)),
            tuple(op_signature(p) for p in parts if p is not None))


# ---------------------------------------------------------------------------
# Distributivity registry
# ---------------------------------------------------------------------------

#: Pairs ``(otimes, oplus)`` of operators such that otimes distributes over
#: oplus, i.e. ``a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)`` and symmetrically on the
#: right.  The ``*2`` rules consult this registry through
#: :func:`distributes_over`, at every match: nothing keeps its answers.
DISTRIBUTIVE_PAIRS: set[tuple[BinOp, BinOp]] = set()


def declare_distributes(otimes: BinOp, oplus: BinOp) -> None:
    """Record that ``otimes`` distributes over ``oplus``."""
    DISTRIBUTIVE_PAIRS.add((otimes, oplus))


def distributes_over(otimes: BinOp, oplus: BinOp) -> bool:
    """Does ``otimes`` distribute over ``oplus`` (per the registry)?"""
    return (otimes, oplus) in DISTRIBUTIVE_PAIRS


# ---------------------------------------------------------------------------
# Randomized property checking (executable proof obligations)
# ---------------------------------------------------------------------------


def _samples(gen: Callable[[random.Random], Any], trials: int, seed: int) -> Iterable[tuple]:
    rng = random.Random(seed)
    for _ in range(trials):
        yield gen(rng), gen(rng), gen(rng)


def check_associative(
    op: BinOp,
    gen: Callable[[random.Random], Any],
    trials: int = 100,
    seed: int = 0,
    eq: Callable[[Any, Any], bool] | None = None,
) -> None:
    """Raise :class:`OpPropertyError` unless ``op`` looks associative.

    ``gen(rng)`` draws random elements; ``eq`` defaults to ``==`` (pass an
    approximate comparison for floats).
    """
    eq = eq or (lambda a, b: a == b)
    for a, b, c in _samples(gen, trials, seed):
        lhs = op(op(a, b), c)
        rhs = op(a, op(b, c))
        if not eq(lhs, rhs):
            raise OpPropertyError(
                f"{op.name} not associative: ({a}?{b})?{c} = {lhs} != {rhs}"
            )


def check_commutative(
    op: BinOp,
    gen: Callable[[random.Random], Any],
    trials: int = 100,
    seed: int = 0,
    eq: Callable[[Any, Any], bool] | None = None,
) -> None:
    """Raise :class:`OpPropertyError` unless ``op`` looks commutative."""
    eq = eq or (lambda a, b: a == b)
    for a, b, _ in _samples(gen, trials, seed):
        if not eq(op(a, b), op(b, a)):
            raise OpPropertyError(f"{op.name} not commutative on {a}, {b}")


def check_distributes(
    otimes: BinOp,
    oplus: BinOp,
    gen: Callable[[random.Random], Any],
    trials: int = 100,
    seed: int = 0,
    eq: Callable[[Any, Any], bool] | None = None,
) -> None:
    """Check two-sided distributivity of ``otimes`` over ``oplus``."""
    eq = eq or (lambda a, b: a == b)
    for a, b, c in _samples(gen, trials, seed):
        left_l = otimes(a, oplus(b, c))
        left_r = oplus(otimes(a, b), otimes(a, c))
        if not eq(left_l, left_r):
            raise OpPropertyError(
                f"{otimes.name} does not left-distribute over {oplus.name}"
            )
        right_l = otimes(oplus(a, b), c)
        right_r = oplus(otimes(a, c), otimes(b, c))
        if not eq(right_l, right_r):
            raise OpPropertyError(
                f"{otimes.name} does not right-distribute over {oplus.name}"
            )


def verify_op(
    op: BinOp,
    gen: Callable[[random.Random], Any],
    trials: int = 100,
    seed: int = 0,
    eq: Callable[[Any, Any], bool] | None = None,
) -> None:
    """Validate every property ``op`` declares about itself."""
    if op.associative:
        check_associative(op, gen, trials, seed, eq)
    if op.commutative:
        check_commutative(op, gen, trials, seed, eq)
    if op.has_identity:
        eq = eq or (lambda a, b: a == b)
        rng = random.Random(seed)
        for _ in range(trials):
            a = gen(rng)
            if not (eq(op(op.identity, a), a) and eq(op(a, op.identity), a)):
                raise OpPropertyError(f"{op.identity!r} is not an identity of {op.name}")


# ---------------------------------------------------------------------------
# Standard operator zoo
# ---------------------------------------------------------------------------

ADD = BinOp("add", lambda a, b: a + b, commutative=True, identity=0, has_identity=True)
MUL = BinOp("mul", lambda a, b: a * b, commutative=True, identity=1, has_identity=True)
MAX = BinOp("max", max, commutative=True)
MIN = BinOp("min", min, commutative=True)
#: String/list concatenation — the canonical associative, *non-commutative* op.
CONCAT = BinOp("concat", lambda a, b: a + b, commutative=False)
AND = BinOp("and", lambda a, b: a and b, commutative=True, identity=True, has_identity=True)
OR = BinOp("or", lambda a, b: a or b, commutative=True, identity=False, has_identity=True)
XOR = BinOp("xor", lambda a, b: bool(a) ^ bool(b), commutative=True, identity=False, has_identity=True)
#: Floating-point variants (identical fns; distinct names so tests can pick
#: approximate equality).
FADD = BinOp("fadd", lambda a, b: a + b, commutative=True, identity=0.0, has_identity=True)
FMUL = BinOp("fmul", lambda a, b: a * b, commutative=True, identity=1.0, has_identity=True)


def _matmul2(a, b):
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def _matadd2(a, b):
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 + b00, a01 + b01), (a10 + b10, a11 + b11))


#: 2x2 integer matrix product — associative, non-commutative, 4 words wide.
MATMUL2 = BinOp("matmul2", _matmul2, commutative=False,
                identity=((1, 0), (0, 1)), has_identity=True, width=4, op_count=12)
MATADD2 = BinOp("matadd2", _matadd2, commutative=True,
                identity=((0, 0), (0, 0)), has_identity=True, width=4, op_count=4)


def mod_add(modulus: int) -> BinOp:
    """Addition in Z_modulus (commutative monoid)."""
    return BinOp(
        f"add%{modulus}", lambda a, b: (a + b) % modulus,
        commutative=True, identity=0, has_identity=True,
    )


def mod_mul(modulus: int) -> BinOp:
    """Multiplication in Z_modulus (commutative monoid)."""
    return BinOp(
        f"mul%{modulus}", lambda a, b: (a * b) % modulus,
        commutative=True, identity=1 % modulus, has_identity=True,
    )


# Distributivity facts used by the ``*2`` rules.
declare_distributes(MUL, ADD)
declare_distributes(FMUL, FADD)
declare_distributes(ADD, MAX)   # tropical (max, +) semiring
declare_distributes(ADD, MIN)   # tropical (min, +) semiring
declare_distributes(FADD, MAX)
declare_distributes(FADD, MIN)
declare_distributes(AND, OR)
declare_distributes(AND, XOR)   # Boolean ring GF(2)
declare_distributes(MATMUL2, MATADD2)
declare_distributes(MIN, MAX)   # distributive lattice
declare_distributes(MAX, MIN)

#: Every exported ready-made operator, for iteration in tests.
STANDARD_OPS: tuple[BinOp, ...] = (
    ADD, MUL, MAX, MIN, CONCAT, AND, OR, XOR, FADD, FMUL, MATMUL2, MATADD2,
)
_CATALOGUE = frozenset(STANDARD_OPS)


def product_op(left: BinOp, right: BinOp, name: str | None = None) -> BinOp:
    """The componentwise product operator on pairs (paper §2.3's op_new).

    ``product_op(ADD, MUL)((a1,b1),(a2,b2)) = (a1+a2, b1*b2)`` — the
    general form of Figure 2's auxiliary-variable construction.  The
    product of associative (commutative) operators is associative
    (commutative); identities combine componentwise.
    """

    def fn(x, y):
        return (left(x[0], y[0]), right(x[1], y[1]))

    has_id = left.has_identity and right.has_identity
    return BinOp(
        name=name or f"({left.name}*{right.name})",
        fn=fn,
        associative=left.associative and right.associative,
        commutative=left.commutative and right.commutative,
        identity=(left.identity, right.identity) if has_id else None,
        has_identity=has_id,
        op_count=left.op_count + right.op_count,
        width=left.width + right.width,
        kind="product",
        parts=(left, right),
    )


def elementwise_op(base: BinOp, array_fn: Callable[[Any, Any], Any] | None = None) -> BinOp:
    """Lift a scalar operator to equal-length sequence blocks, elementwise.

    ``elementwise_op(ADD)([1, 2], [10, 20]) == [11, 22]`` — the block
    shape the bandwidth-optimal collectives (``reduce_scatter``,
    ``allgatherv``, the decomposed allreduce) operate on.  The lift is
    *strict*: mismatched block lengths raise instead of silently
    truncating, because a dropped tail in a reduce_scatter segment is a
    wrong answer, not a shorter one.  The container type of the left
    operand is preserved (list in → list out, tuple in → tuple out);
    array blocks (anything with a ``dtype``) are combined whole via
    ``array_fn`` — needed when the scalar ``fn`` does not broadcast,
    e.g. ``elementwise_op(MAX, np.maximum)`` — defaulting to ``base.fn``.

    ``op_count`` and ``width`` stay *per element*, matching how the
    machine collectives charge segment exchanges.  The ``"ew"`` kind is
    the same structural tag the kernel registry already lowers (the base
    kernel applied to an array block is already elementwise), so lifted
    operators vectorize and JIT for free.
    """

    def fn(a, b):
        if hasattr(a, "dtype") or hasattr(b, "dtype"):
            return (array_fn or base.fn)(a, b)
        if len(a) != len(b):
            raise ValueError(
                f"ew[{base.name}]: block lengths differ ({len(a)} != {len(b)})")
        out = [base(x, y) for x, y in zip(a, b)]
        return tuple(out) if isinstance(a, tuple) else out

    return BinOp(
        name=f"ew[{base.name}]",
        fn=fn,
        associative=base.associative,
        commutative=base.commutative,
        op_count=base.op_count,
        width=base.width,
        kind="ew",
        parts=(base,),
    )


def _np_maximum(a, b):
    import numpy as np

    return np.maximum(a, b)


def _np_minimum(a, b):
    import numpy as np

    return np.minimum(a, b)


#: Ready-made elementwise lifts for the collective-vocabulary tests,
#: rule cases and benchmarks (ADD broadcasts over arrays by itself;
#: max/min need their ufunc counterparts).
EW_ADD = elementwise_op(ADD)
EW_MAX = elementwise_op(MAX, _np_maximum)
EW_MIN = elementwise_op(MIN, _np_minimum)
