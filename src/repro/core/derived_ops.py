"""Derived operators introduced by the optimization rules.

Every rule of the paper replaces a composition of collectives by a single
collective over *tuples* of auxiliary variables, combined with a fused
operator.  This module defines those operators as first-class objects
carrying the metadata the cost model needs:

* ``op_count`` — elementary base-operator applications per element per
  combine (this is what Table 1 charges as computation time), and
* ``comm_width`` — machine words per element actually exchanged.

Operator inventory (paper Section 3):

=============  ======================================  ==================
constructor    used by rules                            acts on
=============  ======================================  ==================
``sr2_op``     SR2-Reduction, SS2-Scan                  pairs, associative
``SRTreeOp``   SR-Reduction (balanced tree, Fig 4)      pairs, ()-case
``SSButterflyOp``  SS-Scan (balanced butterfly, Fig 5)  quadruples
``bs_comcast_op``  BS-Comcast (Fig 6)                   pairs, e/o digits
``bss2_comcast_op``  BSS2-Comcast                       triples, e/o
``bss_comcast_op``   BSS-Comcast                        quadruples, e/o
``br_iter_op``     BR-Local, CR-Alllocal                scalars, doubling
``bsr2_iter_op``   BSR2-Local                           pairs, doubling
``bsr_iter_op``    BSR-Local                            pairs, doubling
=============  ======================================  ==================

Each comcast/iter operator also exposes the even/odd digit functions so the
generalized (non-power-of-two) Local extension can reuse them through
:func:`repro.semantics.functional.iter_general_fn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.operators import BinOp
from repro.semantics.functional import UNDEF, pair, quadruple, triple, pi1, repeat_fn

__all__ = [
    "sr2_op",
    "SRTreeOp",
    "SSButterflyOp",
    "ComcastOp",
    "bs_comcast_op",
    "bss2_comcast_op",
    "bss_comcast_op",
    "IterOp",
    "br_iter_op",
    "bsr2_iter_op",
    "bsr_iter_op",
    "DERIVED_KINDS",
    "defining_ops",
    "rebuild_derived_op",
]


def _lift(op: BinOp) -> Callable[[Any, Any], Any]:
    """Lift ``op`` to propagate the paper's undefined value ``_``."""

    def lifted(a: Any, b: Any) -> Any:
        if a is UNDEF or b is UNDEF:
            return UNDEF
        return op(a, b)

    return lifted


# ---------------------------------------------------------------------------
# op_sr2 — SR2-Reduction and SS2-Scan
# ---------------------------------------------------------------------------


def sr2_op(otimes: BinOp, oplus: BinOp) -> BinOp:
    """The fused operator of the SR2/SS2 rules (associative on pairs).

    ``op_sr2 ((s1,r1),(s2,r2)) = (s1 ⊕ (r1 ⊗ s2), r1 ⊗ r2)``.

    Given that ⊗ distributes over ⊕ (the rules' premise), op_sr2 is
    associative, so it may feed ordinary ``reduce``/``allreduce``/``scan``.
    The pair invariant over a contiguous segment is
    ``s = ⊕_k (x_i ⊗ ... ⊗ x_k)`` (the ⊕-total of the ⊗-prefixes) and
    ``r = x_i ⊗ ... ⊗ x_j`` (the full ⊗-product).
    """

    def fn(a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        s1, r1 = a
        s2, r2 = b
        return (oplus(s1, otimes(r1, s2)), otimes(r1, r2))

    return BinOp(
        name=f"op_sr2[{otimes.name},{oplus.name}]",
        fn=fn,
        associative=True,
        commutative=False,
        op_count=2 * otimes.op_count + oplus.op_count,
        width=2 * max(otimes.width, oplus.width),
        kind="sr2",
        parts=(otimes, oplus),
    )


# ---------------------------------------------------------------------------
# op_sr — SR-Reduction over the balanced tree (Figure 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SRTreeOp:
    """Balanced-tree operator of SR-Reduction (implements ``TreeOp``).

    States are pairs ``(t, u)``: for a tree segment processed at level ℓ,
    ``t`` is the scan-then-reduce value of the segment and ``u`` is
    ``2^ℓ ⊙ (segment total)``.  The ``uu`` sharing keeps the combine at 4
    base operations instead of 5 (the paper calls this out explicitly).
    """

    op: BinOp  # ⊕, must be commutative
    name: str = field(init=False, default="")
    op_count: int = field(init=False, default=0)
    comm_width: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"op_sr[{self.op.name}]")
        object.__setattr__(self, "op_count", 4 * self.op.op_count)
        object.__setattr__(self, "comm_width", 2 * self.op.width)

    def prepare(self, x: Any) -> Any:
        # The rule's leading `map pair` has already built the (t, u) state.
        return x

    def combine(self, left: tuple[Any, Any], right: tuple[Any, Any]) -> tuple[Any, Any]:
        t1, u1 = left
        t2, u2 = right
        o = self.op
        uu = o(u1, u2)
        return (o(o(t1, t2), u1), o(uu, uu))

    def combine_empty(self, right: tuple[Any, Any]) -> tuple[Any, Any]:
        t2, u2 = right
        return (t2, self.op(u2, u2))

    def project(self, state: tuple[Any, Any]) -> Any:
        return state  # the rule's trailing `map π1` does the projection


# ---------------------------------------------------------------------------
# op_ss — SS-Scan over the balanced butterfly (Figure 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSButterflyOp:
    """Balanced-butterfly operator of SS-Scan (implements ``ButterflyOp``).

    States are quadruples ``(s, t, u, v)``; ``s`` is each processor's
    current double-scan value and never crosses the wire, so only three
    words per element are exchanged (``comm_width = 3``).  The shared
    ``ttu/uu/uuuu/vv`` sub-terms bring the combine from twelve to eight
    base operations — the paper's "one third" saving.
    """

    op: BinOp  # ⊕, must be commutative
    name: str = field(init=False, default="")
    op_count: int = field(init=False, default=0)
    comm_width: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"op_ss[{self.op.name}]")
        object.__setattr__(self, "op_count", 8 * self.op.op_count)
        object.__setattr__(self, "comm_width", 3 * self.op.width)

    def prepare(self, x: Any) -> Any:
        # The rule's leading `map quadruple` has already built the state.
        return x

    def combine(self, lo: tuple, hi: tuple) -> tuple[tuple, tuple]:
        s1, t1, u1, v1 = lo
        s2, t2, u2, v2 = hi
        o = _lift(self.op)
        ttu = o(o(t1, t2), u1)
        uu = o(u1, u2)
        uuuu = o(uu, uu)
        vv = o(v1, v2)
        new_lo = (s1, ttu, uuuu, vv)
        new_hi = (o(o(s2, t1), v1), ttu, uuuu, o(uu, vv))
        return new_lo, new_hi

    def missing(self, state: tuple) -> tuple:
        s1 = state[0]
        return (s1, UNDEF, UNDEF, UNDEF)

    def project(self, state: tuple) -> Any:
        return state  # projection is the rule's trailing `map π1`


# ---------------------------------------------------------------------------
# Comcast operators (Figures 6; rules BS-, BSS2-, BSS-Comcast)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComcastOp:
    """An ``op_comp``: prepare, even/odd digit functions, and projection.

    Processor ``k`` computes ``prepare; repeat(e, o) k; project`` on the
    broadcast block (paper eq. 14 / Figure 6).  ``op_count`` is the worst
    per-element cost of one digit step; ``state_width`` is the tuple arity
    (what the cost-optimal doubling implementation must transmit).
    """

    name: str
    prepare: Callable[[Any], Any]
    even: Callable[[Any], Any]
    odd: Callable[[Any], Any]
    project: Callable[[Any], Any]
    op_count: int
    state_width: int
    #: structural metadata ("bs"/"bss2"/"bss" + component BinOps) so the
    #: kernel registry can rebuild the digit functions over array blocks
    kind: str = field(default="", compare=False)
    parts: tuple = field(default=(), compare=False)

    def compute(self, k: int, b: Any) -> Any:
        """The full ``op_comp k`` local computation for processor ``k``."""
        return self.project(repeat_fn(self.even, self.odd, k, self.prepare(b)))


def bs_comcast_op(op: BinOp) -> ComcastOp:
    """BS-Comcast: ``bcast; scan(⊕)`` — processor k needs ``b^{⊕(k+1)}``.

    Pair invariant after processing the low digits ``k_low`` at position
    ``2^step``: ``t = b^{⊕(k_low+1)}``, ``u = b^{⊕2^step}``.
    """

    def even(state: tuple[Any, Any]) -> tuple[Any, Any]:
        t, u = state
        return (t, op(u, u))

    def odd(state: tuple[Any, Any]) -> tuple[Any, Any]:
        t, u = state
        return (op(t, u), op(u, u))

    return ComcastOp(
        name=f"op_comp_bs[{op.name}]",
        prepare=pair,
        even=even,
        odd=odd,
        project=pi1,
        op_count=2 * op.op_count,
        state_width=2 * op.width,
        kind="bs",
        parts=(op,),
    )


def bss2_comcast_op(otimes: BinOp, oplus: BinOp) -> ComcastOp:
    """BSS2-Comcast: ``bcast; scan(⊗); scan(⊕)`` with ⊗ distributing over ⊕.

    Processor k needs ``⊕_{j=1..k+1} b^{⊗j}``.  Triple invariant:
    ``s = ⊕_{j≤k_low+1} b^{⊗j}``, ``t = ⊕_{j≤2^step} b^{⊗j}``,
    ``u = b^{⊗2^step}``.
    """

    def even(state: tuple) -> tuple:
        s, t, u = state
        return (s, oplus(t, otimes(t, u)), otimes(u, u))

    def odd(state: tuple) -> tuple:
        s, t, u = state
        return (oplus(t, otimes(s, u)), oplus(t, otimes(t, u)), otimes(u, u))

    return ComcastOp(
        name=f"op_comp_bss2[{otimes.name},{oplus.name}]",
        prepare=triple,
        even=even,
        odd=odd,
        project=pi1,
        op_count=3 * otimes.op_count + 2 * oplus.op_count,
        state_width=3 * max(otimes.width, oplus.width),
        kind="bss2",
        parts=(otimes, oplus),
    )


def bss_comcast_op(op: BinOp) -> ComcastOp:
    """BSS-Comcast: ``bcast; scan(⊕); scan(⊕)`` with ⊕ commutative.

    Processor k needs the (k+1)-st "triangular" combination of b.
    Quadruple invariant at position ``2^step`` with processed digits
    ``k_low``: ``s = F(k_low)``, ``t = F(2^step - 1)``,
    ``u = b^{⊕4^step}``, ``v = b^{⊕(2^step·(k_low+1))}`` where
    ``F(k) = ⊕_{j=1..k+1} b^{⊕j}``.
    """

    def even(state: tuple) -> tuple:
        s, t, u, v = state
        uu = op(u, u)
        return (s, op(op(t, t), u), op(uu, uu), op(v, v))

    def odd(state: tuple) -> tuple:
        s, t, u, v = state
        uu = op(u, u)
        return (op(op(s, t), v), op(op(t, t), u), op(uu, uu), op(uu, op(v, v)))

    return ComcastOp(
        name=f"op_comp_bss[{op.name}]",
        prepare=quadruple,
        even=even,
        odd=odd,
        project=pi1,
        op_count=8 * op.op_count,
        state_width=4 * op.width,
        kind="bss",
        parts=(op,),
    )


# ---------------------------------------------------------------------------
# Iter operators (rules BR-, BSR2-, BSR-Local and CR-Alllocal)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterOp:
    """A doubling step for the Local rules' ``iter`` schema.

    ``step`` is iterated ``log2 p`` times on the root block (power-of-two
    machines); ``general`` is the matching Comcast operator, whose digit
    functions evaluated at ``k = p - 1`` extend the rule to arbitrary ``p``
    (our non-power-of-two extension of the paper's Local rules).
    """

    name: str
    prepare: Callable[[Any], Any]
    step: Callable[[Any], Any]
    project: Callable[[Any], Any]
    general: "ComcastOp"
    op_count: int
    #: structural metadata ("br"/"bsr2"/"bsr" + component BinOps) for the
    #: kernel registry (see :class:`ComcastOp`)
    kind: str = field(default="", compare=False)
    parts: tuple = field(default=(), compare=False)

    def compute(self, p: int, b: Any) -> Any:
        """Run the doubling iteration for a power-of-two machine size."""
        if p <= 0 or p & (p - 1):
            raise ValueError("iter requires a power-of-two processor count")
        state = self.prepare(b)
        for _ in range(p.bit_length() - 1):
            state = self.step(state)
        return self.project(state)

    def compute_general(self, p: int, b: Any) -> Any:
        """Extension: arbitrary ``p`` via the binary digits of ``p - 1``."""
        if p <= 0:
            raise ValueError("need at least one processor")
        return self.general.compute(p - 1, b)


def _identity(x: Any) -> Any:
    return x


def br_iter_op(op: BinOp) -> IterOp:
    """BR-Local / CR-Alllocal: ``bcast; [all]reduce(⊕)`` — root needs b^{⊕p}.

    ``op_br s = s ⊕ s`` doubled log2 p times.  The general-``p`` variant is
    BS-Comcast's digit pair evaluated at ``k = p - 1`` (then ``t ⊕ u``
    equals ``b^{⊕p}``; we fold that final ⊕ into the projection).
    """
    comcast = bs_comcast_op(op)

    return IterOp(
        name=f"op_br[{op.name}]",
        prepare=_identity,
        step=lambda s: op(s, s),
        project=_identity,
        general=comcast,
        op_count=op.op_count,
        kind="br",
        parts=(op,),
    )


def bsr2_iter_op(otimes: BinOp, oplus: BinOp) -> IterOp:
    """BSR2-Local: ``bcast; scan(⊗); reduce(⊕)`` — root needs ⊕_{j=1..p} b^{⊗j}.

    ``op_bsr2 (s, t) = (s ⊕ (s ⊗ t), t ⊗ t)`` with invariant
    ``s = ⊕_{j≤2^i} b^{⊗j}``, ``t = b^{⊗2^i}``.
    """
    comcast = bss2_comcast_op(otimes, oplus)

    def step(state: tuple) -> tuple:
        s, t = state
        return (oplus(s, otimes(s, t)), otimes(t, t))

    return IterOp(
        name=f"op_bsr2[{otimes.name},{oplus.name}]",
        prepare=pair,
        step=step,
        project=pi1,
        general=comcast,
        op_count=2 * otimes.op_count + oplus.op_count,
        kind="bsr2",
        parts=(otimes, oplus),
    )


def bsr_iter_op(op: BinOp) -> IterOp:
    """BSR-Local: ``bcast; scan(⊕); reduce(⊕)`` (⊕ commutative).

    ``op_bsr (t, u) = (t ⊕ t ⊕ u, uu ⊕ uu)`` with ``uu = u ⊕ u``; invariant
    ``t = F(2^i - 1)``, ``u = b^{⊕4^i}`` (F as in BSS-Comcast).
    """
    comcast = bss_comcast_op(op)

    def step(state: tuple) -> tuple:
        t, u = state
        uu = op(u, u)
        return (op(op(t, t), u), op(uu, uu))

    return IterOp(
        name=f"op_bsr[{op.name}]",
        prepare=pair,
        step=step,
        project=pi1,
        general=comcast,
        op_count=4 * op.op_count,
        kind="bsr",
        parts=(op,),
    )


# ---------------------------------------------------------------------------
# The comcast / iter operator kinds, in one table
# ---------------------------------------------------------------------------

#: ``kind`` of a comcast / iter operator -> (its builder, which of its
#: ``parts`` each fold of the defining pipeline combines with — see the
#: builders' docstrings): a comcast is ``bcast`` followed by one scan per
#: entry, an iter the same with the last scan a reduce
DERIVED_KINDS: dict[str, tuple[Callable, tuple[int, ...]]] = {
    "bs": (bs_comcast_op, (0,)),
    "bss2": (bss2_comcast_op, (0, 1)),
    "bss": (bss_comcast_op, (0, 0)),
    "br": (br_iter_op, (0,)),
    "bsr2": (bsr2_iter_op, (0, 1)),
    "bsr": (bsr_iter_op, (0, 0)),
}


def defining_ops(op: "ComcastOp | IterOp") -> tuple[BinOp, ...] | None:
    """The operators of the folds ``op``'s stage is defined by, in
    pipeline order; None for a hand-made operator without a ``kind``."""
    entry = DERIVED_KINDS.get(op.kind)
    return None if entry is None else tuple(op.parts[i] for i in entry[1])


def rebuild_derived_op(op: "ComcastOp | IterOp",
                       binop_fn: Callable[[BinOp], BinOp]):
    """``op`` rebuilt by its builder over ``binop_fn`` of each component
    operator; None for a hand-made operator without a ``kind``."""
    entry = DERIVED_KINDS.get(op.kind)
    return None if entry is None else entry[0](*map(binop_fn, op.parts))
