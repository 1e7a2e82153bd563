"""Reference functional semantics of the paper's program framework.

These are direct transcriptions of the definitions in Section 2 and 3 of
the paper.  A distributed list ``[x1, ..., xn]`` models the machine state:
element ``i`` is the block residing in processor ``i``.  Every function here
is a *specification* — simple, obviously-correct sequential code that the
machine simulator, the rewrite rules and the property tests are checked
against.

Paper definitions implemented here (equation numbers from the paper):

* (4)  ``map_fn``      — local stage on every processor
* (13) ``map_indexed`` — ``map#``: local stage that also sees the rank
* ``map2`` — two-list variant used by the polynomial case study
* (5)  ``reduce_fn``   — MPI_Reduce: result in the first processor
* (6)  ``allreduce_fn``— MPI_Allreduce: result everywhere
* (7)  ``scan_fn``     — MPI_Scan: inclusive prefix
* (8)  ``bcast_fn``    — MPI_Bcast from the first processor
* (9-12) ``pair/triple/quadruple/pi1`` — auxiliary-variable helpers
* (14) ``repeat_fn``   — binary-digit traversal (logarithmic ``g^k``)
* ``comcast_fn``       — the comcast target pattern ``[b, g b, ..., g^{n-1} b]``
* ``iter_fn``          — the Local rules' ``iter`` (log2 |xs| doublings)
* ``times_fn``         — naive linear ``g^k`` (the paper's ``times``)

The "don't care" value produced where the paper writes ``_`` is
:data:`UNDEF`; tests only ever inspect the defined positions.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.operators import BinOp

__all__ = [
    "UNDEF",
    "Undefined",
    "map_fn",
    "map_indexed",
    "map2",
    "map2_indexed",
    "reduce_fn",
    "allreduce_fn",
    "scan_fn",
    "exclusive_scan_fn",
    "bcast_fn",
    "allgather_fn",
    "scatter_fn",
    "gather_fn",
    "pair",
    "triple",
    "quadruple",
    "pi1",
    "safe_pi1",
    "inc",
    "dbl",
    "neg",
    "times_fn",
    "repeat_fn",
    "comcast_fn",
    "iter_fn",
    "iter_general_fn",
    "defined_equal",
]


class Undefined:
    """The paper's ``_``: a block whose contents no rule may depend on."""

    _instance: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"


UNDEF = Undefined()


def _require_nonempty(xs: Sequence[Any], what: str) -> None:
    if len(xs) == 0:
        raise ValueError(f"{what} is undefined on an empty processor list")


# ---------------------------------------------------------------------------
# Local stages
# ---------------------------------------------------------------------------


def map_fn(f: Callable[[Any], Any], xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (4): apply ``f`` in every processor.

    Undefined blocks stay undefined: a local computation on garbage is
    garbage (this mirrors what an SPMD program does on the contents of a
    non-root buffer after ``MPI_Reduce``).
    """
    return [UNDEF if x is UNDEF else f(x) for x in xs]


def map_indexed(f: Callable[[int, Any], Any], xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (13), ``map#``: ``f`` also receives the 0-based rank."""
    return [UNDEF if x is UNDEF else f(i, x) for i, x in enumerate(xs)]


def map2(f: Callable[[Any, Any], Any], xs: Sequence[Any], ys: Sequence[Any]) -> list[Any]:
    """The paper's ``map2``: zip two equally-distributed lists through ``f``."""
    if len(xs) != len(ys):
        raise ValueError("map2 requires equally long processor lists")
    return [UNDEF if (x is UNDEF or y is UNDEF) else f(x, y) for x, y in zip(xs, ys)]


def map2_indexed(
    f: Callable[[int, Any, Any], Any], xs: Sequence[Any], ys: Sequence[Any]
) -> list[Any]:
    """The paper's ``map2#``: indexed two-list map (polynomial case study)."""
    if len(xs) != len(ys):
        raise ValueError("map2# requires equally long processor lists")
    return [
        UNDEF if (x is UNDEF or y is UNDEF) else f(i, x, y)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


# ---------------------------------------------------------------------------
# Collective stages
# ---------------------------------------------------------------------------


def reduce_fn(op: BinOp, xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (5), with MPI's non-root semantics.

    ``reduce (⊕) [x1..xn] = [x1 ⊕ ... ⊕ xn, _, ..., _]``.

    The paper's eq. (5) writes the old blocks ``x2..xn`` in the non-root
    positions, but under that reading its own Reduction rules would not be
    equalities off-root (the LHS leaves scan prefixes there, the RHS leaves
    inputs).  The MPI standard resolves this: after ``MPI_Reduce`` the
    receive buffer is *significant only at the root*.  We adopt exactly
    that — non-root blocks become undefined — which makes every rule of the
    paper a strict semantic equality modulo ``_`` (see ``defined_equal``).
    """
    _require_nonempty(xs, "reduce")
    return [op.fold(list(xs))] + [UNDEF] * (len(xs) - 1)


def allreduce_fn(op: BinOp, xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (6): combine everything into *all* processors."""
    _require_nonempty(xs, "allreduce")
    y = op.fold(list(xs))
    return [y] * len(xs)


def scan_fn(op: BinOp, xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (7): inclusive prefix, MPI_Scan.

    ``scan (⊕) [x1..xn] = [x1, x1 ⊕ x2, ..., x1 ⊕ ... ⊕ xn]``.
    """
    _require_nonempty(xs, "scan")
    out = [xs[0]]
    for x in xs[1:]:
        out.append(op(out[-1], x))
    return out


def exclusive_scan_fn(op: BinOp, xs: Sequence[Any]) -> list[Any]:
    """MPI_Exscan analogue: processor 0 gets the identity (extension).

    Not used by any paper rule, but completes the collective set and is
    exercised by the MPI-style front end.
    """
    _require_nonempty(xs, "exscan")
    if not op.has_identity:
        raise ValueError(f"exclusive scan needs an identity for {op.name}")
    out = [op.identity]
    acc = xs[0]
    for x in xs[1:]:
        out.append(acc)
        acc = op(acc, x)
    return out


def bcast_fn(xs: Sequence[Any]) -> list[Any]:
    """Paper eq. (8): replicate the first processor's block everywhere."""
    _require_nonempty(xs, "bcast")
    return [xs[0]] * len(xs)


def scatter_fn(xs: Sequence[Any]) -> list[Any]:
    """MPI_Scatter: the root's list is dealt out, one block per processor.

    ``[seq, _, ..., _] -> [seq[0], seq[1], ..., seq[p-1]]`` with
    ``len(seq) == p``.
    """
    _require_nonempty(xs, "scatter")
    seq = xs[0]
    if len(seq) != len(xs):
        raise ValueError("scatter needs exactly one block per processor")
    return list(seq)


def gather_fn(xs: Sequence[Any]) -> list[Any]:
    """MPI_Gather: the rank-ordered list lands on the root; rest undefined."""
    _require_nonempty(xs, "gather")
    return [tuple(xs)] + [UNDEF] * (len(xs) - 1)


def allgather_fn(xs: Sequence[Any]) -> list[Any]:
    """MPI_Allgather: every processor receives the full rank-ordered list.

    Not used by any paper rule, but part of the collective repertoire the
    introduction surveys; enables programs like the distributed
    matrix-vector product.
    """
    _require_nonempty(xs, "allgather")
    gathered = tuple(xs)
    return [gathered] * len(xs)


# ---------------------------------------------------------------------------
# Auxiliary variables (paper Subsection 2.3)
# ---------------------------------------------------------------------------


def pair(a: Any) -> tuple[Any, Any]:
    """Paper eq. (9)."""
    return (a, a)


def triple(a: Any) -> tuple[Any, Any, Any]:
    """Paper eq. (10)."""
    return (a, a, a)


def quadruple(a: Any) -> tuple[Any, Any, Any, Any]:
    """Paper eq. (11)."""
    return (a, a, a, a)


def pi1(t: Sequence[Any]) -> Any:
    """Paper eq. (12): first component of an arbitrary tuple."""
    return t[0]


def safe_pi1(t: Any) -> Any:
    """π₁ lifted over the undefined block (Local rules leave ``_`` behind)."""
    if t is UNDEF:
        return UNDEF
    return t[0]


# The catalogue maps: with ``pair`` / ``triple`` / ``quadruple`` /
# ``safe_pi1`` the functions a kernel row is held for
# (``repro.kernels.registry``) — a map computes with a row's kernel only
# when its function is this very object.


def inc(a: Any) -> Any:
    """The catalogue map ``x + 1``."""
    return a + 1


def dbl(a: Any) -> Any:
    """The catalogue map ``2 x``."""
    return 2 * a


def neg(a: Any) -> Any:
    """The catalogue map ``-x``."""
    return -a


# ---------------------------------------------------------------------------
# Comcast machinery (paper Subsection 3.4)
# ---------------------------------------------------------------------------


def times_fn(g: Callable[[Any], Any], k: int, b: Any) -> Any:
    """The naive linear-time ``g^k b`` (the paper's ``times``)."""
    for _ in range(k):
        b = g(b)
    return b


def repeat_fn(
    e: Callable[[Any], Any], o: Callable[[Any], Any], k: int, b: Any
) -> Any:
    """Paper eq. (14): logarithmic digit traversal.

    Walks the binary digits of ``k`` from least to most significant,
    applying ``e`` for a 0 digit and ``o`` for a 1 digit.  ``repeat(e,o) 0 b
    = b``.
    """
    if k < 0:
        raise ValueError("repeat is defined for k >= 0")
    while k != 0:
        b = e(b) if k % 2 == 0 else o(b)
        k //= 2
    return b


def comcast_fn(g: Callable[[Any], Any], xs: Sequence[Any]) -> list[Any]:
    """The comcast target pattern: ``[b, _, ...] -> [b, g b, ..., g^{n-1} b]``."""
    _require_nonempty(xs, "comcast")
    out: list[Any] = []
    b = xs[0]
    for _ in range(len(xs)):
        out.append(b)
        b = g(b)
    return out


# ---------------------------------------------------------------------------
# iter (paper Subsection 3.5)
# ---------------------------------------------------------------------------


def iter_fn(f: Callable[[Any], Any], xs: Sequence[Any]) -> list[Any]:
    """Paper's ``iter``: apply ``f`` log2(n) times to the first block.

    ``iter f [x, _, ..., _] = [f^{log |xs|} x, _, ..., _]``.  Exact only when
    ``len(xs)`` is a power of two, which is the (implicit) applicability
    condition of the Local rules; we enforce it.
    """
    n = len(xs)
    _require_nonempty(xs, "iter")
    if n & (n - 1):
        raise ValueError("iter requires a power-of-two processor count")
    x = xs[0]
    k = n.bit_length() - 1
    for _ in range(k):
        x = f(x)
    return [x] + [UNDEF] * (n - 1)


def iter_general_fn(
    e: Callable[[Any], Any], o: Callable[[Any], Any], xs: Sequence[Any]
) -> list[Any]:
    """Extension: arbitrary-n ``iter`` via binary decomposition.

    Where the paper's ``iter`` computes ``x^(2^k)`` by pure doubling, this
    generalization computes the n-fold combination for any ``n`` using the
    same even/odd digit functions as ``repeat`` (applied to ``n - 1``), so
    the Local rules extend beyond power-of-two machines.
    """
    n = len(xs)
    _require_nonempty(xs, "iter_general")
    x = repeat_fn(e, o, n - 1, xs[0])
    return [x] + [UNDEF] * (n - 1)


# ---------------------------------------------------------------------------
# Comparison helper
# ---------------------------------------------------------------------------


def _blocks_equal(a: Any, b: Any) -> bool:
    """One-block equality: arrays compare by value, everything else by ``==``.

    NumPy blocks (anything with a ``dtype``) make ``!=`` elementwise and
    its truth value ambiguous, so they go through ``np.array_equal`` —
    which also equates an array block with an equal-valued plain
    sequence, the convention the backends rely on (a codegen backend may
    return a list where the vectorized tier returns an array).  Tuples
    recurse so array-carrying pair states compare correctly.
    """
    if hasattr(a, "dtype") or hasattr(b, "dtype"):
        import numpy as np

        try:
            return bool(np.array_equal(np.asarray(a), np.asarray(b)))
        except (TypeError, ValueError):
            return False  # ragged / non-array-able counterpart
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _blocks_equal(x, y) for x, y in zip(a, b))
    return not a != b


def defined_equal(xs: Sequence[Any], ys: Sequence[Any]) -> bool:
    """Equality modulo ``UNDEF``: an undefined block matches anything.

    This is the equivalence the rules guarantee — rules like BR-Local leave
    every processor but the root undetermined.
    """
    if len(xs) != len(ys):
        return False
    for a, b in zip(xs, ys):
        if a is UNDEF or b is UNDEF:
            continue
        if not _blocks_equal(a, b):
            return False
    return True
