"""Kernel registry: one row per numeric primitive, four readings of it.

Every numeric tier reads the same two tables:

* ``primitives`` — a :class:`~repro.core.operators.BinOp` *object*
  (``ADD``, ``MUL``, ``MAX``, ...) to its :class:`Primitive` row: the
  overflow-**checked** whole-block kernel, the **raw** ufunc the JIT's
  tapes run once a program is proven safe, the **interval** extension
  that proof is made with, and the **exact** source template a served
  hit's generated function computes Python ints and bools with.  A namesake of a catalogue
  operator has no row; a kernelized or token form (:meth:`BinOp.with_fn`)
  reads the row of the operator it was made from.  Composed operators
  (``op_sr2`` pairs, products, ``ew`` lifts, segmented operators)
  resolve *structurally* through ``kind``/``parts`` down to these rows —
  :func:`binop_kernel` for the checked reading,
  ``repro.jit.compiler.emit_combine`` for the tape the other two share.

* ``maps`` — a map *function* to its :class:`MapRow`: the checked
  kernel and the map's *tape effect*.  A ``MapStage`` keeps the
  ``(label, fn)`` of every map local-stage fusion joined into it
  (``parts``), and the rows compose the same way (:func:`map_rows` reads
  one row per part).  A label is printed, never looked up: a map
  labelled ``dbl`` that squares has no row.

Kernelized operators/maps keep exact object-mode semantics: they
*dispatch* on the block representation (array blocks take the kernel,
anything else takes the original Python function), and the integer kernels
are overflow-checked so a combine that would leave the exact int64 range
raises :class:`~repro.kernels.blocks.KernelOverflow` instead of silently
wrapping (callers then replay in object mode, where Python bigints are
exact).

``register_binop_kernel`` / ``register_map_kernel`` replace a **whole**
row: a bare kernel is a row with a checked reading only, so the operator
has no raw form, no proof and no exact template — and the JIT declines
it, naming the row — until a full row states them (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.operators import ADD, AND, FADD, FMUL, MAX, MIN, MUL, OR, XOR, BinOp
from repro.kernels.blocks import (
    KernelUnsupported,
    checked_add,
    checked_mul,
    checked_neg,
    is_vector_block,
)
from repro.semantics.functional import (
    UNDEF,
    dbl,
    inc,
    neg,
    pair,
    quadruple,
    safe_pi1,
    triple,
)

__all__ = [
    "Primitive",
    "MapRow",
    "primitive",
    "map_rows",
    "register_binop_kernel",
    "register_map_kernel",
    "binop_kernel",
    "map_kernel",
    "kernelize_binop",
    "kernelize_map",
    "has_binop_kernel",
    "registry_version",
]

Kernel = Callable[[Any, Any], Any]
MapKernel = Callable[[Any], Any]
#: inclusive (lo, hi) over exact Python ints
Interval = tuple[int, int]


@dataclass(frozen=True)
class Primitive:
    """One numeric primitive.

    ``raw`` must agree bit for bit with ``checked`` on int64 and float64
    blocks wherever ``interval`` — the exact extension of the primitive
    to ``(lo, hi)`` bounds over Python ints — stays inside
    :data:`~repro.kernels.blocks.MAX_SAFE_INT`.  A row without them runs
    checked on every tier.  ``exact`` is the operator's ``fn`` stated as
    a Python expression over ``{a}`` and ``{b}`` (``{a}`` alone for a
    unary row): on every pair of Python ints and bools it must give what
    ``fn`` gives, in value and type (``max(True, 1) is True``), and it
    reads each operand by name only, so an operand may be read twice.
    ``name`` is printed in the JIT's decline reasons (``no-raw:<name>``,
    ``no-exact:<name>``) and decides nothing.
    """

    checked: Callable[..., Any]
    raw: Optional[Callable[..., Any]] = None
    interval: Optional[Callable[..., Interval]] = None
    name: str = ""
    exact: Optional[str] = None


@dataclass(frozen=True)
class MapRow:
    """One map function ``fn``: its checked kernel and what it does to a
    tape.

    ``effect`` is ``("replicate", n)`` (one slot becomes ``n`` refs to
    it), ``("project",)`` (a tuple block keeps its first slot) or
    ``("apply", row, const)`` (the :class:`Primitive` ``row`` on the slot
    and ``const``; unary when ``const`` is None).  None: the map has a
    checked kernel only.
    """

    checked: MapKernel
    effect: Optional[tuple] = None
    fn: Optional[Callable[[Any], Any]] = None


#: bumped on every (re-)registration; compiled-kernel caches (the JIT
#: tier's, notably) key on it so a stale compile is never served after
#: the tables change
_REGISTRY_VERSION = 0


def registry_version() -> int:
    """Monotonic counter identifying the current kernel tables."""
    return _REGISTRY_VERSION


def _and_kernel(a: Any, b: Any) -> Any:
    # Python `a and b` returns b when a is truthy, else a (not a bool!)
    return np.where(np.asarray(a) != 0, b, a)


def _or_kernel(a: Any, b: Any) -> Any:
    return np.where(np.asarray(a) != 0, a, b)


def _xor_kernel(a: Any, b: Any) -> Any:
    # object mode computes bool(a) ^ bool(b) — a genuine bool result
    return np.not_equal(np.asarray(a) != 0, np.asarray(b) != 0)


def _imul(a: Interval, b: Interval) -> Interval:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


_ADD = Primitive(checked_add, np.add, lambda a, b: (a[0] + b[0], a[1] + b[1]),
                 "add", "({a} + {b})")
_MUL = Primitive(checked_mul, np.multiply, _imul, "mul", "({a} * {b})")
#: the one unary row: no operator has it, the ``neg`` map applies it
_NEG = Primitive(checked_neg, np.negative, lambda a: (-a[1], -a[0]), "neg",
                 "(-{a})")

#: operator -> row.  ``FADD``/``FMUL`` only ever see int intervals when a
#: float op is (harmlessly) applied to ints.
_PRIMITIVES: dict[BinOp, Primitive] = {
    ADD: _ADD,
    FADD: _ADD,
    MUL: _MUL,
    FMUL: _MUL,
    # ``max`` / ``min`` keep their first argument on a tie, and ``and`` /
    # ``or`` return an operand: the templates say so without the names
    MAX: Primitive(np.maximum, np.maximum,
                   lambda a, b: (max(a[0], b[0]), max(a[1], b[1])), "max",
                   "({b} if {b} > {a} else {a})"),
    MIN: Primitive(np.minimum, np.minimum,
                   lambda a, b: (min(a[0], b[0]), min(a[1], b[1])), "min",
                   "({b} if {b} < {a} else {a})"),
    AND: Primitive(_and_kernel, name="and", exact="({b} if {a} else {a})"),
    OR: Primitive(_or_kernel, name="or", exact="({a} if {a} else {b})"),
    XOR: Primitive(_xor_kernel, name="xor", exact="(bool({a}) ^ bool({b}))"),
}


def _apply_row(fn: MapKernel, row: Primitive, const: int) -> MapRow:
    """``x -> row(x, const)``, every reading taken from the primitive's row."""
    checked, c = row.checked, np.int64(const)
    return MapRow(lambda x: checked(x, c), ("apply", row, const), fn)


def _replicate_row(fn: MapKernel, n: int) -> MapRow:
    return MapRow(lambda x: (x,) * n, ("replicate", n), fn)


#: map function -> row: the catalogue's functions, nothing else
_MAPS: dict[MapKernel, MapRow] = {row.fn: row for row in (
    _apply_row(inc, _ADD, 1),
    _apply_row(dbl, _MUL, 2),
    MapRow(checked_neg, ("apply", _NEG, None), neg),
    _replicate_row(pair, 2),
    _replicate_row(triple, 3),
    _replicate_row(quadruple, 4),
    MapRow(safe_pi1, ("project",), safe_pi1),
)}


def primitive(op: BinOp) -> Optional[Primitive]:
    """The row of ``op`` (of its :attr:`~BinOp.source`), or None."""
    return _PRIMITIVES.get(op.source or op)


def map_rows(parts: Sequence[tuple[str, MapKernel]]
             ) -> list[tuple[str, Optional[MapRow]]]:
    """``(label, row)`` for each ``(label, fn)`` part of a map (a
    ``MapStage``'s ``parts``): the row held for that very ``fn``, or None."""
    return [(label, _MAPS.get(fn)) for label, fn in parts]


def register_binop_kernel(op: BinOp, kernel: Kernel | Primitive) -> None:
    """Replace the row of ``op``: a full :class:`Primitive`, or a bare
    array kernel (checked reading only); an unnamed row prints as ``op``."""
    global _REGISTRY_VERSION
    row = kernel if isinstance(kernel, Primitive) else Primitive(kernel)
    _PRIMITIVES[op] = row if row.name else replace(row, name=op.name)
    _REGISTRY_VERSION += 1


def register_map_kernel(fn: MapKernel, kernel: MapKernel | MapRow) -> None:
    """Replace the row of the map function ``fn``: a full
    :class:`MapRow`, or a bare array kernel (no tape effect).  A map
    reads it when its function is ``fn`` itself, whatever its label."""
    global _REGISTRY_VERSION
    row = kernel if isinstance(kernel, MapRow) else MapRow(kernel)
    _MAPS[fn] = replace(row, fn=fn)
    _REGISTRY_VERSION += 1


def _lift_undef(kernel: Kernel) -> Kernel:
    """Propagate UNDEF components through a kernel (mirrors derived_ops._lift).

    Composite states (butterfly quadruples, general-p digit tuples) carry
    UNDEF in individual components; object mode never applies the base
    operator to them and neither may the kernel.
    """

    def lifted(a: Any, b: Any) -> Any:
        if a is UNDEF or b is UNDEF:
            return UNDEF
        return kernel(a, b)

    return lifted


def binop_kernel(op: BinOp) -> Kernel | None:
    """Resolve the whole-block kernel for ``op``, or None.

    Its own row first (base operators and user registrations), then the
    structural ``kind``/``parts`` metadata for composed operators.
    """
    row = primitive(op)
    if row is not None:
        return row.checked

    if op.kind == "ew":
        # an elementwise lift acts per element of a list block; on an
        # array block the base kernel is already elementwise
        return binop_kernel(op.parts[0])

    if op.kind == "sr2":
        otimes, oplus = op.parts
        kt, kp = binop_kernel(otimes), binop_kernel(oplus)
        if kt is None or kp is None:
            return None
        kt, kp = _lift_undef(kt), _lift_undef(kp)

        def sr2(a: Any, b: Any) -> Any:
            s1, r1 = a
            s2, r2 = b
            return (kp(s1, kt(r1, s2)), kt(r1, r2))

        return sr2

    if op.kind == "product":
        left, right = op.parts
        kl, kr = binop_kernel(left), binop_kernel(right)
        if kl is None or kr is None:
            return None
        kl, kr = _lift_undef(kl), _lift_undef(kr)

        def product(a: Any, b: Any) -> Any:
            return (kl(a[0], b[0]), kr(a[1], b[1]))

        return product

    if op.kind == "seg":
        (inner,) = op.parts
        ki = binop_kernel(inner)
        if ki is None:
            return None
        ki = _lift_undef(ki)

        def seg(a: Any, b: Any) -> Any:
            f1, x1 = a
            f2, x2 = b
            f2 = np.asarray(f2) != 0
            # per element: restart at segment heads (flag of the right arg)
            return (np.asarray(f1) != 0) | f2, np.where(f2, x2, ki(x1, x2))

        return seg

    return None


def has_binop_kernel(op: BinOp) -> bool:
    """Does ``op`` lower to an array kernel?"""
    return binop_kernel(op) is not None


def kernelize_binop(op: BinOp) -> BinOp:
    """``op`` with its fn replaced by a representation-dispatching version.

    Array blocks (and tuples thereof) take the whole-block kernel; any
    other block — including object-mode scalars — takes the original
    Python function, so a kernelized operator is a drop-in replacement
    everywhere.  Raises :class:`KernelUnsupported` when no kernel exists
    (e.g. ``concat``: list blocks have no array representation, so a
    silent elementwise lowering would be *wrong*, not just slow).
    """
    kernel = binop_kernel(op)
    if kernel is None:
        raise KernelUnsupported(f"no kernel for operator {op.name!r}")
    fn = op.fn

    def dispatch(a: Any, b: Any) -> Any:
        if is_vector_block(a) and is_vector_block(b):
            return kernel(a, b)
        return fn(a, b)

    return op.with_fn(dispatch)


def map_kernel(parts: Sequence[tuple[str, MapKernel]]) -> MapKernel | None:
    """Resolve the kernel for a map's (possibly fused) ``parts``."""
    rows = [row for _label, row in map_rows(parts)]
    if None in rows:
        return None
    kernels = [row.checked for row in rows]
    if len(kernels) == 1:
        return kernels[0]

    def fused(x: Any) -> Any:
        for k in kernels:
            x = k(x)
        return x

    return fused


def kernelize_map(fn: Callable[[Any], Any],
                  parts: Sequence[tuple[str, MapKernel]]) -> Callable[[Any], Any]:
    """A map function dispatching array blocks to its parts' kernel."""
    kernel = map_kernel(parts)
    if kernel is None:
        label = ";".join(label for label, _fn in parts)
        raise KernelUnsupported(f"no kernel for map label {label!r}")

    def dispatch(x: Any) -> Any:
        if is_vector_block(x):
            return kernel(x)
        return fn(x)

    return dispatch
