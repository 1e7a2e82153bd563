"""Kernel registry: one row per numeric primitive, three readings of it.

Every numeric tier reads the same two tables:

* ``primitives`` — a :class:`~repro.core.operators.BinOp` *name*
  (``add``, ``mul``, ``max``, ...) to its :class:`Primitive` row: the
  overflow-**checked** whole-block kernel, the **raw** ufunc the JIT's
  tapes run once a program is proven safe, and the **interval**
  extension that proof is made with.  Composed operators (``op_sr2``
  pairs, componentwise products, ``ew`` lifts, segmented operators)
  resolve *structurally* through ``kind``/``parts`` down to these names
  — :func:`binop_kernel` for the checked reading,
  ``repro.jit.compiler.emit_combine`` for the tape the other two share.

* ``maps`` — a ``MapStage`` *label* to its :class:`MapRow`: the checked
  kernel and the label's *tape effect*.  Labels compose under local-stage
  fusion (``"pair;inc"``), and so do the rows (:func:`map_rows` is the
  one place a fused label is split).

Kernelized operators/maps keep exact object-mode semantics: they
*dispatch* on the block representation (array blocks take the kernel,
anything else takes the original Python function), and the integer kernels
are overflow-checked so a combine that would leave the exact int64 range
raises :class:`~repro.kernels.blocks.KernelOverflow` instead of silently
wrapping (callers then replay in object mode, where Python bigints are
exact).

``register_binop_kernel`` / ``register_map_kernel`` replace a **whole**
row: a bare kernel is a row with a checked reading only, so the name has
no raw form and no proof — and the JIT declines it by name — until a
full row states them (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.core.operators import BinOp
from repro.kernels.blocks import (
    KernelUnsupported,
    checked_add,
    checked_mul,
    checked_neg,
    is_vector_block,
)
from repro.semantics.functional import UNDEF

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
    """One named numeric primitive.

    ``raw`` must agree bit for bit with ``checked`` on int64 and float64
    blocks wherever ``interval`` — the exact extension of the primitive
    to ``(lo, hi)`` bounds over Python ints — stays inside
    :data:`~repro.kernels.blocks.MAX_SAFE_INT`.  A row without them runs
    checked on every tier.
    """

    checked: Callable[..., Any]
    raw: Optional[Callable[..., Any]] = None
    interval: Optional[Callable[..., Interval]] = None


@dataclass(frozen=True)
class MapRow:
    """One map label: its checked kernel and what it does to a tape.

    ``effect`` is ``("replicate", n)`` (one slot becomes ``n`` refs to
    it), ``("project",)`` (a tuple block keeps its first slot) or
    ``("apply", name, const)`` (the :class:`Primitive` named ``name`` on
    the slot and ``const``; unary when ``const`` is None).  None: the
    label has a checked kernel only.
    """

    checked: MapKernel
    effect: Optional[tuple] = None


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


_ADD = Primitive(checked_add, np.add, lambda a, b: (a[0] + b[0], a[1] + b[1]))
_MUL = Primitive(checked_mul, np.multiply, _imul)

#: name -> row.  ``fadd``/``fmul`` only ever see int intervals when a
#: float op is (harmlessly) applied to ints; ``neg`` is the one unary row.
_PRIMITIVES: dict[str, Primitive] = {
    "add": _ADD,
    "fadd": _ADD,
    "mul": _MUL,
    "fmul": _MUL,
    "max": Primitive(np.maximum, np.maximum,
                     lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))),
    "min": Primitive(np.minimum, np.minimum,
                     lambda a, b: (min(a[0], b[0]), min(a[1], b[1]))),
    "neg": Primitive(checked_neg, np.negative, lambda a: (-a[1], -a[0])),
    "and": Primitive(_and_kernel),
    "or": Primitive(_or_kernel),
    "xor": Primitive(_xor_kernel),
}


def _apply_row(name: str, const: int) -> MapRow:
    """``x -> name(x, const)``, every reading taken from the primitive's row."""
    checked, c = _PRIMITIVES[name].checked, np.int64(const)
    return MapRow(lambda x: checked(x, c), ("apply", name, const))


def _replicate_row(n: int) -> MapRow:
    return MapRow(lambda x: (x,) * n, ("replicate", n))


def _pi1_kernel(t: Any) -> Any:
    if t is UNDEF:
        return UNDEF
    return t[0]


#: MapStage label -> row
_MAPS: dict[str, MapRow] = {
    "inc": _apply_row("add", 1),
    "dbl": _apply_row("mul", 2),
    "neg": MapRow(checked_neg, ("apply", "neg", None)),
    "pair": _replicate_row(2),
    "triple": _replicate_row(3),
    "quadruple": _replicate_row(4),
    "pi_1": MapRow(_pi1_kernel, ("project",)),
}


def primitive(name: str) -> Optional[Primitive]:
    """The row registered under the operator name ``name``, or None."""
    return _PRIMITIVES.get(name)


def map_rows(label: str) -> list[tuple[str, Optional[MapRow]]]:
    """``(part, row)`` for each part of a (possibly ``;``-fused) label."""
    return [(part, _MAPS.get(part)) for part in label.split(";")]


def register_binop_kernel(name: str, kernel: Kernel | Primitive) -> None:
    """Replace the row of the BinOp named ``name``: a full
    :class:`Primitive`, or a bare array kernel (checked reading only)."""
    global _REGISTRY_VERSION
    _PRIMITIVES[name] = (kernel if isinstance(kernel, Primitive)
                         else Primitive(kernel))
    _REGISTRY_VERSION += 1


def register_map_kernel(label: str, kernel: MapKernel | MapRow) -> None:
    """Replace the row of the map label ``label``: a full :class:`MapRow`,
    or a bare array kernel (no tape effect)."""
    if ";" in label:
        raise ValueError("register the unfused labels; fusion composes them")
    global _REGISTRY_VERSION
    _MAPS[label] = kernel if isinstance(kernel, MapRow) else MapRow(kernel)
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

    Name lookup first (base operators and user registrations), then the
    structural ``kind``/``parts`` metadata for composed operators.
    """
    row = _PRIMITIVES.get(op.name)
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

    return replace(op, fn=dispatch)


def map_kernel(label: str) -> MapKernel | None:
    """Resolve the kernel for a (possibly fused, ``;``-joined) map label."""
    rows = [row for _part, row in map_rows(label)]
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


def kernelize_map(fn: Callable[[Any], Any], label: str) -> Callable[[Any], Any]:
    """A map function dispatching array blocks to the label's kernel."""
    kernel = map_kernel(label)
    if kernel is None:
        raise KernelUnsupported(f"no kernel for map label {label!r}")

    def dispatch(x: Any) -> Any:
        if is_vector_block(x):
            return kernel(x)
        return fn(x)

    return dispatch
