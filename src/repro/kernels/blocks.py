"""NumPy block representation and object↔array conversion.

The vectorized execution layer represents one processor's *block* as

* a :class:`numpy.ndarray` (0-d for the scalar blocks the conformance
  generator draws, 1-d for the multi-element blocks the benchmarks use),
* a Python tuple of such arrays — the structure-of-arrays encoding of the
  pair/triple/quadruple auxiliary states the rewrite rules introduce
  (``op_sr2`` pairs, ``op_ss`` quadruples, ...); tuple components may be
  :data:`~repro.semantics.functional.UNDEF`, mirroring the object-mode
  butterfly's partially-undefined states, or
* the block-level :data:`UNDEF` singleton itself.

Exactness contract
------------------

Object mode computes with Python bigints; int64 arrays wrap silently.  The
checked helpers here (:func:`checked_add`, :func:`checked_mul`) detect any
combine whose result could leave the exactly-representable int64 range and
raise :class:`KernelOverflow` — the signal for the vectorized evaluator to
replay the program on the exact object-mode path.  Inputs whose magnitude
already exceeds ``2**62`` are refused at conversion time
(:class:`KernelUnsupported`), which keeps every in-range kernel result
bit-equal to object mode.
"""

from __future__ import annotations

import math
import mmap
import threading
import weakref
from collections import deque
from typing import Any

import numpy as np

from repro.core.operators import BinOp
from repro.semantics.functional import UNDEF

__all__ = [
    "KernelFallback",
    "KernelUnsupported",
    "KernelOverflow",
    "MAX_SAFE_INT",
    "is_vector_block",
    "vectorize_block",
    "devectorize_block",
    "checked_add",
    "checked_mul",
    "checked_neg",
    "elementwise",
    "BlockPool",
]


class KernelFallback(Exception):
    """Base: the vectorized path cannot (or must not) produce this result.

    Callers fall back to the exact object-mode semantics.
    """


class KernelUnsupported(KernelFallback):
    """Static failure: no kernel for this operator/map/stage/value shape."""


class KernelOverflow(KernelFallback):
    """Dynamic failure: a combine would leave the exact int64 range."""


#: Largest magnitude accepted for integer inputs.  Leaves three bits of
#: headroom under int64 so a single checked combine can never be made to
#: produce an undetected wrap by adversarial-but-accepted inputs.
MAX_SAFE_INT = 2 ** 62

#: checked_mul falls back once the (float-estimated) product magnitude
#: exceeds this; far enough below 2**63 that float rounding cannot hide a
#: genuine overflow, close enough that realistic workloads never trip it.
_MUL_GUARD = float(2 ** 60)


def _is_int(a: Any) -> bool:
    return getattr(a, "dtype", None) is not None and a.dtype.kind in "iu"


def _as_signed(a: Any) -> Any:
    """Promote bool arrays to int64 (Python bools are ints under + and *)."""
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "b":
        return a.astype(np.int64)
    return a


def _bounds(a: Any) -> tuple[int, int]:
    """(min, max) of an int array as exact Python ints."""
    if getattr(a, "size", 1) == 0:
        return (0, 0)
    return int(np.min(a)), int(np.max(a))


def checked_add(a: Any, b: Any) -> Any:
    """``a + b`` on arrays; exact or :class:`KernelOverflow` for ints."""
    a, b = _as_signed(a), _as_signed(b)
    if _is_int(a) and _is_int(b):
        # fast path: two scalar reductions per operand prove (in exact
        # Python arithmetic) that no element can overflow
        alo, ahi = _bounds(a)
        blo, bhi = _bounds(b)
        if alo + blo >= -(2 ** 63) and ahi + bhi < 2 ** 63:
            return np.add(a, b)
        with np.errstate(over="ignore"):
            r = np.add(a, b)
        # two's-complement overflow iff both operands' signs differ from
        # the result's sign (exact, branch-free)
        if np.any(((a ^ r) & (b ^ r)) < 0):
            raise KernelOverflow("int64 addition overflow")
        return r
    return np.add(a, b)


def checked_mul(a: Any, b: Any) -> Any:
    """``a * b`` on arrays; exact or :class:`KernelOverflow` for ints."""
    a, b = _as_signed(a), _as_signed(b)
    if _is_int(a) and _is_int(b):
        alo, ahi = _bounds(a)
        blo, bhi = _bounds(b)
        mag = max(abs(alo), abs(ahi)) * max(abs(blo), abs(bhi))
        if mag < 2 ** 63:  # exact: |a*b| <= mag for every element pair
            return np.multiply(a, b)
        est = np.abs(np.asarray(a, dtype=np.float64)
                     * np.asarray(b, dtype=np.float64))
        if np.any(est > _MUL_GUARD):
            raise KernelOverflow("int64 multiplication overflow")
        with np.errstate(over="ignore"):
            return np.multiply(a, b)
    return np.multiply(a, b)


def checked_neg(a: Any) -> Any:
    """``-a`` on arrays (bool-promoting; int inputs are range-checked at
    conversion so negation itself can never wrap)."""
    return np.negative(_as_signed(a))


# ---------------------------------------------------------------------------
# Block conversion
# ---------------------------------------------------------------------------


def is_vector_block(x: Any) -> bool:
    """Is ``x`` a vectorized block a kernel may operate on?

    Arrays and NumPy scalars qualify; so do tuples whose components are
    themselves vectorized or :data:`UNDEF` (the butterfly's partially
    undefined states), as long as at least one component is defined.
    """
    if isinstance(x, (np.ndarray, np.generic)):
        return True
    if isinstance(x, tuple) and x:
        any_defined = False
        for c in x:
            if c is UNDEF:
                continue
            if not is_vector_block(c):
                return False
            any_defined = True
        return any_defined
    return False


def vectorize_block(x: Any) -> Any:
    """Convert one input block to its array representation.

    Accepts :data:`UNDEF`, numeric scalars (bool/int/float), and numeric
    arrays.  Anything else — Python lists and tuples (sequence-semantics
    domains), strings, object arrays, ints beyond ``±2**62`` — raises
    :class:`KernelUnsupported`, which callers treat as "run this program
    in object mode".
    """
    if x is UNDEF:
        return UNDEF
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "biuf":
            raise KernelUnsupported(f"unsupported array dtype {x.dtype}")
        return x
    if isinstance(x, bool):
        return np.bool_(x)
    if isinstance(x, int):
        if abs(x) > MAX_SAFE_INT:
            raise KernelUnsupported(f"integer {x} exceeds the exact range")
        return np.asarray(x, dtype=np.int64)
    if isinstance(x, float):
        return np.asarray(x, dtype=np.float64)
    # NOTE: Python *lists* are deliberately rejected.  Object mode gives
    # them sequence semantics (`add` on list blocks concatenates); lowering
    # them to arrays would silently turn that into elementwise arithmetic.
    # Multi-element blocks enter the vectorized layer as ndarrays, where
    # the object semantics of +/* are already elementwise.
    raise KernelUnsupported(f"no vector representation for {type(x).__name__}")


def devectorize_block(v: Any) -> Any:
    """Convert an output block back to the object-mode representation.

    0-d arrays and NumPy scalars become exact Python scalars; tuples
    convert componentwise; :data:`UNDEF` passes through.  Proper arrays
    stay arrays — they entered as arrays, and object mode on array blocks
    produces arrays too.
    """
    if v is UNDEF:
        return UNDEF
    if isinstance(v, np.ndarray):
        if v.ndim == 0:
            return v.item()
        return v
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, tuple):
        return tuple(devectorize_block(c) for c in v)
    return v


# ---------------------------------------------------------------------------
# Block memory
# ---------------------------------------------------------------------------

#: blocks of fewer bytes are plain ``np.empty``: the allocator mostly
#: serves them from warm heap pages, and a draw (a finalizer, ~6 µs) costs
#: more than the faults it saves — at 64 KB the two measured equal
_POOL_FLOOR = 1 << 16

#: how many draws back the pool's demand reaches
_POOL_WINDOW = 256

#: private on every platform: anonymous, and copy-on-write across a fork
#: (the POSIX default is ``MAP_SHARED``, which forked rank processes
#: would write through)
_PRIVATE = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_PRIVATE") else {})


class BlockPool:
    """Uninitialised block-sized arrays over recycled private memory.

    :meth:`empty` is ``np.empty`` for a caller that writes every element
    before it reads one.  A large block is an array over an anonymous
    private mapping, and when the last reference to it dies — the array,
    or any slice, reshape or ``memoryview`` of it, all of which hold the
    array because its ``base`` is the mapping and not an ndarray — the
    mapping goes back on the idle shelf of its byte size, where the next
    draw of that size finds its pages already touched.  A fresh array of
    that size would be zero-filled by the kernel page by page as it is
    written, because the allocator hands memory that large back to the
    system on every free.

    Retention follows observed demand, and nothing sets it: at every
    draw each shelf is cut, longest idle first, to the number of draws
    of its size among the pool's last :data:`_POOL_WINDOW`, so idle
    bytes never exceed what those draws took, and a size no recent draw
    asked for is unmapped — on the spot, and whenever one more of it
    comes back.  Between draws the shelves only fill with what callers
    have held.

    Draws from any thread serialise on one lock; an array may die on any
    thread, at any point (a collection can run inside a draw), so giving
    back is a single ``deque.append`` and takes no lock.
    ``stats`` receives the ``pool_hits`` / ``pool_misses`` counts and the
    ``pool_idle_bytes`` level: recounted at every draw and :meth:`clear`,
    and raised in between by each buffer that comes back (unlocked, so a
    concurrent return can go uncounted until the next draw).
    """

    def __init__(self, stats: Any) -> None:
        self._stats = stats
        self._lock = threading.Lock()
        #: byte size -> idle buffers of that size, longest idle first
        self._shelves: dict[int, deque] = {}
        #: the byte sizes of the last draws
        self._recent: deque[int] = deque(maxlen=_POOL_WINDOW)

    def empty(self, shape: tuple, dtype: Any) -> np.ndarray:
        """An uninitialised ``shape`` array of ``dtype``; the caller must
        write every element (a recycled buffer holds an earlier block)."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if size < _POOL_FLOOR:
            return np.empty(shape, dtype)
        with self._lock:
            buf = self._draw(size)
        if buf is None:
            buf = mmap.mmap(-1, size, **_PRIVATE)
        block = np.ndarray(shape, dtype, buffer=buf)
        # not at exit: the process's memory goes with it
        weakref.finalize(block, self._give_back, buf).atexit = False
        return block

    def _draw(self, size: int) -> Any:
        """Record one draw of ``size`` bytes, cut every shelf to its
        demand, and take the most recently idle buffer of that size."""
        recent, shelves = self._recent, self._shelves
        recent.append(size)
        idle = 0
        for held, shelf in list(shelves.items()):
            keep = recent.count(held)
            while len(shelf) > keep:
                shelf.popleft()
            if not keep:
                del shelves[held]
            idle += held * len(shelf)
        shelf = shelves.setdefault(size, deque())
        buf = shelf.pop() if shelf else None
        if buf is None:
            self._stats.pool_misses += 1
        else:
            self._stats.pool_hits += 1
            idle -= size
        self._stats.pool_idle_bytes = idle
        return buf

    def _give_back(self, buf: Any) -> None:
        shelf = self._shelves.get(len(buf))
        if shelf is not None:  # else: nothing recent drew this size
            shelf.append(buf)
            self._stats.pool_idle_bytes += len(buf)

    def clear(self) -> None:
        """Unmap every idle buffer and forget the demand."""
        with self._lock:
            self._shelves.clear()
            self._recent.clear()
            self._stats.pool_idle_bytes = 0


# ---------------------------------------------------------------------------
# Object-mode elementwise lifting (the baseline the kernels replace)
# ---------------------------------------------------------------------------


def elementwise(op: BinOp) -> BinOp:
    """Lift a scalar operator to act per element on equal-length list blocks.

    This is the *object-mode* path for multi-element blocks — a Python
    loop per combine — kept as the honest baseline the vectorized kernels
    are benchmarked against (``benchmarks/test_bench_vectorized.py``).
    """
    f = op.fn

    def fn(a: Any, b: Any) -> Any:
        return [f(x, y) for x, y in zip(a, b)]

    return BinOp(
        name=f"ew[{op.name}]",
        fn=fn,
        associative=op.associative,
        commutative=op.commutative,
        op_count=op.op_count,
        width=op.width,
        kind="ew",
        parts=(op,),
    )
