"""Reference semantics for the bandwidth-optimal collective vocabulary.

``reduce_scatter`` and ``allgatherv`` are the two halves of the
bandwidth-optimal allreduce decomposition (Rabenseifner; Träff,
arXiv:2410.14234)::

    allreduce (⊕ew)  ≡  reduce_scatter (⊕ew) ; allgatherv

where ``⊕ew`` is an *elementwise* operator over equal-length sequence
blocks (:func:`repro.core.operators.elementwise_op`).  ``reduce_scatter``
combines all blocks elementwise and leaves rank ``i`` holding only its
*segment* of the result; ``allgatherv`` concatenates the per-rank
segments (of possibly irregular sizes) back into the full block on every
rank.  Because the segments form a contiguous rank-ordered partition,
the composition reproduces the full reduced block exactly — the identity
the rewrite rules in :mod:`repro.core.rules.bandwidth` exploit.

Block distributions are described by ``counts`` — one (non-negative)
segment length per rank.  ``counts=None`` means the *balanced* partition
(:func:`balanced_counts`): sizes differ by at most one, longer segments
first, matching ``MPI_Reduce_scatter_block``-style layouts while still
permitting ranks with empty segments when ``p`` exceeds the block
length.  These functions are the specification the machine algorithms
(:mod:`repro.machine.collectives.vocabulary`) and every oracle backend
are differentially tested against.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.operators import BinOp
from repro.semantics.functional import UNDEF

__all__ = [
    "balanced_counts",
    "resolve_counts",
    "split_by_counts",
    "concat_blocks",
    "reduce_scatter_fn",
    "allgatherv_fn",
]


def balanced_counts(n: int, p: int) -> tuple[int, ...]:
    """The balanced ``p``-way partition of ``n`` elements.

    Sizes differ by at most one; the first ``n mod p`` ranks get the
    longer segments.  ``p`` may exceed ``n`` (trailing ranks get empty
    segments).
    """
    if p <= 0:
        raise ValueError(f"need at least one rank, got p={p}")
    if n < 0:
        raise ValueError(f"negative block length {n}")
    base, rem = divmod(n, p)
    return tuple(base + (1 if i < rem else 0) for i in range(p))


def resolve_counts(counts: Sequence[int] | None, n: int, p: int) -> tuple[int, ...]:
    """Validate explicit ``counts`` (or derive the balanced partition).

    Explicit counts must have one non-negative entry per rank and sum to
    the block length ``n`` — a malformed distribution is a programming
    error, reported loudly rather than silently truncated.
    """
    if counts is None:
        return balanced_counts(n, p)
    counts = tuple(int(c) for c in counts)
    if len(counts) != p:
        raise ValueError(
            f"counts describe {len(counts)} ranks but the machine has {p}")
    if any(c < 0 for c in counts):
        raise ValueError(f"negative segment length in counts {counts}")
    if sum(counts) != n:
        raise ValueError(
            f"counts {counts} sum to {sum(counts)}, block has {n} elements")
    return counts


def split_by_counts(block: Any, counts: Sequence[int]) -> list[Any]:
    """Slice ``block`` into contiguous segments of the given lengths.

    Slicing preserves the container type (list, tuple, str, ndarray), so
    every segment is a smaller block of the same representation.
    """
    out = []
    off = 0
    for c in counts:
        out.append(block[off:off + c])
        off += c
    return out


def concat_blocks(blocks: Sequence[Any]) -> Any:
    """Concatenate segments back into one block, preserving the container.

    Arrays (anything with a ``dtype``) concatenate via NumPy; sequence
    types concatenate with ``+``, so mixed representations fail loudly
    instead of producing a silently coerced block.
    """
    if not blocks:
        raise ValueError("cannot concatenate zero blocks")
    if any(hasattr(b, "dtype") for b in blocks):
        import numpy as np

        return np.concatenate([np.asarray(b) for b in blocks])
    out = blocks[0]
    for b in blocks[1:]:
        out = out + b
    return out


def reduce_scatter_fn(xs: Sequence[Any], op: BinOp,
                      counts: Sequence[int] | None = None) -> list[Any]:
    """Elementwise-reduce all blocks; rank ``i`` keeps segment ``i``.

    ``op`` must be applicable to whole equal-length blocks (an ``"ew"``
    operator); the fold runs in rank order, so merely associative
    operators are safe.  Any undefined input poisons every output — a
    rank cannot know its segment without every contribution.
    """
    p = len(xs)
    if p == 0:
        return []
    if any(x is UNDEF for x in xs):
        return [UNDEF] * p
    y = xs[0]
    for x in xs[1:]:
        y = op(y, x)
    counts = resolve_counts(counts, len(y), p)
    return split_by_counts(y, counts)


def allgatherv_fn(xs: Sequence[Any],
                  counts: Sequence[int] | None = None) -> list[Any]:
    """Concatenate the per-rank segments; every rank gets the full block.

    ``counts``, when given, pins the expected segment lengths (the
    declared irregular distribution) and is validated against the actual
    blocks.  Any undefined segment leaves a hole of unknown extent, so
    every output degrades to the undefined block.
    """
    p = len(xs)
    if p == 0:
        return []
    if any(x is UNDEF for x in xs):
        return [UNDEF] * p
    if counts is not None:
        counts = tuple(int(c) for c in counts)
        if len(counts) != p:
            raise ValueError(
                f"counts describe {len(counts)} ranks but the machine has {p}")
        actual = tuple(len(x) for x in xs)
        if actual != counts:
            raise ValueError(
                f"declared segment lengths {counts} != actual {actual}")
    cat = concat_blocks(list(xs))
    return [cat] * p
