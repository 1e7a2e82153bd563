"""Balanced reduction and balanced scan (paper Figures 4 and 5).

The SR-Reduction and SS-Scan rules produce operators that are *not*
associative, so their right-hand sides cannot use ordinary ``reduce`` /
``scan``.  The paper instead introduces two special collective schemata:

* ``reduce_balanced`` — a virtual binary tree in which (a) all leaves have
  the same depth and (b) the right subtree of every node with a non-empty
  left subtree is complete.  For any leaf count there is exactly one such
  tree; nodes without a left sibling are combined with the empty tree via a
  dedicated ``()``-case of the operator.
* ``scan_balanced``  — a butterfly of ``ceil(log2 n)`` stages with pairwise
  exchange at distances 1, 2, 4, ...; a processor whose partner does not
  exist keeps its first tuple component and marks the rest undefined (the
  paper's ``(s1, _, _, _)`` case).

Both are expressed here as *reference semantics* over plain lists; the
machine simulator re-implements them as message-passing algorithms and is
tested against these functions.

The schemata are generic in a *balanced operator* object (duck-typed; see
:class:`TreeOp` and :class:`ButterflyOp`), which the derived operators of
the SR-/SS-rules implement.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

from repro.semantics.functional import UNDEF

__all__ = [
    "TreeOp",
    "ButterflyOp",
    "balanced_tree_levels",
    "reduce_balanced",
    "allreduce_balanced",
    "scan_balanced",
    "butterfly_distances",
]


@runtime_checkable
class TreeOp(Protocol):
    """Operator protocol for ``reduce_balanced``.

    ``prepare`` lifts an input block into the tuple state carried up the
    tree; ``combine(left, right)`` is the binary node operation;
    ``combine_empty(right)`` is the paper's ``()``-case for nodes without a
    left sibling; ``project`` extracts the final answer at the root.
    """

    def prepare(self, x: Any) -> Any: ...

    def combine(self, left: Any, right: Any) -> Any: ...

    def combine_empty(self, right: Any) -> Any: ...

    def project(self, state: Any) -> Any: ...


@runtime_checkable
class ButterflyOp(Protocol):
    """Operator protocol for ``scan_balanced``.

    ``combine(lo, hi)`` returns the *pair* of new states (the butterfly
    updates both partners at once, and the update is asymmetric);
    ``missing(state)`` handles a processor whose partner does not exist.
    """

    def prepare(self, x: Any) -> Any: ...

    def combine(self, lo: Any, hi: Any) -> tuple[Any, Any]: ...

    def missing(self, state: Any) -> Any: ...

    def project(self, state: Any) -> Any: ...


# ---------------------------------------------------------------------------
# Balanced tree structure
# ---------------------------------------------------------------------------


def balanced_tree_levels(n: int) -> list[list[tuple[int, ...]]]:
    """Leaf index-sets of each node, level by level, for ``n`` leaves.

    Level 0 is the leaves ``[(0,), (1,), ..., (n-1,)]``; each subsequent
    level pairs the current nodes *right-aligned* (the unique pairing that
    keeps every right subtree complete), leaving the leftmost node alone
    when the count is odd.  The last level is the single root.
    """
    if n <= 0:
        raise ValueError("balanced tree needs at least one leaf")
    levels = [[(i,) for i in range(n)]]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        nxt: list[tuple[int, ...]] = []
        if len(cur) % 2 == 1:
            nxt.append(cur[0])  # lone leftmost node (empty left sibling)
            rest = cur[1:]
        else:
            rest = cur
        for i in range(0, len(rest), 2):
            nxt.append(rest[i] + rest[i + 1])
        levels.append(nxt)
    return levels


def reduce_balanced(
    op: TreeOp, xs: Sequence[Any], trace: list[list[Any]] | None = None
) -> list[Any]:
    """Balanced reduction: result in processor 0, others keep their block.

    If ``trace`` is given, the tuple state of every surviving node is
    appended level by level (matching the columns of paper Figure 4).
    """
    n = len(xs)
    if n == 0:
        raise ValueError("reduce_balanced on empty list")
    states = [op.prepare(x) for x in xs]
    if trace is not None:
        trace.append(list(states))
    while len(states) > 1:
        nxt: list[Any] = []
        if len(states) % 2 == 1:
            nxt.append(op.combine_empty(states[0]))
            rest = states[1:]
        else:
            rest = states
        for i in range(0, len(rest), 2):
            nxt.append(op.combine(rest[i], rest[i + 1]))
        states = nxt
        if trace is not None:
            trace.append(list(states))
    # Like MPI_Reduce, the result is significant only at the root.
    return [op.project(states[0])] + [UNDEF] * (n - 1)


def allreduce_balanced(op: TreeOp, xs: Sequence[Any]) -> list[Any]:
    """Balanced reduction delivered to every processor.

    Semantically this is ``reduce_balanced`` followed by a broadcast (the
    paper extends the tree to a butterfly on power-of-two machines; the
    value computed is the same).
    """
    root = reduce_balanced(op, xs)[0]
    return [root] * len(xs)


# ---------------------------------------------------------------------------
# Balanced butterfly scan
# ---------------------------------------------------------------------------


def butterfly_distances(n: int) -> list[int]:
    """Exchange distances 1, 2, 4, ... used by an ``n``-processor butterfly."""
    if n <= 0:
        raise ValueError("butterfly needs at least one processor")
    out: list[int] = []
    d = 1
    while d < n:
        out.append(d)
        d *= 2
    return out


def scan_balanced(
    op: ButterflyOp, xs: Sequence[Any], trace: list[list[Any]] | None = None
) -> list[Any]:
    """Balanced scan over the butterfly (paper Figure 5).

    Stage ``d`` pairs processor ``k`` with ``k XOR d``; the lower partner's
    state is the first argument of ``op.combine``.  Processors whose partner
    index falls outside the machine apply ``op.missing`` (keep the first
    component, invalidate the rest).
    """
    n = len(xs)
    if n == 0:
        raise ValueError("scan_balanced on empty list")
    states = [op.prepare(x) for x in xs]
    if trace is not None:
        trace.append(list(states))
    for d in butterfly_distances(n):
        nxt = list(states)
        for k in range(n):
            partner = k ^ d
            if partner >= n:
                nxt[k] = op.missing(states[k])
            elif partner > k:
                lo, hi = op.combine(states[k], states[partner])
                nxt[k] = lo
                nxt[partner] = hi
        states = nxt
        if trace is not None:
            trace.append(list(states))
    return [op.project(s) for s in states]
