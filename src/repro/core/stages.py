"""Stage AST: programs as compositions of local and collective stages.

A :class:`Program` is the library's central object — the paper's functional
program format (eq. 2): a forward composition of stages over a distributed
list whose ``i``-th element is the block residing in processor ``i``.

Two kinds of stages exist (paper Section 2.1):

* **local** stages, where every processor computes independently
  (:class:`MapStage`, :class:`MapIndexedStage`, :class:`Map2Stage`,
  :class:`IterStage`), and
* **collective** stages, which communicate (:class:`ScanStage`,
  :class:`ReduceStage`, :class:`AllReduceStage`, :class:`BcastStage`,
  :class:`BalancedReduceStage`, :class:`BalancedScanStage`,
  :class:`ComcastStage`).

Each stage implements ``apply(xs)``, the reference semantics, so a Program
can be run directly as its own specification.  Cost accounting lives in
:mod:`repro.core.cost`; the machine simulation in :mod:`repro.machine`.

Stages constructed by rewrite rules record their ``origin`` (the rule name)
so optimization reports can explain where every stage came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Iterable, Iterator, Sequence

from repro.core.derived_ops import ComcastOp, IterOp, SRTreeOp, SSButterflyOp
from repro.core.operators import BinOp
from repro.semantics import functional as F
from repro.semantics.balanced import reduce_balanced, allreduce_balanced, scan_balanced

__all__ = [
    "Stage",
    "MapStage",
    "MapIndexedStage",
    "Map2Stage",
    "ScanStage",
    "ReduceStage",
    "AllReduceStage",
    "BcastStage",
    "AllGatherStage",
    "ReduceScatterStage",
    "AllGatherVStage",
    "ScatterStage",
    "GatherStage",
    "BalancedReduceStage",
    "BalancedScanStage",
    "ComcastStage",
    "IterStage",
    "Program",
]


@dataclass(frozen=True)
class Stage:
    """Base class of all program stages."""

    #: Which rewrite rule created this stage ("" for user-written stages).
    origin: str = field(default="", kw_only=True)

    #: Whether the machine charges this stage's messages by ``len(block)``
    #: at run time rather than by the declared ``m * width`` — the one
    #: way a fault-free simulated schedule can depend on more than
    #: (program, machine, which blocks are defined).
    words_follow_block: ClassVar[bool] = False

    @property
    def is_collective(self) -> bool:
        raise NotImplementedError

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        """Reference semantics of this stage on a distributed list."""
        raise NotImplementedError

    def definition(self) -> "tuple[Stage, ...] | None":
        """The primitive pipeline this stage equals by definition — the
        left-hand side of the rule that introduces it — or None for a
        stage that is primitive itself (every stage but ``comcast`` and
        ``iter``).  ``Program(stage.definition()).run`` and
        ``stage.apply`` agree on every input."""
        return None

    def pretty(self) -> str:
        raise NotImplementedError

    def with_origin(self, origin: str) -> "Stage":
        return replace(self, origin=origin)


# ---------------------------------------------------------------------------
# Local stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapStage(Stage):
    """``map f`` — paper eq. (4).

    ``ops_per_element`` is the (estimated) number of elementary operations
    ``f`` costs per element; the pair/π₁ adjustments introduced by rules use
    0, following the paper's convention of ignoring their small constant.
    """

    fn: Callable[[Any], Any]
    label: str = "f"
    ops_per_element: int = 0

    @property
    def is_collective(self) -> bool:
        return False

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.map_fn(self.fn, xs)

    def pretty(self) -> str:
        return f"map {self.label}"


@dataclass(frozen=True)
class MapIndexedStage(Stage):
    """``map# f`` — paper eq. (13): ``f`` also receives the rank."""

    fn: Callable[[int, Any], Any]
    label: str = "f"
    ops_per_element: int = 0

    @property
    def is_collective(self) -> bool:
        return False

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.map_indexed(self.fn, xs)

    def pretty(self) -> str:
        return f"map# {self.label}"


@dataclass(frozen=True)
class Map2Stage(Stage):
    """``map2 f ys`` — binary map against a captured distributed constant.

    Used by the polynomial case study where the coefficient list ``as`` is
    pre-distributed (``map2 (×) as``).  ``indexed=True`` gives ``map2#``.
    """

    fn: Callable[..., Any]
    other: tuple[Any, ...]
    label: str = "f"
    indexed: bool = False
    ops_per_element: int = 0

    @property
    def is_collective(self) -> bool:
        return False

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        if self.indexed:
            return F.map2_indexed(self.fn, xs, self.other)
        return F.map2(self.fn, xs, self.other)

    def pretty(self) -> str:
        hash_ = "#" if self.indexed else ""
        return f"map2{hash_} {self.label}"


# ---------------------------------------------------------------------------
# Collective stages (paper eqs. 5-8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanStage(Stage):
    """``scan (⊕)`` — MPI_Scan, inclusive prefix (eq. 7)."""

    op: BinOp

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.scan_fn(self.op, xs)

    def pretty(self) -> str:
        return f"scan ({self.op.name})"


@dataclass(frozen=True)
class ReduceStage(Stage):
    """``reduce (⊕)`` — MPI_Reduce to the first processor (eq. 5)."""

    op: BinOp

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.reduce_fn(self.op, xs)

    def pretty(self) -> str:
        return f"reduce ({self.op.name})"


@dataclass(frozen=True)
class AllReduceStage(Stage):
    """``allreduce (⊕)`` — MPI_Allreduce (eq. 6)."""

    op: BinOp

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.allreduce_fn(self.op, xs)

    def pretty(self) -> str:
        return f"allreduce ({self.op.name})"


@dataclass(frozen=True)
class BcastStage(Stage):
    """``bcast`` — MPI_Bcast from the first processor (eq. 8)."""

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.bcast_fn(xs)

    def pretty(self) -> str:
        return "bcast"


@dataclass(frozen=True)
class AllGatherStage(Stage):
    """``allgather`` — MPI_Allgather: the full list on every processor.

    Not the subject of any paper rule, but needed to express the
    surveyed "collectives-only" applications (e.g. a distributed
    matrix-vector product, whose row blocks each need the whole vector).
    ``width`` is the per-element word count of one block.
    """

    width: int = 1

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.allgather_fn(xs)

    def pretty(self) -> str:
        return "allgather"


@dataclass(frozen=True)
class ReduceScatterStage(Stage):
    """``reduce_scatter (⊕ew)`` — MPI_Reduce_scatter(_block).

    The bandwidth-optimal half of the allreduce decomposition: combine
    every rank's equal-length block elementwise with ``op`` (an ``"ew"``
    operator over sequence blocks), then leave rank ``i`` holding only
    its contiguous *segment* of the result.  ``counts`` declares an
    irregular distribution (one segment length per rank, summing to the
    block length); ``None`` means the balanced partition.
    """

    op: BinOp
    counts: tuple[int, ...] | None = None
    words_follow_block: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.counts is not None:
            object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        from repro.semantics.vocabulary import reduce_scatter_fn

        return reduce_scatter_fn(xs, self.op, self.counts)

    def pretty(self) -> str:
        v = "" if self.counts is None else "v" + repr(list(self.counts))
        return f"reduce_scatter{v} ({self.op.name})"


@dataclass(frozen=True)
class AllGatherVStage(Stage):
    """``allgatherv`` — MPI_Allgatherv: concatenate irregular segments.

    The inverse half of the decomposition: every rank contributes its
    (possibly empty, possibly irregular) segment and receives the full
    rank-ordered concatenation.  ``counts``, when given, pins the
    declared segment lengths (validated at run time); ``width`` is the
    per-element word count.
    """

    counts: tuple[int, ...] | None = None
    width: int = 1
    words_follow_block: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.counts is not None:
            object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        from repro.semantics.vocabulary import allgatherv_fn

        return allgatherv_fn(xs, self.counts)

    def pretty(self) -> str:
        v = "" if self.counts is None else repr(list(self.counts))
        return f"allgatherv{v}"


# ---------------------------------------------------------------------------
# Rule-introduced collective stages (paper Section 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterStage(Stage):
    """``scatter`` — MPI_Scatter: deal the root's list out, one block each.

    ``width`` is the per-element word count of one dealt block.
    """

    width: int = 1

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.scatter_fn(xs)

    def pretty(self) -> str:
        return "scatter"


@dataclass(frozen=True)
class GatherStage(Stage):
    """``gather`` — MPI_Gather: rank-ordered list to the root, ``_`` elsewhere."""

    width: int = 1

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.gather_fn(xs)

    def pretty(self) -> str:
        return "gather"


@dataclass(frozen=True)
class BalancedReduceStage(Stage):
    """``[all]reduce_balanced (op_sr)`` — SR-Reduction's target (Fig 4)."""

    tree_op: SRTreeOp
    to_all: bool = False

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        if self.to_all:
            return allreduce_balanced(self.tree_op, xs)
        return reduce_balanced(self.tree_op, xs)

    def pretty(self) -> str:
        kind = "allreduce_balanced" if self.to_all else "reduce_balanced"
        return f"{kind} ({self.tree_op.name})"


@dataclass(frozen=True)
class BalancedScanStage(Stage):
    """``scan_balanced (op_ss)`` — SS-Scan's target (Fig 5)."""

    bfly_op: SSButterflyOp

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return scan_balanced(self.bfly_op, xs)

    def pretty(self) -> str:
        return f"scan_balanced ({self.bfly_op.name})"


#: ``kind`` of a comcast / iter operator -> which of its ``parts`` each
#: fold of the defining pipeline combines with (see the operator
#: builders' docstrings in :mod:`repro.core.derived_ops`): a comcast is
#: ``bcast`` followed by one scan per entry, an iter the same with the
#: last scan a reduce
_DEFINING_FOLDS = {
    "bs": (0,), "bss2": (0, 1), "bss": (0, 0),
    "br": (0,), "bsr2": (0, 1), "bsr": (0, 0),
}


def _defining_ops(op: Any) -> tuple[BinOp, ...] | None:
    folds = _DEFINING_FOLDS.get(op.kind)
    return None if folds is None else tuple(op.parts[i] for i in folds)


@dataclass(frozen=True)
class ComcastStage(Stage):
    """``comcast`` — the Comcast rules' target pattern (§3.4, Fig 6).

    ``impl`` selects between the two implementations the paper compares:
    ``"repeat"`` (broadcast, then local ``repeat(e,o)`` per processor — the
    faster one) and ``"doubling"`` (the cost-optimal successive-doubling
    pipeline that ships tuple states and loses on communication volume).
    Both have identical semantics, and both equal the stage's
    :meth:`definition` — ``bcast ; scan (⊕)`` for BS-Comcast,
    ``bcast ; scan (⊗) ; scan (⊕)`` for BSS2, ``bcast ; scan (⊕) ;
    scan (⊕)`` for BSS — rebuilt from the operator's ``kind``/``parts``
    (None for a hand-made operator without them).  The JIT compiles and
    bounds-checks a comcast through that pipeline.
    """

    comcast_op: ComcastOp
    impl: str = "repeat"

    def __post_init__(self) -> None:
        if self.impl not in ("repeat", "doubling"):
            raise ValueError(f"unknown comcast implementation {self.impl!r}")

    @property
    def is_collective(self) -> bool:
        return True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        # Both implementations realize: bcast; map# (λk b. op_comp k b).
        b = xs[0]
        return [self.comcast_op.compute(k, b) for k in range(len(xs))]

    def definition(self) -> tuple[Stage, ...] | None:
        ops = _defining_ops(self.comcast_op)
        return None if ops is None else (BcastStage(), *map(ScanStage, ops))

    def pretty(self) -> str:
        return f"comcast[{self.impl}] ({self.comcast_op.name})"


@dataclass(frozen=True)
class IterStage(Stage):
    """``iter (op)`` — the Local rules' target (§3.5).

    Purely local: the root iterates the doubling operator ``log2 p`` times;
    all other processors' blocks become undefined.  ``general=True`` uses
    the non-power-of-two extension (binary digits of ``p-1``).
    ``then_bcast`` realizes CR-Alllocal's trailing broadcast.

    Its :meth:`definition` is the Local rule's left-hand side —
    ``bcast ; reduce (⊕)`` for BR, ``bcast ; scan (⊗) ; reduce (⊕)`` for
    BSR2, ``bcast ; scan (⊕) ; reduce (⊕)`` for BSR, the reduce an
    ``allreduce`` under ``then_bcast`` — defined for every ``p`` (the
    non-``general`` doubling itself only for powers of two).  The JIT
    compiles and bounds-checks an iter through that pipeline.
    """

    iter_op: IterOp
    general: bool = False
    then_bcast: bool = False

    @property
    def is_collective(self) -> bool:
        return self.then_bcast  # the optional bcast is the only communication

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        p = len(xs)
        if p == 0:
            raise ValueError("iter on empty machine")
        if self.general:
            root = self.iter_op.compute_general(p, xs[0])
        else:
            root = self.iter_op.compute(p, xs[0])
        if self.then_bcast:
            return [root] * p
        return [root] + [F.UNDEF] * (p - 1)

    def definition(self) -> tuple[Stage, ...] | None:
        ops = _defining_ops(self.iter_op)
        if ops is None:
            return None
        last = AllReduceStage if self.then_bcast else ReduceStage
        return (BcastStage(), *map(ScanStage, ops[:-1]), last(ops[-1]))

    def pretty(self) -> str:
        suffix = " ; bcast" if self.then_bcast else ""
        gen = "_general" if self.general else ""
        return f"iter{gen} ({self.iter_op.name}){suffix}"


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A forward composition of stages (paper eq. 2/3).

    Programs are immutable; rewriting produces new Programs.  ``run`` is the
    reference semantics; use :func:`repro.machine.run.simulate_program` to
    execute on the simulated machine with timing.
    """

    stages: tuple[Stage, ...]
    name: str = "program"

    def __init__(self, stages: Iterable[Stage], name: str = "program") -> None:
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "name", name)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __getitem__(self, idx):
        return self.stages[idx]

    def run(self, xs: Sequence[Any]) -> list[Any]:
        """Apply every stage in order to the distributed list ``xs``."""
        data = list(xs)
        for stage in self.stages:
            data = stage.apply(data)
        return data

    def run_vectorized(self, xs: Sequence[Any]) -> list[Any]:
        """Run with NumPy block kernels, falling back to :meth:`run` for
        blocks or operators without an array lowering (identical results;
        see :mod:`repro.kernels`)."""
        from repro.kernels import run_vectorized

        return run_vectorized(self, xs)

    def run_jit(self, xs: Sequence[Any], *, params=None) -> list[Any]:
        """Run through the JIT tier (fused plans compiled to single raw
        ufunc kernels per segment), falling back to checked kernels or
        :meth:`run` wherever needed — identical results, lower
        wall-clock (see :mod:`repro.jit`).  ``params`` tunes local
        chunk sizing only."""
        from repro.jit import run_jit

        return run_jit(self, xs, params=params)

    def then(self, other: "Program") -> "Program":
        """Sequential composition — how cross-program fusion points arise."""
        return Program(self.stages + other.stages, name=f"{self.name};{other.name}")

    def replaced(self, start: int, length: int, new_stages: Sequence[Stage]) -> "Program":
        """A copy with ``stages[start:start+length]`` replaced."""
        if not (0 <= start and start + length <= len(self.stages)):
            raise IndexError("replacement window out of range")
        stages = self.stages[:start] + tuple(new_stages) + self.stages[start + length:]
        return Program(stages, name=self.name)

    def collective_count(self) -> int:
        """Number of collective (communicating) stages."""
        return sum(1 for s in self.stages if s.is_collective)

    def pretty(self) -> str:
        """One-line rendering in the paper's composition notation."""
        return " ; ".join(s.pretty() for s in self.stages)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Program({self.name}: {self.pretty()})"
