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
  :class:`ComcastStage`, and the movement / bandwidth vocabulary).

**A stage is its class.**  Everything the core layers ask of a stage is
a *facet* the class owns — the methods and ``ClassVar``s :class:`Stage`
lists: ``apply`` (the reference semantics, so a Program can be run
directly as its own specification), ``pretty``, ``definition``, the
model ``cost`` / ``rounds`` / ``formula`` behind :mod:`repro.core.cost`,
the planner's ``token``, the ``mpi_text`` surface form and ``rebuild``
for the array backends.  Every driver is a generic walk that calls the
facet; none tests for a class.  A class without a facet raises
:class:`StageFacetError` naming both.  The two lowerings ``core`` may
not import — the machine algorithm (:mod:`repro.machine.run`) and the
mpi4py emission (:mod:`repro.codegen.mpi4py_gen`) — are tables keyed by
stage class in their own layer.

Stages constructed by rewrite rules record their ``origin`` (the rule name)
so optimization reports can explain where every stage came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, ClassVar, Iterable, Iterator, Sequence

from repro.core.cost import (
    CostFormula,
    MachineParams,
    SymbolicCost,
    allgatherv_cost,
    bcast_formula,
    reduce_scatter_cost,
    ring_slots,
)
from repro.core.derived_ops import (
    ComcastOp,
    IterOp,
    SRTreeOp,
    SSButterflyOp,
    defining_ops,
    rebuild_derived_op,
)
from repro.core.operators import BinOp, op_signature
from repro.semantics import functional as F
from repro.semantics.balanced import reduce_balanced, allreduce_balanced, scan_balanced

__all__ = [
    "Stage",
    "StageFacetError",
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


class StageFacetError(TypeError):
    """A layer asked a stage for a facet its class does not implement."""

    def __init__(self, stage_class: type, facet: str) -> None:
        super().__init__(
            f"stage class {stage_class.__name__} has no {facet!r} facet")
        self.stage_class = stage_class
        self.facet = facet


@dataclass(frozen=True)
class Stage:
    """Base class of all program stages, and the list of their facets.

    A concrete stage class implements every method below (sharing them
    through the small bases that follow where several classes agree);
    each default raises :class:`StageFacetError`.
    """

    #: Which rewrite rule created this stage ("" for user-written stages).
    origin: str = field(default="", kw_only=True)

    #: Whether the machine charges this stage's messages by ``len(block)``
    #: at run time rather than by the declared ``m * width`` — the one
    #: way a fault-free simulated schedule can depend on more than
    #: (program, machine, which blocks are defined).
    words_follow_block: ClassVar[bool] = False

    #: Whether the MPI surface form overwrites its source buffer instead
    #: of writing a fresh variable (``MPI_Bcast``).
    mpi_in_place: ClassVar[bool] = False

    @property
    def is_collective(self) -> bool:
        """Whether the stage communicates (a ``ClassVar`` on the bases)."""
        raise StageFacetError(type(self), "is_collective")

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        """Reference semantics of this stage on a distributed list."""
        raise StageFacetError(type(self), "apply")

    def definition(self) -> "tuple[Stage, ...] | None":
        """The primitive pipeline this stage equals by definition — the
        left-hand side of the rule that introduces it — or None for a
        stage that is primitive itself (every stage but ``comcast`` and
        ``iter``).  ``Program(stage.definition()).run`` and
        ``stage.apply`` agree on every input."""
        return None

    def pretty(self) -> str:
        """The stage in the paper's composition notation."""
        raise StageFacetError(type(self), "pretty")

    def cost(self, params: MachineParams) -> float:
        """Model time under the butterfly cost model, without the
        resilience term (:func:`repro.core.cost.stage_cost` adds it)."""
        raise StageFacetError(type(self), "cost")

    def rounds(self, p: int) -> int:
        """Communication rounds on ``p`` processors — the fault surface
        behind :func:`repro.core.cost.stage_rounds`."""
        raise StageFacetError(type(self), "rounds")

    def formula(self) -> SymbolicCost:
        """Table-1 symbolic cost (exact coefficients).  The movement and
        bandwidth stages keep this default: their ``(1 - 1/p)`` volume
        factors have no per-``log p`` form."""
        raise StageFacetError(type(self), "formula")

    def token(self) -> tuple:
        """Contribution to the planner's canonical signature: exactly
        what rule matching and the cost model observe of the stage.
        Tokens are on-disk ``PlanCache`` keys."""
        raise StageFacetError(type(self), "token")

    def mpi_text(self, src: str, dst: str) -> str:
        """The MPI-like surface statement reading ``src``, writing ``dst``
        (``dst == src`` for an :attr:`mpi_in_place` stage)."""
        raise StageFacetError(type(self), "mpi_text")

    def rebuild(self, map_fn: Callable[["MapStage"], Callable],
                binop_fn: Callable[[BinOp], BinOp]) -> "Stage | None":
        """This stage with its map function replaced by ``map_fn(self)``
        and every base operator by ``binop_fn(op)``, every cost
        annotation kept; None for a stage without an array form."""
        raise StageFacetError(type(self), "rebuild")

    def with_origin(self, origin: str) -> "Stage":
        return replace(self, origin=origin)


# ---------------------------------------------------------------------------
# Local stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LocalMap(Stage):
    """What the three maps share: ``m * ops_per_element`` of local work."""

    is_collective: ClassVar[bool] = False

    def cost(self, params: MachineParams) -> float:
        return params.m * self.ops_per_element

    def rounds(self, p: int) -> int:
        return 0

    def formula(self) -> SymbolicCost:
        return SymbolicCost(CostFormula.of(0, 0, 0),
                            Fraction(self.ops_per_element))

    def rebuild(self, map_fn, binop_fn) -> "Stage | None":
        return None  # only a plain ``map`` has per-label array kernels

    def normal_form(self) -> tuple[Callable[[int, Any, Any], Any], bool,
                                   "tuple[Any, ...] | None"]:
        """The map as ``(call, reads_rank, other)``: ``call(k, x, y)`` is
        its function of the rank, the block and the rank's share of
        ``other`` (None for a unary map) — the one shape in which any two
        maps compose (:func:`repro.core.rewrite.fuse_local_stages`)."""
        raise StageFacetError(type(self), "normal_form")


@dataclass(frozen=True)
class MapStage(_LocalMap):
    """``map f`` — paper eq. (4).

    ``ops_per_element`` is the (estimated) number of elementary operations
    ``f`` costs per element; the pair/π₁ adjustments introduced by rules use
    0, following the paper's convention of ignoring their small constant.
    """

    fn: Callable[[Any], Any]
    label: str = "f"
    ops_per_element: int = 0

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.map_fn(self.fn, xs)

    def pretty(self) -> str:
        return f"map {self.label}"

    def token(self) -> tuple:
        return ("map", self.ops_per_element)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"{dst} = {self.label} ({src});"

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return replace(self, fn=map_fn(self))

    def normal_form(self):
        fn = self.fn
        return (lambda k, x, y: fn(x)), False, None


@dataclass(frozen=True)
class MapIndexedStage(_LocalMap):
    """``map# f`` — paper eq. (13): ``f`` also receives the rank."""

    fn: Callable[[int, Any], Any]
    label: str = "f"
    ops_per_element: int = 0

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.map_indexed(self.fn, xs)

    def pretty(self) -> str:
        return f"map# {self.label}"

    def token(self) -> tuple:
        return ("map#", self.ops_per_element)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"{dst} = {self.label} (rank, {src});"

    def normal_form(self):
        fn = self.fn
        return (lambda k, x, y: fn(k, x)), True, None


@dataclass(frozen=True)
class Map2Stage(_LocalMap):
    """``map2 f ys`` — binary map against a captured distributed constant.

    Used by the polynomial case study where the coefficient list ``as`` is
    pre-distributed (``map2 (×) as``).  ``indexed=True`` gives ``map2#``.
    """

    fn: Callable[..., Any]
    other: tuple[Any, ...]
    label: str = "f"
    indexed: bool = False
    ops_per_element: int = 0

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        if self.indexed:
            return F.map2_indexed(self.fn, xs, self.other)
        return F.map2(self.fn, xs, self.other)

    def pretty(self) -> str:
        hash_ = "#" if self.indexed else ""
        return f"map2{hash_} {self.label}"

    def token(self) -> tuple:
        return ("map2", self.indexed, self.ops_per_element)

    def mpi_text(self, src: str, dst: str) -> str:
        hash_ = "#" if self.indexed else ""
        return f"{dst} = map2{hash_} {self.label} ({src}, as);"

    def normal_form(self):
        fn = self.fn
        if self.indexed:
            return fn, True, self.other
        return (lambda k, x, y: fn(x, y)), False, self.other


# ---------------------------------------------------------------------------
# Collective stages (paper eqs. 5-8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Collective(Stage):
    """A communicating stage; butterfly/binomial unless it says otherwise:
    ``ceil(log2 p)`` rounds."""

    is_collective: ClassVar[bool] = True

    def rounds(self, p: int) -> int:
        return (p - 1).bit_length()


@dataclass(frozen=True)
class _Butterfly(_Collective):
    """``log p`` phases, each exchanging ``words`` and computing ``ops``
    per element (paper eqs. 16-17 with the stage's own volume/count): the
    class states the pair once, ``cost`` and ``formula`` are its two
    readings."""

    def butterfly(self) -> tuple[float, float]:
        """``(words, ops)`` per element of one phase."""
        raise StageFacetError(type(self), "butterfly")

    def cost(self, params: MachineParams) -> float:
        words, ops = self.butterfly()
        return params.log_p * (params.ts + params.m * (words * params.tw + ops))

    def formula(self) -> SymbolicCost:
        words, ops = self.butterfly()
        return SymbolicCost(CostFormula.of(1, words, ops), Fraction(0))


@dataclass(frozen=True)
class _Fold(_Butterfly):
    """``scan`` / ``reduce`` / ``allreduce`` over one operator ``op``
    (paper eqs. 16-17, generalized to wide/composite operators)."""

    op: BinOp

    #: the stage's name in the paper's notation / as the MPI call
    #: (``reduce`` writes its own call: it alone names a root)
    kind: ClassVar[str]
    mpi_call: ClassVar[str]
    #: operator applications per phase: a scan combines twice
    applications: ClassVar[int] = 1

    def pretty(self) -> str:
        return f"{self.kind} ({self.op.name})"

    def butterfly(self) -> tuple[float, float]:
        return self.op.width, self.applications * self.op.op_count

    def token(self) -> tuple:
        return (self.kind, op_signature(self.op))

    def mpi_text(self, src: str, dst: str) -> str:
        return f"{self.mpi_call} ({src}, {dst}, {self.op.name});"

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return replace(self, op=binop_fn(self.op))


@dataclass(frozen=True)
class ScanStage(_Fold):
    """``scan (⊕)`` — MPI_Scan, inclusive prefix (eq. 7)."""

    kind: ClassVar[str] = "scan"
    mpi_call: ClassVar[str] = "MPI_Scan"
    applications: ClassVar[int] = 2

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.scan_fn(self.op, xs)


@dataclass(frozen=True)
class ReduceStage(_Fold):
    """``reduce (⊕)`` — MPI_Reduce to the first processor (eq. 5)."""

    kind: ClassVar[str] = "reduce"

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.reduce_fn(self.op, xs)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"MPI_Reduce ({src}, {dst}, {self.op.name}, root);"


@dataclass(frozen=True)
class AllReduceStage(_Fold):
    """``allreduce (⊕)`` — MPI_Allreduce (eq. 6)."""

    kind: ClassVar[str] = "allreduce"
    mpi_call: ClassVar[str] = "MPI_Allreduce"

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.allreduce_fn(self.op, xs)


@dataclass(frozen=True)
class _Movement(_Collective):
    """Stages that only move blocks around — valid for any block
    representation (``allgatherv`` concatenates segments, which
    ``np.concatenate`` handles on array blocks; no operator is applied),
    so they rebuild as themselves."""

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return self


@dataclass(frozen=True)
class BcastStage(_Movement):
    """``bcast`` — MPI_Bcast from the first processor (eq. 8)."""

    mpi_in_place: ClassVar[bool] = True

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.bcast_fn(xs)

    def pretty(self) -> str:
        return "bcast"

    def cost(self, params: MachineParams) -> float:
        return params.log_p * (params.ts + params.m * params.tw)

    def formula(self) -> SymbolicCost:
        return SymbolicCost(bcast_formula(), Fraction(0))

    def token(self) -> tuple:
        return ("bcast",)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"MPI_Bcast ({src}, root);"


def _ring_or_doubling_rounds(p: int) -> int:
    """Rounds of an allgather[v]: recursive doubling on power-of-two
    machines, the (segment) ring's slots otherwise."""
    return (p - 1).bit_length() if p & (p - 1) == 0 else ring_slots(p)


@dataclass(frozen=True)
class AllGatherStage(_Movement):
    """``allgather`` — MPI_Allgather: the full list on every processor.

    Not the subject of any paper rule, but needed to express the
    surveyed "collectives-only" applications (e.g. a distributed
    matrix-vector product, whose row blocks each need the whole vector).
    ``width`` is the per-element word count of one block.
    """

    width: int = 1

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.allgather_fn(xs)

    def pretty(self) -> str:
        return "allgather"

    def cost(self, params: MachineParams) -> float:
        p, ts, tw, m = params.p, params.ts, params.tw, params.m
        if p & (p - 1) == 0:
            # recursive doubling: log p start-ups, (p-1) block volumes
            return params.log_p * ts + (p - 1) * m * self.width * tw
        return ring_slots(p) * (ts + m * self.width * tw)

    def rounds(self, p: int) -> int:
        return _ring_or_doubling_rounds(p)

    def token(self) -> tuple:
        return ("allgather", self.width)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"MPI_Allgather ({src}, {dst});"


@dataclass(frozen=True)
class ReduceScatterStage(_Collective):
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

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        from repro.semantics.vocabulary import reduce_scatter_fn

        return reduce_scatter_fn(xs, self.op, self.counts)

    def pretty(self) -> str:
        v = "" if self.counts is None else "v" + repr(list(self.counts))
        return f"reduce_scatter{v} ({self.op.name})"

    def cost(self, params: MachineParams) -> float:
        return reduce_scatter_cost(params, self.op)

    def rounds(self, p: int) -> int:
        log_rounds = (p - 1).bit_length()
        if not self.op.commutative:
            # rank-ordered binomial reduce, then binomial scatterv
            return 2 * log_rounds
        if p & (p - 1) == 0:
            return log_rounds  # recursive halving
        # rank folding: one fold round, the power-of-two core, one unfold
        return (p.bit_length() - 1) + 2

    def token(self) -> tuple:
        return ("reduce_scatter", self.counts, op_signature(self.op))

    def mpi_text(self, src: str, dst: str) -> str:
        counts = "counts" if self.counts is None else list(self.counts)
        return (f"MPI_Reduce_scatter ({src}, {dst}, {counts}, "
                f"{self.op.name});")

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return replace(self, op=binop_fn(self.op))


@dataclass(frozen=True)
class AllGatherVStage(_Movement):
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

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        from repro.semantics.vocabulary import allgatherv_fn

        return allgatherv_fn(xs, self.counts)

    def pretty(self) -> str:
        v = "" if self.counts is None else repr(list(self.counts))
        return f"allgatherv{v}"

    def cost(self, params: MachineParams) -> float:
        return allgatherv_cost(params, self.width)

    def rounds(self, p: int) -> int:
        return _ring_or_doubling_rounds(p)

    def token(self) -> tuple:
        return ("allgatherv", self.counts, self.width)

    def mpi_text(self, src: str, dst: str) -> str:
        counts = "counts" if self.counts is None else list(self.counts)
        return f"MPI_Allgatherv ({src}, {dst}, {counts});"


# ---------------------------------------------------------------------------
# Rule-introduced collective stages (paper Section 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RootTree(_Movement):
    """``scatter`` / ``gather``: binomial halving/doubling through the
    root — ``ceil(log p)`` messages carrying ``(p-1)`` blocks of
    ``width`` words per element in total, exact for every ``p``."""

    width: int = 1

    kind: ClassVar[str]
    mpi_call: ClassVar[str]

    def pretty(self) -> str:
        return self.kind

    def cost(self, params: MachineParams) -> float:
        p = params.p
        phases = (p - 1).bit_length()
        return phases * params.ts + (p - 1) * params.m * self.width * params.tw

    def token(self) -> tuple:
        return (self.kind, self.width)

    def mpi_text(self, src: str, dst: str) -> str:
        return f"{self.mpi_call} ({src}, {dst}, root);"


@dataclass(frozen=True)
class ScatterStage(_RootTree):
    """``scatter`` — MPI_Scatter: deal the root's list out, one block each.

    ``width`` is the per-element word count of one dealt block.
    """

    kind: ClassVar[str] = "scatter"
    mpi_call: ClassVar[str] = "MPI_Scatter"

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.scatter_fn(xs)


@dataclass(frozen=True)
class GatherStage(_RootTree):
    """``gather`` — MPI_Gather: rank-ordered list to the root, ``_`` elsewhere."""

    kind: ClassVar[str] = "gather"
    mpi_call: ClassVar[str] = "MPI_Gather"

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return F.gather_fn(xs)


@dataclass(frozen=True)
class BalancedReduceStage(_Butterfly):
    """``[all]reduce_balanced (op_sr)`` — SR-Reduction's target (Fig 4)."""

    tree_op: SRTreeOp
    to_all: bool = False

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        if self.to_all:
            return allreduce_balanced(self.tree_op, xs)
        return reduce_balanced(self.tree_op, xs)

    def pretty(self) -> str:
        kind = "allreduce_balanced" if self.to_all else "reduce_balanced"
        return f"{kind} ({self.tree_op.name})"

    def butterfly(self) -> tuple[float, float]:
        return self.tree_op.comm_width, self.tree_op.op_count

    def token(self) -> tuple:
        return ("reduce_balanced", self.to_all, op_signature(self.tree_op))

    def mpi_text(self, src: str, dst: str) -> str:
        call = "MPI_Allreduce_balanced" if self.to_all else "MPI_Reduce_balanced"
        return f"{call} ({src}, {dst}, {self.tree_op.name});"

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return replace(self, tree_op=SRTreeOp(binop_fn(self.tree_op.op)))


@dataclass(frozen=True)
class BalancedScanStage(_Butterfly):
    """``scan_balanced (op_ss)`` — SS-Scan's target (Fig 5)."""

    bfly_op: SSButterflyOp

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        return scan_balanced(self.bfly_op, xs)

    def pretty(self) -> str:
        return f"scan_balanced ({self.bfly_op.name})"

    def butterfly(self) -> tuple[float, float]:
        return self.bfly_op.comm_width, self.bfly_op.op_count

    def token(self) -> tuple:
        return ("scan_balanced", op_signature(self.bfly_op))

    def mpi_text(self, src: str, dst: str) -> str:
        return f"MPI_Scan_balanced ({src}, {dst}, {self.bfly_op.name});"

    def rebuild(self, map_fn, binop_fn) -> Stage:
        return replace(self, bfly_op=SSButterflyOp(binop_fn(self.bfly_op.op)))


@dataclass(frozen=True)
class ComcastStage(_Butterfly):
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

    def apply(self, xs: Sequence[Any]) -> list[Any]:
        # Both implementations realize: bcast; map# (λk b. op_comp k b).
        b = xs[0]
        return [self.comcast_op.compute(k, b) for k in range(len(xs))]

    def definition(self) -> tuple[Stage, ...] | None:
        ops = defining_ops(self.comcast_op)
        return None if ops is None else (BcastStage(), *map(ScanStage, ops))

    def pretty(self) -> str:
        return f"comcast[{self.impl}] ({self.comcast_op.name})"

    def butterfly(self) -> tuple[float, float]:
        # repeat: broadcast + local repeat — log p phases of (ts + m tw),
        # then log p digit steps of m * op_count local work.  doubling:
        # the cost-optimal pipeline ships whole tuple states; every
        # processor applies exactly one digit function per phase.
        op = self.comcast_op
        return (1 if self.impl == "repeat" else op.state_width), op.op_count

    def token(self) -> tuple:
        return ("comcast", self.impl, op_signature(self.comcast_op))

    def mpi_text(self, src: str, dst: str) -> str:
        return f"Comcast[{self.impl}] ({src}, {dst}, {self.comcast_op.name});"

    def rebuild(self, map_fn, binop_fn) -> Stage | None:
        op = rebuild_derived_op(self.comcast_op, binop_fn)
        return None if op is None else replace(self, comcast_op=op)


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
        ops = defining_ops(self.iter_op)
        if ops is None:
            return None
        last = AllReduceStage if self.then_bcast else ReduceStage
        return (BcastStage(), *map(ScanStage, ops[:-1]), last(ops[-1]))

    def pretty(self) -> str:
        suffix = " ; bcast" if self.then_bcast else ""
        gen = "_general" if self.general else ""
        return f"iter{gen} ({self.iter_op.name}){suffix}"

    def cost(self, params: MachineParams) -> float:
        log_p, m = params.log_p, params.m
        local = log_p * m * self.iter_op.op_count
        if self.then_bcast:
            local += log_p * (params.ts + m * params.tw)
        return local

    def rounds(self, p: int) -> int:
        return (p - 1).bit_length() if self.then_bcast else 0

    def formula(self) -> SymbolicCost:
        # iter's doubling runs log p times: model it in the log p part
        coll = CostFormula.of(0, 0, self.iter_op.op_count)
        if self.then_bcast:
            coll = coll + bcast_formula()
        return SymbolicCost(coll, Fraction(0))

    def token(self) -> tuple:
        return ("iter", self.general, self.then_bcast,
                op_signature(self.iter_op))

    def mpi_text(self, src: str, dst: str) -> str:
        tail = "; MPI_Bcast" if self.then_bcast else ""
        return f"{dst} = Iter ({self.iter_op.name}, {src}){tail};"

    def rebuild(self, map_fn, binop_fn) -> Stage | None:
        op = rebuild_derived_op(self.iter_op, binop_fn)
        return None if op is None else replace(self, iter_op=op)


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A forward composition of stages (paper eq. 2/3).

    Programs are immutable; rewriting produces new Programs.  ``run`` is the
    reference semantics; use :func:`repro.machine.run.simulate_program` to
    execute on the simulated machine with timing.

    A program is hashed once, for the three stores keyed on it (plan
    cache, resident schedules, JIT compile cache): the value is kept
    beside it, and left out of a pickle since a ``str`` hashes per
    interpreter.  An unhashable program raises ``TypeError`` every time.
    """

    stages: tuple[Stage, ...]
    name: str = "program"

    def __init__(self, stages: Iterable[Stage], name: str = "program") -> None:
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "name", name)

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash((self.stages, self.name))
        return value

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

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
