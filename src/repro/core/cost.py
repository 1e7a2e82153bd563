"""Cost calculus (paper Section 4).

Machine model: a virtual fully connected system; two processors exchange
blocks of ``m`` words in ``ts + m*tw`` (start-up plus per-word time); one
computation operation costs one time unit.  All three base collectives use
the butterfly implementation with ``log p`` phases (paper eqs. 15-17):

* ``T_bcast  = log p * (ts + m*tw)``
* ``T_reduce = log p * (ts + m*(tw + 1))``
* ``T_scan   = log p * (ts + m*(tw + 2))``

This module provides

* :class:`MachineParams` — the model parameters (p, ts, tw, m);
* :func:`stage_cost` / :func:`program_cost` — generic cost of any stage
  AST, parametric in operator widths and op-counts (this is what the
  optimizer minimizes).  What one stage costs is that stage class's own
  ``cost`` / ``rounds`` / ``formula`` facet (:mod:`repro.core.stages`,
  which imports the closed forms below — so this module names no stage
  class);
* :class:`CostFormula` — a symbolic ``a*ts + m*(b*tw + c)`` (per ``log p``)
  form, used to regenerate Table 1 exactly and to solve crossovers.

The generic stage costing and the closed Table-1 forms are proven
consistent against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.core.stages import Program, Stage

__all__ = [
    "MachineParams",
    "stage_cost",
    "stage_rounds",
    "program_rounds",
    "program_cost",
    "reduce_scatter_cost",
    "allgatherv_cost",
    "decomposed_allreduce_cost",
    "CostFormula",
    "bcast_formula",
    "reduce_formula",
    "scan_formula",
    "PARSYTEC_LIKE",
    "LOW_LATENCY",
    "HIGH_LATENCY",
    "SymbolicCost",
    "stage_formula",
    "program_formula",
    "pipelined_transfer_cost",
    "pipeline_chunk_count",
]


@dataclass(frozen=True)
class MachineParams:
    """Machine/model parameters of the paper's Section 4.1.

    ``p`` — number of processors; ``ts`` — message start-up time;
    ``tw`` — per-word transfer time; ``m`` — block length (elements per
    processor).  Times are in units of one elementary computation.

    ``round_penalty`` is the *resilience* term: an extra charge per
    communication round (see :func:`stage_rounds`).  The paper's cost
    model has no such term (default ``0.0`` keeps every cost
    bit-identical); the recovery runtime (:mod:`repro.recovery`) sets it
    after a link quarantine so the optimizer prefers the rule-fused forms
    — fewer rounds means fewer exposures to a faulty network, turning the
    paper's round-count argument into a live robustness mechanism.
    """

    p: int
    ts: float
    tw: float
    m: int = 1
    round_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need at least one processor")
        if self.m < 0:
            raise ValueError("block size cannot be negative")
        if self.ts < 0 or self.tw < 0:
            raise ValueError("ts/tw cannot be negative")
        if self.round_penalty < 0:
            raise ValueError("round penalty cannot be negative")

    @property
    def log_p(self) -> float:
        """The ``log p`` factor of the butterfly implementations."""
        return math.log2(self.p) if self.p > 1 else 0.0

    def link(self, a: int, b: int) -> tuple[float, float]:
        """(ts, tw) of the link between ranks ``a`` and ``b``.

        The paper's model is a uniform fully connected network; subclasses
        (e.g. the cluster-of-SMPs model) override this to make inter-node
        links slower than intra-node ones.
        """
        return (self.ts, self.tw)

    def contention_domains(self, a: int, b: int) -> tuple:
        """Shared resources a message between ``a`` and ``b`` occupies.

        The paper's model is contention-free (empty tuple).  The
        cluster-of-SMPs model returns the two node NICs for inter-node
        messages, which then serialize through them — the effect that
        makes hierarchical collectives win on real SMP clusters.
        """
        return ()

    def with_(self, **kw) -> "MachineParams":
        return replace(self, **kw)


#: MPICH-1-era message-passing network similar to the paper's Parsytec:
#: start-up dominates per-word cost by ~2 orders of magnitude.
PARSYTEC_LIKE = MachineParams(p=64, ts=600.0, tw=2.0, m=1024)
#: A low-latency shared-memory-like machine (rules trading ts for ops lose).
LOW_LATENCY = MachineParams(p=64, ts=4.0, tw=0.5, m=1024)
#: An extreme WAN/cluster-of-clusters regime (start-up utterly dominates).
HIGH_LATENCY = MachineParams(p=64, ts=50000.0, tw=10.0, m=1024)


# ---------------------------------------------------------------------------
# Pipelined large-message transfers (Lowery & Langou, arXiv:1310.4645)
# ---------------------------------------------------------------------------


def pipelined_transfer_cost(params: MachineParams, words: float,
                            chunks: int, depth: int = 2) -> float:
    """Model time of a ``words``-word message split into ``chunks`` pieces.

    A message travelling through a ``depth``-stage pipeline (sender write
    and receiver read give ``depth=2``; a ``d``-deep broadcast/reduction
    tree gives ``depth=d+1``) completes in

        ``(chunks + depth - 1) * (ts + (words/chunks) * tw)``

    — the classic pipelining trade-off analysed by Lowery & Langou for
    pipelined-reduction crossovers: more chunks pay more start-ups but
    overlap more of the per-word time across stages.  ``chunks=1``
    degenerates to ``depth`` sequential full-message hops.
    """
    if chunks < 1:
        raise ValueError("need at least one chunk")
    if depth < 1:
        raise ValueError("need at least one pipeline stage")
    return (chunks + depth - 1) * (params.ts + (words / chunks) * params.tw)


def pipeline_chunk_count(params: MachineParams, words: float,
                         depth: int = 2) -> int:
    """Cost-optimal number of chunks for a pipelined ``words``-word message.

    Minimizing :func:`pipelined_transfer_cost` over the chunk count
    ``n`` — ``T(n) = n*ts + words*tw + (depth-1)*(ts + words*tw/n)`` —
    gives the crossover

        ``n* = sqrt((depth-1) * words * tw / ts)``

    (Lowery & Langou): chunking only pays once the per-word volume
    ``words*tw`` exceeds the start-up ``ts``, and the optimum grows with
    the square root of the message size.  The result is clamped to
    ``[1, words]`` and rounded to the cheaper neighbouring integer; a
    free start-up (``ts == 0``) means maximal chunking.
    """
    if depth < 2 or words <= 1 or params.tw == 0.0:
        return 1  # nothing downstream to overlap with, or transfers free
    max_chunks = max(int(words), 1)
    if params.ts == 0.0:
        return max_chunks
    opt = math.sqrt((depth - 1) * words * params.tw / params.ts)
    lo = max(1, min(max_chunks, int(opt)))
    hi = max(1, min(max_chunks, lo + 1))
    return min((lo, hi), key=lambda n: pipelined_transfer_cost(
        params, words, n, depth))


# ---------------------------------------------------------------------------
# Generic stage costing
# ---------------------------------------------------------------------------


def _facet(stage: Any, name: str) -> Callable:
    """``stage``'s facet method ``name``; an object that is no stage at
    all is a ``TypeError`` (a stage *class* lacking the facet raises
    :class:`~repro.core.stages.StageFacetError` from the default)."""
    try:
        return getattr(stage, name)
    except AttributeError:
        raise TypeError(
            f"{type(stage).__name__} object is not a stage: it has no "
            f"{name!r} facet") from None


def stage_rounds(stage: Stage, params: MachineParams) -> int:
    """Number of communication rounds (synchronous phases) of one stage.

    This is the stage's *fault surface*: every round is one opportunity
    for a link fault or a crash to hit the schedule.  Local stages have
    zero rounds; the butterfly/binomial collectives have ``ceil(log2 p)``;
    the ring allgather and the scatter/gather trees pay their full phase
    counts.  The resilience-aware replanner charges
    ``params.round_penalty`` per round, which is exactly what makes the
    rule-fused forms (fewer collectives, hence fewer rounds) win after a
    quarantine.
    """
    return _facet(stage, "rounds")(params.p)


def program_rounds(program: Program | Iterable[Stage],
                   params: MachineParams) -> int:
    """Total communication rounds of a program (its fault surface)."""
    return sum(stage_rounds(s, params) for s in program)


def stage_cost(stage: Stage, params: MachineParams) -> float:
    """Time of one stage under the butterfly cost model.

    Local ``map`` stages cost ``m * ops_per_element`` (no ``log p`` factor);
    every collective costs ``log p * (ts + m * (words*tw + ops))`` with the
    stage-specific per-element word volume and operation count.  A nonzero
    ``params.round_penalty`` additionally charges every communication
    round (:func:`stage_rounds`) — the resilience term the recovery
    runtime uses; it is exactly zero-cost at the default ``0.0``.
    """
    if params.round_penalty:
        return (_facet(stage, "cost")(params)
                + params.round_penalty * stage_rounds(stage, params))
    return _facet(stage, "cost")(params)


def program_cost(program: Program | Iterable[Stage], params: MachineParams) -> float:
    """Total model time of a program (sum of stage costs)."""
    return sum(stage_cost(s, params) for s in program)


# ---------------------------------------------------------------------------
# Bandwidth-optimal collective vocabulary (reduce_scatter / allgatherv)
# ---------------------------------------------------------------------------
#
# These costs carry (1 - 1/p) volume factors, which the per-log-p
# CostFormula shape of Table 1 cannot express — so they live as exact
# closed forms here, shared by the two stages' ``cost`` facets, the decomposition
# rewrite rules' improvement predicates, the golden cost tests, and the
# crossover benchmark.  Irregular ``counts`` redistribute the same total
# volume, so the balanced forms price the v-variants too.


def reduce_scatter_cost(params: MachineParams, op) -> float:
    """Model time of ``reduce_scatter (op)`` on an ``m``-element block.

    Commutative operators use recursive halving — exchanged volumes
    ``m/2 + m/4 + ... = m*(1 - 1/p)`` words and as many combines over
    ``log p`` start-ups.  Non-power-of-two machines fold the excess
    ranks into a power-of-two core first (one full-block exchange +
    combine) and unfold one balanced segment afterwards.  Merely
    associative operators must combine in rank order, so they pay a
    rank-ordered binomial reduce plus a binomial scatterv instead.
    """
    p, ts, tw, m = params.p, params.ts, params.tw, params.m
    if p <= 1:
        return 0.0
    w, c = op.width, op.op_count
    if not op.commutative:
        # reduce (full blocks every phase) + scatterv (halving volumes)
        reduce_t = params.log_p * (ts + m * (w * tw + c))
        phases = (p - 1).bit_length()
        return reduce_t + phases * ts + m * w * tw * (1.0 - 1.0 / p)
    if p & (p - 1) == 0:
        frac = 1.0 - 1.0 / p
        return params.log_p * ts + m * frac * (w * tw + c)
    core = 1 << (p.bit_length() - 1)  # largest power of two <= p
    fold = ts + m * (w * tw + c)                    # pairwise pre-combine
    halving = (p.bit_length() - 1) * ts + m * (1.0 - 1.0 / core) * (w * tw + c)
    unfold = ts + (m / p) * w * tw                  # ship the partner's segment
    return fold + halving + unfold


def ring_slots(p: int) -> int:
    """Communication slots of a ``p``-rank ring allgather: ``p - 1``
    rounds, each needing two slots on synchronous (rendezvous) links —
    plus one extra slot per round pair on odd rings (odd cycles are not
    2-edge-colorable)."""
    return 2 * (p - 1) if p % 2 == 0 else 2 * p


def allgatherv_cost(params: MachineParams, width: int = 1) -> float:
    """Model time of ``allgatherv`` re-assembling an ``m``-element block.

    Power-of-two machines use recursive doubling over the segments:
    received volumes ``m/p + 2m/p + ... = m*(1 - 1/p)`` words in
    ``log p`` start-ups.  Otherwise a segment ring: the :class:`AllGatherStage`
    slot accounting (rendezvous links are half-duplex pairs; odd cycles
    need one extra slot per round pair) with ``m/p``-word segments.
    """
    p, ts, tw, m = params.p, params.ts, params.tw, params.m
    if p <= 1:
        return 0.0
    if p & (p - 1) == 0:
        return params.log_p * ts + m * width * tw * (1.0 - 1.0 / p)
    return ring_slots(p) * (ts + (m / p) * width * tw)


def decomposed_allreduce_cost(params: MachineParams, op) -> float:
    """Model time of ``reduce_scatter(op) ; allgatherv`` — the measured

        ``2·log p·ts + 2·m·tw·(1 − 1/p) + m·(1 − 1/p)``

    form (at ``width = op_count = 1`` on power-of-two machines), to be
    compared against the butterfly's ``log p·(ts + m·(tw + 1))``:
    butterfly wins the latency regime (small ``m``), the decomposition
    wins the bandwidth regime (large ``m``).
    """
    return (reduce_scatter_cost(params, op)
            + allgatherv_cost(params, op.width))


# ---------------------------------------------------------------------------
# Symbolic cost formulas (Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostFormula:
    """A symbolic per-``log p`` cost ``a*ts + m*(b*tw + c)``.

    Exact-arithmetic (Fraction) coefficients so Table 1 is regenerated
    literally.  Formulas add; subtracting gives the improvement margin.
    """

    a: Fraction  # coefficient of ts
    b: Fraction  # coefficient of m*tw
    c: Fraction  # coefficient of m (computation)

    @staticmethod
    def of(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> "CostFormula":
        return CostFormula(Fraction(a), Fraction(b), Fraction(c))

    def __add__(self, other: "CostFormula") -> "CostFormula":
        return CostFormula(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "CostFormula") -> "CostFormula":
        return CostFormula(self.a - other.a, self.b - other.b, self.c - other.c)

    def evaluate(self, params: MachineParams) -> float:
        """Numeric value including the ``log p`` factor."""
        return params.log_p * (
            float(self.a) * params.ts
            + params.m * (float(self.b) * params.tw + float(self.c))
        )

    def per_log_p(self, params: MachineParams) -> float:
        """Numeric value of the bracket only (Table 1 omits ``log p``)."""
        return (
            float(self.a) * params.ts
            + params.m * (float(self.b) * params.tw + float(self.c))
        )

    def is_positive(self, params: MachineParams) -> bool:
        """Strictly positive at these parameters (for improvement margins)?"""
        return self.per_log_p(params) > 0

    def always_positive(self) -> bool:
        """Positive for *every* ts>0, tw>=0, m>=1 — Table 1's "always"."""
        return self.a >= 0 and self.b >= 0 and self.c >= 0 and (
            self.a > 0 or self.b > 0 or self.c > 0
        )

    def pretty(self) -> str:
        """Render like the paper: ``2ts + m*(2tw + 3)``."""

        def coef(x: Fraction, sym: str) -> str:
            if x == 0:
                return ""
            if x == 1:
                return sym
            if x.denominator == 1:
                return f"{x.numerator}{sym}"
            return f"({x}){sym}"

        ts_part = coef(self.a, "ts")
        inner = []
        if self.b:
            inner.append(coef(self.b, "tw"))
        if self.c:
            inner.append(str(self.c) if self.c.denominator == 1 else f"({self.c})")
        m_part = f"m*({' + '.join(inner)})" if inner else ""
        parts = [x for x in (ts_part, m_part) if x]
        return " + ".join(parts) if parts else "0"


def bcast_formula() -> CostFormula:
    """Paper eq. (15): ``log p * (ts + m*tw)``."""
    return CostFormula.of(1, 1, 0)


def reduce_formula(op_count: int = 1, width: int = 1) -> CostFormula:
    """Paper eq. (16) generalized to wide/composite operators."""
    return CostFormula.of(1, width, op_count)


def scan_formula(op_count: int = 1, width: int = 1) -> CostFormula:
    """Paper eq. (17) generalized: two operator applications per phase."""
    return CostFormula.of(1, width, 2 * op_count)


# ---------------------------------------------------------------------------
# Symbolic program costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicCost:
    """A full symbolic program cost: ``log p * (a*ts + m*(b*tw + c)) + d*m``.

    The ``log p`` part is a :class:`CostFormula`; ``local`` collects the
    per-element work of local map stages, which the butterfly model does
    not multiply by ``log p``.  Evaluation agrees exactly with
    :func:`program_cost`.
    """

    collective: CostFormula
    local: Fraction  # coefficient of m (no log p factor)

    def __add__(self, other: "SymbolicCost") -> "SymbolicCost":
        return SymbolicCost(self.collective + other.collective,
                            self.local + other.local)

    def __sub__(self, other: "SymbolicCost") -> "SymbolicCost":
        return SymbolicCost(self.collective - other.collective,
                            self.local - other.local)

    def evaluate(self, params: MachineParams) -> float:
        return self.collective.evaluate(params) + float(self.local) * params.m

    def pretty(self) -> str:
        parts = []
        coll = self.collective.pretty()
        if coll != "0":
            parts.append(f"log p * ({coll})")
        if self.local:
            loc = (f"{self.local.numerator}m" if self.local.denominator == 1
                   else f"({self.local})m")
            parts.append(loc)
        return " + ".join(parts) if parts else "0"


def stage_formula(stage: Stage) -> SymbolicCost:
    """Symbolic cost of one stage (exact-arithmetic coefficients)."""
    return _facet(stage, "formula")()


def program_formula(program: Program | Iterable[Stage]) -> SymbolicCost:
    """Symbolic total cost of a program; evaluates to :func:`program_cost`."""
    total = SymbolicCost(CostFormula.of(0, 0, 0), Fraction(0))
    for stage in program:
        total = total + stage_formula(stage)
    return total
