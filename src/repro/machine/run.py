"""Running stage Programs on the simulated machine.

:func:`simulate_program` compiles every stage of a
:class:`repro.core.stages.Program` to the corresponding SPMD collective
algorithm, runs all ranks on the discrete-event engine, and returns the
final distributed list together with the simulated time.

The result is checked against the reference semantics in the test suite,
and the simulated times are checked against the closed-form cost model —
the two pillars the paper's Table 1 stands on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams
from repro.core.store import BoundedStore
from repro.faults import FaultPlan
from repro.obs import span
from repro.core.stages import (
    AllGatherStage,
    AllGatherVStage,
    AllReduceStage,
    GatherStage,
    ReduceScatterStage,
    ScatterStage,
    BalancedReduceStage,
    BalancedScanStage,
    BcastStage,
    ComcastStage,
    IterStage,
    Map2Stage,
    MapIndexedStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.machine.collectives import (
    allgather_machine,
    allgatherv_machine,
    gather_binomial,
    reduce_scatter_machine,
    scatter_binomial,
    allreduce_balanced_machine,
    allreduce_butterfly,
    bcast_binomial,
    comcast_bcast_repeat,
    comcast_doubling,
    reduce_balanced_tree,
    reduce_binomial,
    scan_balanced_butterfly,
    scan_butterfly,
)
from repro.machine.engine import SimResult, SimStats, run_spmd
from repro.machine.rendezvous import ENGINES
from repro.machine.primitives import RankContext
from repro.semantics.functional import UNDEF, defined_equal

__all__ = ["simulate_program", "execute_stage", "stage_breakdown", "StageTiming",
           "rank_program", "run_ranks",
           "resident_run", "resident_schedule", "DEFINED"]


def _map(ctx: RankContext, stage: MapStage, x: Any):
    yield from ctx.compute(stage.ops_per_element * ctx.params.m)
    return UNDEF if x is UNDEF else stage.fn(x)


def _map_indexed(ctx: RankContext, stage: MapIndexedStage, x: Any):
    yield from ctx.compute(stage.ops_per_element * ctx.params.m)
    return UNDEF if x is UNDEF else stage.fn(ctx.rank, x)


def _map2(ctx: RankContext, stage: Map2Stage, x: Any):
    yield from ctx.compute(stage.ops_per_element * ctx.params.m)
    if x is UNDEF:
        return UNDEF
    y = stage.other[ctx.rank]
    return stage.fn(ctx.rank, x, y) if stage.indexed else stage.fn(x, y)


def _allgather(ctx: RankContext, stage: AllGatherStage, x: Any):
    return tuple((yield from allgather_machine(ctx, x, width=stage.width)))


def _gather(ctx: RankContext, stage: GatherStage, x: Any):
    value = yield from gather_binomial(ctx, x, width=stage.width)
    return value if value is UNDEF else tuple(value)


def _iter(ctx: RankContext, stage: IterStage, x: Any):
    op, p = stage.iter_op, ctx.size
    value = UNDEF  # off the root, or a degraded input: nothing to iterate on
    if ctx.rank == 0 and x is not UNDEF:
        general = stage.general or bool(p & (p - 1))
        steps = max(p - 1, 0).bit_length() if general else p.bit_length() - 1
        yield from ctx.compute(steps * op.op_count * ctx.params.m)
        value = op.compute_general(p, x) if general else op.compute(p, x)
    if stage.then_bcast:
        value = yield from bcast_binomial(ctx, value, root=0, width=1)
    return value


#: stage class -> its SPMD algorithm, a generator function of
#: ``(ctx, stage, x)``; the algorithm selection a stage implies (ring or
#: doubling, tree or butterfly, repeat or doubling) is part of the entry
_MACHINE: dict[type, Callable[[RankContext, Any, Any], Any]] = {
    MapStage: _map,
    MapIndexedStage: _map_indexed,
    Map2Stage: _map2,
    BcastStage: lambda ctx, stage, x: bcast_binomial(ctx, x, root=0, width=1),
    AllGatherStage: _allgather,
    ScatterStage: lambda ctx, stage, x: scatter_binomial(ctx, x, width=stage.width),
    GatherStage: _gather,
    ScanStage: lambda ctx, stage, x: scan_butterfly(ctx, x, stage.op),
    ReduceStage: lambda ctx, stage, x: reduce_binomial(ctx, x, stage.op),
    AllReduceStage: lambda ctx, stage, x: allreduce_butterfly(ctx, x, stage.op),
    ReduceScatterStage: lambda ctx, stage, x: reduce_scatter_machine(
        ctx, x, stage.op, stage.counts),
    AllGatherVStage: lambda ctx, stage, x: allgatherv_machine(
        ctx, x, stage.counts, stage.width),
    BalancedReduceStage: lambda ctx, stage, x: (
        allreduce_balanced_machine if stage.to_all else reduce_balanced_tree)(
            ctx, x, stage.tree_op),
    BalancedScanStage: lambda ctx, stage, x: scan_balanced_butterfly(
        ctx, x, stage.bfly_op),
    ComcastStage: lambda ctx, stage, x: (
        comcast_bcast_repeat if stage.impl == "repeat" else comcast_doubling)(
            ctx, x, stage.comcast_op),
    IterStage: _iter,
}


def execute_stage(ctx: RankContext, stage: Stage, x: Any):
    """One stage of SPMD execution on rank ``ctx.rank``: the generator of
    the stage class's entry in the machine table."""
    try:
        algorithm = _MACHINE[type(stage)]
    except KeyError:
        raise TypeError(f"no machine implementation for stage {stage!r}") from None
    return algorithm(ctx, stage, x)


def simulate_program(
    program: Program, inputs: Sequence[Any], params: MachineParams,
    faults: FaultPlan | None = None, vectorize: bool = False,
    jit: bool = False, engine: str = "cooperative",
) -> SimResult:
    """Simulate ``program`` on ``len(inputs)`` processors.

    The number of processors is taken from ``inputs``; ``params.p`` is
    ignored for placement but its ``ts``/``tw``/``m`` drive the timing.
    ``faults`` (optional) injects a deterministic fault plan; see
    ``docs/FAULTS.md``.

    ``vectorize=True`` runs each rank's local stages as whole-block NumPy
    kernels (:mod:`repro.kernels`): local stages are fused, operators are
    lowered, and block values travel as arrays.  Simulated time is
    unchanged (the cost model charges the same abstract operations);
    results are devectorized, so they compare equal to the object-mode
    run.  Programs or inputs without a kernel lowering — and runs hitting
    a checked integer overflow — automatically fall back to the exact
    object-mode simulation.

    ``jit=True`` lets :func:`repro.jit.engine_lower` pick the cheapest
    exact way to run: on defined int64 blocks it proves overflow-free
    (the static range check hoisted out of every combine) the values
    come from the fused whole-program kernels — the planner's
    ``comcast``/``iter`` stages included, compiled through the
    pipelines they are defined by — while the engine schedules the same
    stages on definedness tokens; otherwise — float blocks, an unproven
    hull, a fault plan — the engine carries the blocks through the
    checked kernels.  Every cost annotation is preserved on every rung, so
    simulated time, clocks and statistics are bit-identical to
    ``vectorize=True`` — JIT changes wall-clock only — and
    overflow/unsupported cases fall back exactly like ``vectorize=True``
    (the ladder is tabulated in ``docs/PERFORMANCE.md``).

    ``engine`` selects the execution machinery (:data:`ENGINES`).  All
    three run the same collective algorithms over one rendezvous kernel
    (:mod:`repro.machine.rendezvous`), so results, simulated clocks and
    the message / word / operation counts are identical (the conformance
    harness checks this); what each *keeps* of the per-message record
    differs:

    * ``"cooperative"`` (default) — all ranks as coroutines in one
      discrete-event loop (deterministic, cheapest; ``stats.events`` in
      sweep order, probe ``timeline``);
    * ``"threaded"`` — one OS thread per rank, blocking rendezvous; the
      same ``events`` in arrival order;
    * ``"process"`` — one OS *process* per rank, payloads through
      shared-memory rings (:mod:`repro.parallel`); real parallelism for
      GIL-bound workloads, degrading to ``"threaded"`` with a logged
      notice where the platform cannot support it.  Keeps neither
      ``events`` nor ``timeline`` (its counters are shared-memory cells).

    ``vectorize`` / ``jit`` take the same ladder
    (:func:`repro.jit.run_engine_ladder`) on every engine.
    """
    def run(prog: Program, xs: Sequence[Any]) -> SimResult:
        return run_ranks(engine, rank_program(prog.stages), xs, params,
                         faults=faults)

    if jit or vectorize:
        from repro.jit import run_engine_ladder

        if engine == "cooperative":
            # what the fused rung takes in place of a token run of its own
            run.resident = lambda prog, xs, evaluate: resident_run(
                prog, xs, params, evaluate, faults=faults)
        result = run_engine_ladder(run, program, inputs, params, faults, jit)
        if result is not None:
            return result
        # no kernel rung applies: the exact object-mode run below
    return run(program, inputs)


def rank_program(stages: Sequence[Stage], probe: bool = False):
    """The SPMD rank generator function running ``stages`` in order on
    real payloads (``probe`` marks each stage's end on the timeline)."""

    def rank_fn(ctx: RankContext, x: Any):
        for idx, stage in enumerate(stages):
            x = yield from execute_stage(ctx, stage, x)
            if probe:
                yield from ctx.probe(idx)
        return x

    return rank_fn


def run_ranks(engine: str, rank_fn, inputs: Sequence[Any],
              params: MachineParams, **resume: Any) -> SimResult:
    """Run generator ``rank_fn`` on every rank of ``engine``; ``resume``
    is ``faults`` / ``fault_state`` / ``initial_clocks`` as
    :func:`~repro.machine.engine.run_spmd` takes them."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "cooperative":
        return run_spmd(rank_fn, inputs, params, **resume)
    from repro.mpi.threaded import blocking, threaded_spmd_run

    if engine == "threaded":
        return threaded_spmd_run(blocking(rank_fn), inputs, params, **resume)
    from repro.parallel import process_spmd_run

    return process_spmd_run(blocking(rank_fn), inputs, params, **resume)


def _run_cooperative(program: Program, inputs: Sequence[Any],
                     params: MachineParams, faults: FaultPlan | None) -> SimResult:
    """The object-mode run: every stage's machine algorithm on real payloads."""
    return run_spmd(rank_program(program.stages), inputs, params, faults=faults)


# ---------------------------------------------------------------------------
# Resident schedules
# ---------------------------------------------------------------------------

# The machine prices a message by the declared ``m * width`` words and a
# combine by ``op_count * m`` operations — never by block values — so a
# fault-free run's clocks, messages, words, timeline and events are a
# function of (program, params, which inputs are UNDEF).  The latest 256
# such keys keep their engine result, values reduced to the definedness
# pattern and statistics held in tuples.  The store counts nothing:
# :func:`resident_run` returns an outcome and the caller records it in
# the dialect it already has.

#: the one payload of a token run: "this block is defined"
DEFINED = "<defined>"

_SCHEDULES = BoundedStore(256)
_EXACT_LEAVES = frozenset((int, bool))


def _exact(block: Any) -> bool:
    """Python ints and bools inside tuple/list nests: the blocks on which
    every combining order of a declared-associative operator agrees bit
    for bit (a float keeps the order of whoever combined it)."""
    kind = type(block)
    if kind in _EXACT_LEAVES:
        return True
    if kind is tuple or kind is list:
        return set(map(type, block)) <= _EXACT_LEAVES or all(map(_exact, block))
    return False


def _read(blocks: Sequence[Any]) -> tuple[bool, bool, tuple[bool, ...]]:
    """One pass: are all blocks :data:`DEFINED` / ``UNDEF`` tokens, are
    all ``UNDEF`` or :func:`_exact`, and where is ``UNDEF``.  A non-empty
    flat list of Python ints and bools — every served input list and
    every evaluated value tuple — is read from its types alone."""
    if len(blocks) and _EXACT_LEAVES.issuperset(map(type, blocks)):
        return False, True, (False,) * len(blocks)
    tokens = exact = True
    undef_at = []
    for x in blocks:
        undef = x is UNDEF
        undef_at.append(undef)
        if not undef:
            tokens = tokens and x is DEFINED
            exact = exact and _exact(x)
    return tokens, exact, tuple(undef_at)


def _evaluated(evaluate: Callable[[], Sequence[Any]], pattern: tuple[bool, ...],
               tokens: bool) -> tuple[tuple, str]:
    """The evaluator's values, and why a schedule with ``UNDEF`` at
    ``pattern`` cannot carry them ("" when it can)."""
    try:
        values = tuple(evaluate())
    except Exception:  # the engine, which degrades where this raised, decides
        return (), "evaluator-raised"
    _, exact, undef_at = _read(values)
    if undef_at != pattern:
        return values, "schedule-mismatch"
    if not (tokens or exact):
        return values, "inexact-value"
    return values, ""


def resident_schedule(
    program: Program, inputs: Sequence[Any], params: MachineParams,
    faults: FaultPlan | None = None,
) -> tuple[Any, SimResult | None, bool, str]:
    """The lookup :func:`resident_run` makes, as ``(key, entry, tokens,
    why)``: ``entry`` is the resident schedule of ``program`` on blocks
    shaped like ``inputs`` (``None`` when there is none), ``why`` the
    reason the store cannot vouch for such a run ("" when it can).  Hand
    it to :func:`resident_run` as ``lookup`` and the run reads the
    inputs and the store no second time."""
    tokens, exact, undef_at = _read(inputs)
    key = entry = None
    if faults is not None and not faults.is_empty:
        why = "fault-plan"
    elif not (tokens or exact):
        why = "inexact-input"
    else:
        why = ""
        key = (program, params, undef_at)
        try:
            entry = _SCHEDULES.get(key)
        except TypeError:
            why = "unhashable-program"
    return key, entry, tokens, why


def resident_run(
    program: Program, inputs: Sequence[Any], params: MachineParams,
    evaluate: Callable[[], Sequence[Any]], faults: FaultPlan | None = None,
    lookup: tuple[Any, SimResult | None, bool, str] | None = None,
) -> tuple[SimResult, str]:
    """A cooperative run of ``program`` whose values come from ``evaluate``.

    ``evaluate()`` is the caller's exact evaluator of the same program on
    the same blocks: the reference semantics, or the fused kernels when
    ``inputs`` are :data:`DEFINED` tokens (then the engine's values are
    their own definedness pattern and there is nothing to compare).
    Returns ``(result, outcome)``:

    * ``"hit"`` — the schedule was resident: ``evaluate()``'s values,
      ``UNDEF`` where the schedule leaves it, on a fresh copy of the
      stored time and statistics; the engine did not run.
    * ``"miss"`` — the engine ran on ``inputs`` as ever, ``evaluate()``'s
      values were ``defined_equal`` to its own with ``UNDEF`` in the same
      positions, and the schedule was admitted; the values returned are
      the evaluator's, as on every later hit.
    * anything else — the reason the store cannot vouch for this run,
      with the engine's own result, exactly :func:`simulate_program`'s:
      ``"fault-plan"`` (definedness then depends on the schedule; a live
      ``fault_state`` or ``initial_clocks`` only reach :func:`run_spmd`,
      never this function), ``"shape-priced-stage"`` (a stage whose
      ``words_follow_block``), ``"inexact-input"`` / ``"inexact-value"``
      (a leaf going in or coming out that is not a Python int or bool,
      nested ``UNDEF`` included), ``"unhashable-program"``,
      ``"evaluator-raised"`` (the reference semantics raise on an
      ``UNDEF`` the machine degrades through; the engine's result, or
      its own exception, is the answer), ``"schedule-mismatch"`` (the
      evaluator leaves ``UNDEF`` elsewhere than the schedule) and
      ``"values-disagree"`` (at admission).

    ``lookup`` is :func:`resident_schedule`'s answer for these arguments,
    when the caller has already asked it.  The run is the
    ``machine.resident`` span, whose ``outcome`` is the one returned.
    """
    with span("machine.resident") as traced:
        result, outcome = _resident_run(
            program, inputs, params, evaluate, faults,
            lookup or resident_schedule(program, inputs, params, faults))
        traced.outcome = outcome
    return result, outcome


def _resident_run(program, inputs, params, evaluate, faults, lookup):
    """The body of :func:`resident_run`."""
    key, entry, tokens, why = lookup
    if why:
        return _run_cooperative(program, inputs, params, faults), why

    if entry is not None:
        values, why = _evaluated(evaluate, entry.values, tokens)
        if why:
            return _run_cooperative(program, inputs, params, faults), why
        stats = entry.stats
        return SimResult(values, entry.time, SimStats(
            stats.messages, stats.words, stats.compute_ops, stats.clocks,
            list(stats.timeline), list(stats.events))), "hit"

    result = _run_cooperative(program, inputs, params, faults)
    if any(stage.words_follow_block for stage in program.stages):
        return result, "shape-priced-stage"  # never admitted, so never hit
    pattern = _read(result.values)[2]
    values, why = _evaluated(evaluate, pattern, tokens)
    if not (why or tokens or defined_equal(values, result.values)):
        why = "values-disagree"
    if why:
        return result, why
    stats = result.stats
    entry = SimResult(pattern, result.time, replace(
        stats, timeline=tuple(stats.timeline), events=tuple(stats.events)))
    _SCHEDULES.put(key, entry)
    return replace(result, values=values), "miss"


@dataclass(frozen=True)
class StageTiming:
    """Per-stage timing of one simulated program run.

    ``end`` is the maximum clock over all ranks when the last rank left
    the stage; ``duration`` is the increase over the previous stage's
    end.  Durations sum to the program makespan.
    """

    index: int
    pretty: str
    end: float
    duration: float


def stage_breakdown(
    program: Program, inputs: Sequence[Any], params: MachineParams,
    faults: FaultPlan | None = None,
) -> tuple[SimResult, list[StageTiming]]:
    """Simulate with per-stage probes; returns (result, stage timings)."""

    result = run_spmd(rank_program(program.stages, probe=True), inputs,
                      params, faults=faults)
    ends: dict[int, float] = {}
    for _rank, tag, clock in result.stats.timeline:
        ends[tag] = max(ends.get(tag, 0.0), clock)
    timings: list[StageTiming] = []
    prev = 0.0
    for idx, stage in enumerate(program.stages):
        end = ends.get(idx, prev)
        timings.append(StageTiming(index=idx, pretty=stage.pretty(),
                                   end=end, duration=end - prev))
        prev = end
    return result, timings
