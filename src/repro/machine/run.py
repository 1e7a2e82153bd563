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

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.cost import MachineParams
from repro.faults import FaultPlan
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
    allgather_doubling,
    allgather_ring,
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
    scan_butterfly,
)
from repro.machine.engine import SimResult, run_spmd
from repro.machine.primitives import RankContext
from repro.semantics.functional import UNDEF

__all__ = ["simulate_program", "execute_stage", "stage_breakdown", "StageTiming"]


def execute_stage(ctx: RankContext, stage: Stage, x: Any):
    """One stage of SPMD execution on rank ``ctx.rank`` (generator)."""
    m = ctx.params.m

    if isinstance(stage, MapStage):
        yield from ctx.compute(stage.ops_per_element * m)
        return UNDEF if x is UNDEF else stage.fn(x)

    if isinstance(stage, MapIndexedStage):
        yield from ctx.compute(stage.ops_per_element * m)
        return UNDEF if x is UNDEF else stage.fn(ctx.rank, x)

    if isinstance(stage, Map2Stage):
        yield from ctx.compute(stage.ops_per_element * m)
        if x is UNDEF:
            return UNDEF
        y = stage.other[ctx.rank]
        if stage.indexed:
            return stage.fn(ctx.rank, x, y)
        return stage.fn(x, y)

    if isinstance(stage, BcastStage):
        value = yield from bcast_binomial(ctx, x, root=0, width=1)
        return value

    if isinstance(stage, AllGatherStage):
        if ctx.size & (ctx.size - 1) == 0:
            value = yield from allgather_doubling(ctx, x, width=stage.width)
        else:
            value = yield from allgather_ring(ctx, x, width=stage.width)
        return tuple(value)

    if isinstance(stage, ScatterStage):
        value = yield from scatter_binomial(ctx, x, width=stage.width)
        return value

    if isinstance(stage, GatherStage):
        value = yield from gather_binomial(ctx, x, width=stage.width)
        return value if value is UNDEF else tuple(value)

    if isinstance(stage, ScanStage):
        value = yield from scan_butterfly(ctx, x, stage.op)
        return value

    if isinstance(stage, ReduceStage):
        value = yield from reduce_binomial(ctx, x, stage.op)
        return value

    if isinstance(stage, AllReduceStage):
        value = yield from allreduce_butterfly(ctx, x, stage.op)
        return value

    if isinstance(stage, ReduceScatterStage):
        value = yield from reduce_scatter_machine(ctx, x, stage.op,
                                                  stage.counts)
        return value

    if isinstance(stage, AllGatherVStage):
        value = yield from allgatherv_machine(ctx, x, stage.counts,
                                              stage.width)
        return value

    if isinstance(stage, BalancedReduceStage):
        if stage.to_all:
            value = yield from allreduce_balanced_machine(ctx, x, stage.tree_op)
        else:
            value = yield from reduce_balanced_tree(ctx, x, stage.tree_op)
        return value

    if isinstance(stage, BalancedScanStage):
        value = yield from scan_balanced_butterfly_entry(ctx, x, stage)
        return value

    if isinstance(stage, ComcastStage):
        if stage.impl == "repeat":
            value = yield from comcast_bcast_repeat(ctx, x, stage.comcast_op)
        else:
            value = yield from comcast_doubling(ctx, x, stage.comcast_op)
        return value

    if isinstance(stage, IterStage):
        op = stage.iter_op
        p = ctx.size
        if ctx.rank == 0:
            if x is UNDEF:
                value = UNDEF  # degraded input: nothing to iterate on
            elif stage.general or (p & (p - 1)):
                steps = max(p - 1, 0).bit_length()
                yield from ctx.compute(steps * op.op_count * m)
                value = op.compute_general(p, x)
            else:
                steps = p.bit_length() - 1
                yield from ctx.compute(steps * op.op_count * m)
                value = op.compute(p, x)
        else:
            value = UNDEF
        if stage.then_bcast:
            value = yield from bcast_binomial(ctx, value, root=0, width=1)
        return value

    raise TypeError(f"no machine implementation for stage {stage!r}")


def scan_balanced_butterfly_entry(ctx: RankContext, x: Any, stage: BalancedScanStage):
    from repro.machine.collectives import scan_balanced_butterfly

    value = yield from scan_balanced_butterfly(ctx, x, stage.bfly_op)
    return value


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
    stages on definedness tokens; otherwise the checked kernels are
    swapped for raw ones (not for ``comcast``/``iter``, which have no
    raw form), and anything unproven runs the checked kernels.  Every cost annotation is preserved on every rung, so
    simulated time, clocks and statistics are bit-identical to
    ``vectorize=True`` — JIT changes wall-clock only — and
    overflow/unsupported cases fall back exactly like ``vectorize=True``
    (the ladder is tabulated in ``docs/PERFORMANCE.md``).

    ``engine`` selects the execution machinery — results, simulated
    clocks and statistics are identical across all three (the conformance
    harness checks this):

    * ``"cooperative"`` (default) — all ranks as coroutines in one
      discrete-event loop (deterministic, cheapest, full timelines);
    * ``"threaded"`` — one OS thread per rank, blocking rendezvous;
    * ``"process"`` — one OS *process* per rank, payloads through
      shared-memory rings (:mod:`repro.parallel`); real parallelism for
      GIL-bound workloads, degrading to ``"threaded"`` with a logged
      notice where the platform cannot support it.
    """
    if engine == "threaded":
        from repro.mpi.threaded import simulate_program_threaded

        return simulate_program_threaded(program, inputs, params,
                                         faults=faults, vectorize=vectorize,
                                         jit=jit)
    if engine == "process":
        from repro.parallel import simulate_program_process

        # the process backend has no JIT ladder; its vectorized
        # path honors the same results contract (JIT is a wall-clock
        # optimization, so downgrading is always sound)
        return simulate_program_process(program, inputs, params,
                                        faults=faults,
                                        vectorize=vectorize or jit)
    if engine != "cooperative":
        raise ValueError(f"unknown engine {engine!r} (expected 'cooperative',"
                         f" 'threaded', or 'process')")
    if jit or vectorize:
        from repro.jit import run_engine_ladder

        result = run_engine_ladder(
            lambda prog, xs: simulate_program(prog, xs, params, faults=faults),
            program, inputs, params, faults, jit)
        if result is not None:
            return result
        # no kernel rung applies: the exact object-mode run below

    def rank_fn(ctx: RankContext, x: Any):
        for stage in program.stages:
            x = yield from execute_stage(ctx, stage, x)
        return x

    return run_spmd(rank_fn, inputs, params, faults=faults)


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

    def rank_fn(ctx: RankContext, x: Any):
        for idx, stage in enumerate(program.stages):
            x = yield from execute_stage(ctx, stage, x)
            yield from ctx.probe(idx)
        return x

    result = run_spmd(rank_fn, inputs, params, faults=faults)
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
