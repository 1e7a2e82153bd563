"""Program lowering: fuse local stages, then kernelize every stage.

:func:`vectorize_program` is the whole-program entry point used by the
vectorized evaluator (:mod:`repro.kernels.evaluator`), the machine engine
(``simulate_program(..., vectorize=True)``) and the threaded MPI backend.
It first runs the local-stage fusion pass (``map f; map g → map (g∘f)``,
collapsing the ``map pair; collective; map π₁`` sandwiches the rewrite
rules emit into at most one local stage on each side), then rebuilds each
stage around its array kernel (:func:`rebuild_stage`, the walk the JIT's
raw and token engine forms reuse with other leaf functions):

* ``map`` stages get a dispatching function composed from the per-label
  kernels of their (fused) label;
* ``scan``/``reduce``/``allreduce`` get a kernelized operator — *required*:
  a base operator without a kernel (``concat``) makes the whole program
  unsupported rather than silently slow or wrong;
* the rule-introduced balanced/comcast/iter stages are rebuilt through
  their original constructors with kernelized component operators, using
  the ``kind``/``parts`` structural metadata recorded at build time;
* data-movement stages (``bcast``, ``scatter``, ...) are representation-
  agnostic and pass through unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.derived_ops import (
    SRTreeOp,
    SSButterflyOp,
    bs_comcast_op,
    bss2_comcast_op,
    bss_comcast_op,
    br_iter_op,
    bsr2_iter_op,
    bsr_iter_op,
)
from repro.core.operators import BinOp
from repro.core.rewrite import fuse_local_stages
from repro.core.stages import (
    AllGatherStage,
    AllGatherVStage,
    AllReduceStage,
    BalancedReduceStage,
    BalancedScanStage,
    BcastStage,
    ComcastStage,
    GatherStage,
    IterStage,
    MapStage,
    Program,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
    ScatterStage,
    Stage,
)
from repro.kernels.blocks import KernelUnsupported
from repro.kernels.registry import kernelize_binop, kernelize_map

__all__ = ["rebuild_stage", "kernelize_stage", "vectorize_program"]

_COMCAST_BUILDERS = {
    "bs": bs_comcast_op,
    "bss2": bss2_comcast_op,
    "bss": bss_comcast_op,
}

_ITER_BUILDERS = {
    "br": br_iter_op,
    "bsr2": bsr2_iter_op,
    "bsr": bsr_iter_op,
}

#: the rule-introduced stages rebuilt through their operator's builder
_DERIVED = (
    (ComcastStage, "comcast_op", _COMCAST_BUILDERS),
    (IterStage, "iter_op", _ITER_BUILDERS),
)

#: stages that only move blocks around — valid for any representation
#: (allgatherv concatenates segments, which np.concatenate handles on
#: array blocks — its semantics never applies an operator)
_PASSTHROUGH = (BcastStage, AllGatherStage, AllGatherVStage, ScatterStage,
                GatherStage)


def rebuild_stage(
    stage: Stage,
    map_fn: Callable[[MapStage], Callable],
    binop_fn: Callable[[BinOp], BinOp],
) -> Stage:
    """``stage`` with its map function replaced by ``map_fn(stage)`` and
    every base operator by ``binop_fn(op)`` — the one walk over the stage
    vocabulary that the kernels (:func:`kernelize_stage`) and the JIT's
    raw and token engine forms share.  Every cost annotation
    (``ops_per_element``, ``op_count``, ``width``) is kept.  Raises
    :class:`KernelUnsupported` for a stage it cannot rebuild."""
    if isinstance(stage, MapStage):
        return replace(stage, fn=map_fn(stage))
    if isinstance(stage, (ScanStage, ReduceStage, AllReduceStage,
                          ReduceScatterStage)):
        return replace(stage, op=binop_fn(stage.op))
    if isinstance(stage, _PASSTHROUGH):
        return stage
    if isinstance(stage, BalancedReduceStage):
        return replace(stage, tree_op=SRTreeOp(binop_fn(stage.tree_op.op)))
    if isinstance(stage, BalancedScanStage):
        return replace(stage, bfly_op=SSButterflyOp(binop_fn(stage.bfly_op.op)))
    for cls, attr, builders in _DERIVED:
        if isinstance(stage, cls):
            op = getattr(stage, attr)
            builder = builders.get(op.kind)
            if builder is None:
                raise KernelUnsupported(
                    f"operator {op.name!r} has no structural metadata "
                    "to rebuild from"
                )
            return replace(stage, **{attr: builder(*map(binop_fn, op.parts))})
    raise KernelUnsupported(f"no lowering for stage {stage.pretty()!r}")


def kernelize_stage(stage: Stage) -> Stage:
    """Rebuild one stage around array kernels (or raise KernelUnsupported)."""
    return rebuild_stage(
        stage, lambda st: kernelize_map(st.fn, st.label), kernelize_binop)


def vectorize_program(program: Program) -> Program:
    """Fuse local stages, then kernelize every stage of ``program``.

    The result has identical semantics on object-mode blocks (every
    kernelized function dispatches on the block representation) and runs
    whole-block array kernels on vectorized blocks.  Raises
    :class:`KernelUnsupported` if any stage cannot be lowered.
    """
    fused = fuse_local_stages(program)
    return Program([kernelize_stage(s) for s in fused.stages], name=program.name)
