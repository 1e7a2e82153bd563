"""Program lowering: fuse local stages, then kernelize every stage.

:func:`vectorize_program` is the whole-program entry point used by the
vectorized evaluator (:mod:`repro.kernels.evaluator`), the engine
ladder's checked rung (``simulate_program(..., jit=True)``) and the
threaded MPI backend.
It first runs the local-stage fusion pass (``map f; map g → map (g∘f)``,
collapsing the ``map pair; collective; map π₁`` sandwiches the rewrite
rules emit into at most one local stage on each side), then rebuilds each
stage around its array kernel (:func:`rebuild_stage`, the walk the JIT's
token program reuses with other leaf functions):

* ``map`` stages get a dispatching function composed from the kernel
  rows of the functions their (fused) parts hold;
* ``scan``/``reduce``/``allreduce`` get a kernelized operator — *required*:
  a base operator without a kernel (``concat``) makes the whole program
  unsupported rather than silently slow or wrong;
* the rule-introduced balanced/comcast/iter stages are rebuilt through
  their original constructors with kernelized component operators, using
  the ``kind``/``parts`` structural metadata recorded at build time
  (:data:`repro.core.derived_ops.DERIVED_KINDS`);
* data-movement stages (``bcast``, ``scatter``, ...) are representation-
  agnostic and pass through unchanged.
"""

from __future__ import annotations

from typing import Callable

from repro.core.operators import BinOp
from repro.core.rewrite import fuse_local_stages
from repro.core.stages import MapStage, Program, Stage
from repro.kernels.blocks import KernelUnsupported
from repro.kernels.registry import kernelize_binop, kernelize_map

__all__ = ["rebuild_stage", "kernelize_stage", "vectorize_program"]


def rebuild_stage(
    stage: Stage,
    map_fn: Callable[[MapStage], Callable],
    binop_fn: Callable[[BinOp], BinOp],
) -> Stage:
    """``stage`` with its map function replaced by ``map_fn(stage)`` and
    every base operator by ``binop_fn(op)`` — the stage class's own
    ``rebuild`` facet, which the kernels (:func:`kernelize_stage`) and the
    JIT's token program share.  Every cost annotation
    (``ops_per_element``, ``op_count``, ``width``) is kept.  Raises
    :class:`KernelUnsupported` for a stage without an array form
    (``map#``/``map2``, a comcast/iter over a hand-made operator)."""
    rebuilt = stage.rebuild(map_fn, binop_fn)
    if rebuilt is None:
        raise KernelUnsupported(f"no lowering for stage {stage.pretty()!r}")
    return rebuilt


def kernelize_stage(stage: Stage) -> Stage:
    """Rebuild one stage around array kernels (or raise KernelUnsupported)."""
    return rebuild_stage(
        stage, lambda st: kernelize_map(st.fn, st.parts), kernelize_binop)


def vectorize_program(program: Program) -> Program:
    """Fuse local stages, then kernelize every stage of ``program``.

    The result has identical semantics on object-mode blocks (every
    kernelized function dispatches on the block representation) and runs
    whole-block array kernels on vectorized blocks.  Raises
    :class:`KernelUnsupported` if any stage cannot be lowered.
    """
    fused = fuse_local_stages(program)
    return Program([kernelize_stage(s) for s in fused.stages], name=program.name)
