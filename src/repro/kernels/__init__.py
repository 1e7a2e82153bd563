"""Vectorized block-kernel execution layer.

Lowers the library's operators — semiring BinOps and the composed
pair-operators the rewrite rules build — into whole-block NumPy kernels,
with a program-level local-stage fusion pass and exact fallback to object
mode wherever a kernel does not exist or an integer combine would lose
precision.  A tuple state (the ``op_sr2`` pairs, the comcast triples)
stays a tuple of arrays: the engines move it as they move any value.
See ``docs/PERFORMANCE.md`` for the architecture and for how to register
kernels for user-defined operators.
"""

from repro.kernels.blocks import (
    KernelFallback,
    KernelOverflow,
    KernelUnsupported,
    MAX_SAFE_INT,
    checked_add,
    checked_mul,
    checked_neg,
    devectorize_block,
    elementwise,
    is_vector_block,
    vectorize_block,
)
from repro.kernels.evaluator import (
    PlanStep,
    VectorPlan,
    build_plan,
    run_lowered,
    run_vectorized,
)
from repro.kernels.lowering import kernelize_stage, vectorize_program
from repro.kernels.registry import (
    MapRow,
    Primitive,
    binop_kernel,
    has_binop_kernel,
    kernelize_binop,
    kernelize_map,
    map_kernel,
    primitive,
    register_binop_kernel,
    register_map_kernel,
)

__all__ = [
    "KernelFallback",
    "KernelOverflow",
    "KernelUnsupported",
    "MAX_SAFE_INT",
    "checked_add",
    "checked_mul",
    "checked_neg",
    "devectorize_block",
    "elementwise",
    "is_vector_block",
    "vectorize_block",
    "PlanStep",
    "VectorPlan",
    "build_plan",
    "run_lowered",
    "run_vectorized",
    "kernelize_stage",
    "vectorize_program",
    "Primitive",
    "MapRow",
    "binop_kernel",
    "has_binop_kernel",
    "kernelize_binop",
    "kernelize_map",
    "map_kernel",
    "primitive",
    "register_binop_kernel",
    "register_map_kernel",
]
