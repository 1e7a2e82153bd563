"""Multi-backend differential oracle with counterexample shrinking.

One generated program is executed on every available substrate:

* ``functional`` — the reference semantics (``Program.run``), the paper's
  specification;
* ``machine``    — the discrete-event SPMD engine
  (:func:`repro.machine.run.simulate_program`);
* ``threaded``   — the same, one blocking thread per rank
  (``simulate_program(engine="threaded")``);
* ``codegen``    — the emitted mpi4py script executed against the fake
  MPI module (:func:`repro.codegen.simulated_backend.run_generated`);
* ``vectorized`` — the NumPy block-kernel evaluator
  (:func:`repro.kernels.run_vectorized`), which lowers blocks to arrays
  and operators to whole-block kernels;
* ``process``    — the same, one process per rank over shared memory
  (``simulate_program(engine="process")``), which moves every payload
  across real address-space boundaries;
* ``jit``        — the whole-program JIT tier (:func:`repro.jit.run_jit`),
  which compiles fused plans into single raw-ufunc segment kernels with
  overflow guards hoisted to one static range check.

All outputs must agree modulo undefined blocks (:func:`defined_equal`).
The codegen backend normalizes mpi4py's ``None``-off-root convention to
:data:`UNDEF` and is *skipped* (not failed) for programs it cannot
express — balanced collectives, iter stages, unregistered operators.
The vectorized and jit backends are likewise skipped for domains without
an array representation (list concatenation, segmented pairs); integer
overflow is *not* a skip — the kernels detect it and replay in exact
object mode, and the oracle checks the result like any other.  The process backend is
skipped where real rank processes cannot run (no ``fork``/shared
memory) — on such platforms it would silently degrade to the threaded
engine, which is already a separate backend here.

On disagreement, :func:`shrink_counterexample` greedily minimizes the
failing case: drop stages, halve the machine, simplify block values —
while re-checking that the (possibly different) disagreement persists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.codegen import CodegenError, generate_mpi4py
from repro.codegen.simulated_backend import run_generated
from repro.core.cost import MachineParams
from repro.core.stages import Program
from repro.kernels import KernelUnsupported, run_vectorized
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, defined_equal
from repro.testing.generator import GeneratedProgram

__all__ = [
    "BACKENDS",
    "SKIPPED",
    "BackendMismatch",
    "run_backend",
    "differential_check",
    "shrink_counterexample",
]

BACKENDS: tuple[str, ...] = (
    "functional", "machine", "threaded", "codegen", "vectorized", "process",
    "jit",
)

#: sentinel for "this backend cannot express the program" (not a failure)
SKIPPED = object()


def _normalize_codegen(values: Sequence[Any]) -> list[Any]:
    """Map mpi4py's off-root ``None`` convention onto :data:`UNDEF`."""
    return [UNDEF if v is None else v for v in values]


def run_backend(name: str, gp: GeneratedProgram, xs: Sequence[Any],
                params: MachineParams) -> Any:
    """Run one backend; returns the distributed output list or ``SKIPPED``."""
    program = gp.program
    if name == "functional":
        return program.run(list(xs))
    if name == "machine":
        return list(simulate_program(program, list(xs), params).values)
    if name == "threaded":
        return list(simulate_program(program, list(xs), params,
                                     engine="threaded").values)
    if name == "codegen":
        try:
            src = generate_mpi4py(program, p_hint=len(xs))
        except CodegenError:
            return SKIPPED
        result = run_generated(src, list(xs), params, functions=dict(gp.functions))
        return _normalize_codegen(result.values)
    if name == "vectorized":
        try:
            return run_vectorized(program, list(xs), strict=True)
        except KernelUnsupported:
            return SKIPPED
    if name == "jit":
        from repro.jit import run_jit

        try:
            return run_jit(program, list(xs), strict=True)
        except KernelUnsupported:
            return SKIPPED
    if name == "process":
        from repro.parallel import process_fallback_reason

        if process_fallback_reason(len(xs)) is not None:
            return SKIPPED
        return list(simulate_program(program, list(xs), params,
                                     engine="process").values)
    raise ValueError(f"unknown backend {name!r}")


@dataclass(frozen=True)
class BackendMismatch:
    """Two backends disagreed on one input (pre- and post-shrinking)."""

    program_pretty: str
    inputs: tuple[Any, ...]
    outputs: dict[str, tuple[Any, ...]]
    disagreeing: tuple[str, str]

    def describe(self) -> str:
        a, b = self.disagreeing
        lines = [
            f"program  : {self.program_pretty}",
            f"inputs   : {list(self.inputs)}  (p={len(self.inputs)})",
        ]
        for name, out in self.outputs.items():
            marker = "  <-- disagrees" if name in (a, b) else ""
            lines.append(f"{name:<11}: {list(out)}{marker}")
        return "\n".join(lines)


def differential_check(gp: GeneratedProgram, xs: Sequence[Any],
                       params: MachineParams,
                       backends: Sequence[str] = BACKENDS) -> BackendMismatch | None:
    """Run every backend and compare against the functional reference.

    Returns ``None`` on agreement, otherwise the first mismatch found.
    The functional evaluator is the specification; every other backend is
    compared against it (and thereby transitively against the others).
    """
    outputs: dict[str, list[Any]] = {}
    for name in backends:
        out = run_backend(name, gp, xs, params)
        if out is SKIPPED:
            continue
        outputs[name] = out
    reference = outputs.get("functional")
    if reference is None:  # pragma: no cover - functional always runs
        reference = next(iter(outputs.values()))
    for name, out in outputs.items():
        if not defined_equal(reference, out):
            return BackendMismatch(
                program_pretty=gp.program.pretty(),
                inputs=tuple(xs),
                outputs={k: tuple(v) for k, v in outputs.items()},
                disagreeing=("functional", name),
            )
    return None


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _simpler_values(v: Any) -> list[Any]:
    """Candidate simplifications of one block value, simplest first."""
    out: list[Any] = []
    if isinstance(v, bool):  # before int: bool is an int subclass
        if v:
            out.append(False)
    elif isinstance(v, int):
        if v != 0:  # zero is already minimal; never move away from it
            for cand in (0, v // 2, v - 1 if v > 0 else v + 1):
                if cand != v:
                    out.append(cand)
    elif isinstance(v, float):
        if v != 0.0:
            out.extend([0.0, v / 2.0])
    elif isinstance(v, tuple):
        if v:
            out.append(v[:1])
            out.append(())
            # simplify components of short tuples (seg pairs, small lists)
            for i, comp in enumerate(v):
                for simpler in _simpler_values(comp):
                    out.append(v[:i] + (simpler,) + v[i + 1:])
    seen, uniq = set(), []
    for cand in out:
        key = repr(cand)
        if key not in seen and cand != v:
            seen.add(key)
            uniq.append(cand)
    return uniq


def shrink_counterexample(
    program: Program,
    xs: Sequence[Any],
    still_fails: Callable[[Program, list[Any]], bool],
    max_rounds: int = 100,
) -> tuple[Program, list[Any]]:
    """Greedily minimize a failing (program, inputs) pair.

    ``still_fails`` re-runs the oracle on a candidate; candidates that
    raise are treated as not failing (an invalid program is not a smaller
    counterexample).  Each round tries, in order: removing one stage,
    shrinking the machine, simplifying one block value; the first
    successful reduction restarts the round.  Terminates at a fixpoint.
    """

    def fails(prog: Program, values: list[Any]) -> bool:
        if len(prog.stages) == 0 or len(values) == 0:
            return False
        try:
            return bool(still_fails(prog, values))
        except Exception:
            return False

    def try_shrink_once(prog: Program, values: list[Any]):
        # 1. drop a stage
        for i in range(len(prog.stages)):
            cand = Program(prog.stages[:i] + prog.stages[i + 1:],
                           name=prog.name)
            if fails(cand, values):
                return cand, values
        # 2. shrink the machine
        for cand_xs in (values[: len(values) // 2], values[:-1]):
            if cand_xs and fails(prog, list(cand_xs)):
                return prog, list(cand_xs)
        # 3. simplify one value
        for i, v in enumerate(values):
            for simpler in _simpler_values(v):
                cand_xs = values[:i] + [simpler] + values[i + 1:]
                if fails(prog, cand_xs):
                    return prog, cand_xs
        return None

    cur_prog, cur_xs = program, list(xs)
    for _ in range(max_rounds):
        shrunk = try_shrink_once(cur_prog, cur_xs)
        if shrunk is None:
            break  # fixpoint: nothing shrank
        cur_prog, cur_xs = shrunk
    return cur_prog, cur_xs
