"""The JIT compiler: fused vector plans -> composed raw-ufunc kernels.

Input is the same :class:`~repro.kernels.evaluator.VectorPlan` the
vectorized tier executes (``map pair ; reduce(op_sr2) ; map π₁``
sandwiches grouped into fused-collective steps).  Each supported step is
compiled to a closure that runs the *whole local segment* as one unit:

* the combine of a scan/reduce/allreduce is flattened to a **tape** of
  raw ufunc instructions over flat value slots (an SR2 combine is three
  ``np.add``/``np.multiply`` calls, not three checked kernels with two
  bounds reductions each);
* pre-adjustment maps (``pair``) are symbolic — a pair leaf is two
  *views* of the same chunk, never a materialized tuple block;
* post-projections (``π₁``) are applied to the tape's output refs, so
  only the projected slot is ever written to the output array;
* the per-rank fold loop runs **chunked** (`core.cost.pipeline_chunk_count`
  sizes the chunks) through two ping-pong scratch-buffer sets, so every
  intermediate stays in cache-resident scratch memory — no per-combine
  allocation, no intermediate block materialization;
* overflow guards are gone entirely: :mod:`repro.jit.bounds` proves at
  run time (one min/max pass per input plus exact bigint interval
  propagation) that no intermediate can leave the int64-safe range.

A ``comcast``/``iter`` stage has no kernel of its own: it compiles to the
closures of the pipeline it is defined by
(:meth:`~repro.core.stages.Stage.definition`, its rule's left-hand side).

Anything the compiler cannot prove or lower falls back *per step* to
the checked kernelized ``PlanStep.run`` — bit-identical by construction
— and every fallback bumps a reason counter in :mod:`repro.jit.stats`.

The module also decides how the simulated engines run under
``jit=True`` (:func:`engine_lower`, :func:`run_engine_ladder`).  The
machine model charges time by ``(p, m, ts, tw)`` and by which blocks are
defined, never by what they hold, so the first rung computes the
*values* with the step kernels above and lets the engine schedule the
same kernelized stages on definedness tokens; below it sit the
all-or-nothing swap of checked kernels for raw ones, the checked
kernels, and the object-mode replay.  Every rung keeps each
``op_count``/``ops_per_element`` annotation, so simulated time is
identical — JIT changes wall-clock only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.cost import MachineParams, pipeline_chunk_count
from repro.core.operators import BinOp
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    ComcastStage,
    IterStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.core.store import BoundedStore
from repro.kernels.blocks import (
    BlockPool,
    devectorize_block,
    is_vector_block,
    vectorize_block,
)
from repro.kernels.evaluator import PlanStep, VectorPlan, build_plan, run_lowered
from repro.kernels.lowering import rebuild_stage, vectorize_program
from repro.kernels.registry import map_rows, primitive, registry_version
from repro.machine.run import DEFINED
from repro.semantics.functional import UNDEF

from .bounds import Interval, fold_intervals, map_intervals, prove
from .errors import JitUnsupported
from .stats import STATS

__all__ = [
    "Tape",
    "emit_combine",
    "emit_map",
    "bind",
    "analyze_stages",
    "CompiledProgram",
    "compiled_program",
    "EngineLowering",
    "engine_lower",
    "run_engine_ladder",
    "clear_jit_cache",
    "DEFAULT_LOCAL_PARAMS",
]

#: chunking model for local compute: ts plays the per-ufunc-dispatch
#: overhead, tw the per-element cost.  At 1M elements this yields ~32
#: chunks (~256 KiB of scratch per buffer set — cache resident).
DEFAULT_LOCAL_PARAMS = MachineParams(p=1, ts=2048.0, tw=1.0, m=1)

_MIN_CHUNK = 1024

#: where the compiled folds' output rows come from — the only block-sized
#: allocation on the compiled path (scratch is chunk-sized and reused)
_BLOCKS = BlockPool(STATS)

#: dtypes the raw tapes accept: the only ones where raw and checked
#: kernels (and their scalar promotions) agree bit-for-bit
_OK_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tape:
    """Straight-line primitive code over the ``slots`` flat slots of a block.

    ``instrs`` carry a primitive's *name* first (:func:`bind` replaces it
    with one reading of its row) and instruction ``j`` writes scratch
    ``j``; ``out`` names the refs forming the result's slots.  The tape
    of a combine ``op(acc, rhs)`` (:func:`emit_combine`) has instructions
    ``(name, src_a, src_b, j)`` over ``("a", i)`` acc slots, ``("b", i)``
    rhs slots and ``("t", j)`` earlier results.  The tape of a map label
    (:func:`emit_map`) has ``(name, src, const)`` over ``("i", k)`` input
    slots and ``("t", j)`` — replication (``pair``) and projection
    (``π₁``) are pure ref manipulation, no data movement.
    """

    slots: int
    instrs: tuple[tuple, ...]
    out: tuple[tuple[str, int], ...]


def emit_combine(op: BinOp) -> Tape:
    """Flatten ``op`` to a :class:`Tape` (or raise JitUnsupported).

    The one walk over ``kind`` / ``parts`` under ``repro.jit``: a name
    with a row is one instruction on one slot, and each argument's slots
    are numbered in the order the walk reaches them."""
    instrs: list[tuple] = []

    def emit(op: BinOp, a: Any, b: Any) -> list:
        if primitive(op.name) is not None:
            instrs.append((op.name, next(a), next(b), len(instrs)))
            return [("t", len(instrs) - 1)]
        if op.kind == "ew":
            return emit(op.parts[0], a, b)
        if op.kind == "sr2":
            otimes, oplus = op.parts
            s1, r1, s2, r2 = next(a), next(a), next(b), next(b)
            return [scalar(oplus, s1, scalar(otimes, r1, s2)),
                    scalar(otimes, r1, r2)]
        if op.kind == "product":
            return [ref for part in op.parts for ref in emit(part, a, b)]
        raise JitUnsupported(f"no-raw:{op.name}")

    def scalar(op: BinOp, x: tuple, y: tuple) -> tuple:
        (ref,) = emit(op, iter((x,)), iter((y,)))
        return ref

    try:
        out = emit(op, zip(itertools.repeat("a"), itertools.count()),
                   zip(itertools.repeat("b"), itertools.count()))
    except StopIteration:  # an SR2 part wider than the one slot it is given
        raise JitUnsupported(f"slot-shape:{op.name}") from None
    return Tape(slots=len(out), instrs=tuple(instrs), out=tuple(out))


def emit_map(label: str, slots: int) -> Tape:
    """The tape of ``label`` on blocks of ``slots`` slots: each fused
    part's :class:`~repro.kernels.registry.MapRow` effect in turn."""
    refs: list[tuple[str, int]] = [("i", k) for k in range(slots)]
    instrs: list[tuple] = []
    for part, row in map_rows(label):
        if row is None or row.effect is None:
            raise JitUnsupported(f"no-tape:{part}")
        kind, *args = row.effect
        if kind == "replicate" and len(refs) == 1:
            refs = refs * args[0]
        elif kind == "project" and len(refs) > 1:
            refs = refs[:1]
        elif kind == "apply" and len(refs) == 1:
            instrs.append((args[0], refs[0], args[1]))
            refs = [("t", len(instrs) - 1)]
        else:
            raise JitUnsupported(f"slot-shape:{part}")
    return Tape(slots=slots, instrs=tuple(instrs), out=tuple(refs))


def bind(tape: Tape, reading: str) -> Tape:
    """``tape`` with every primitive name replaced by one reading of its
    row: ``"raw"`` (the ufuncs :func:`_run_combine` / :func:`_run_map_tape`
    call) or ``"interval"`` (what :mod:`repro.jit.bounds` interprets).
    Raises :class:`JitUnsupported` naming the row that does not state it."""

    def read(name: str) -> Callable:
        fn = getattr(primitive(name), reading, None)
        if fn is None:
            raise JitUnsupported(f"no-{reading}:{name}")
        return fn

    return replace(tape, instrs=tuple(
        (read(name), *rest) for name, *rest in tape.instrs))


def _run_map_tape(
    tape: Tape, slots: Sequence[np.ndarray], tmps: Optional[list] = None
) -> list[np.ndarray]:
    """Apply ``tape``; instruction ``j`` writes ``tmps[j]`` (a chunk-sized
    scratch view), or a fresh array when no scratch is given."""
    tmps = [None] * len(tape.instrs) if tmps is None else tmps

    def res(ref: tuple[str, int]) -> np.ndarray:
        return slots[ref[1]] if ref[0] == "i" else tmps[ref[1]]

    for j, (u, src, const) in enumerate(tape.instrs):
        args = (res(src),) if const is None else (res(src), const)
        tmps[j] = u(*args, out=tmps[j])
    return [res(r) for r in tape.out]


# ---------------------------------------------------------------------------
# Runtime block conformance
# ---------------------------------------------------------------------------


def _block_slots(block: Any, n: int) -> Optional[list[np.ndarray]]:
    """Flat slot arrays of a defined block, or None if it doesn't match."""
    if n == 1:
        if isinstance(block, np.ndarray):
            return [block]
        if isinstance(block, np.generic):
            return [np.asarray(block)]
        return None
    if not isinstance(block, tuple) or len(block) != n:
        return None
    out = []
    for comp in block:
        if isinstance(comp, np.ndarray):
            out.append(comp)
        elif isinstance(comp, np.generic):
            out.append(np.asarray(comp))
        else:
            return None  # UNDEF hole or nested tuple
    return out


def _conform(blocks: Sequence[Any], n: int) -> Optional[list[list[np.ndarray]]]:
    """Slot arrays per rank iff *all* blocks are defined, same-shaped
    1-D/0-D arrays of one raw-safe dtype.  None -> kernelized fallback."""
    rows: list[list[np.ndarray]] = []
    shape: Optional[tuple] = None
    dtype = None
    for b in blocks:
        slots = _block_slots(b, n)
        if slots is None:
            return None
        for a in slots:
            if a.ndim > 1 or a.dtype not in _OK_DTYPES:
                return None
            if shape is None:
                shape, dtype = a.shape, a.dtype
            elif a.shape != shape or a.dtype != dtype:
                return None
        rows.append(slots)
    return rows


# ---------------------------------------------------------------------------
# Chunked fold/scan execution
# ---------------------------------------------------------------------------


def _chunk_slices(shape: tuple, params: MachineParams) -> list:
    """Chunk index ranges (``...`` = the whole 0-d array)."""
    if len(shape) == 0:
        return [...]
    n = shape[0]
    if n <= 2 * _MIN_CHUNK:
        return [slice(0, n)]
    chunks = pipeline_chunk_count(params, n, depth=3)
    chunks = max(1, min(chunks, n // _MIN_CHUNK))
    step = -(-n // chunks)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class _Scratch:
    """A set of chunk-sized scratch buffers handed out as length-L views."""

    def __init__(self, count: int, max_len: Optional[int], dtype) -> None:
        shape = () if max_len is None else (max_len,)
        self.bufs = [np.empty(shape, dtype) for _ in range(count)]

    def views(self, length: Optional[int]) -> list[np.ndarray]:
        return [b[...] if length is None else b[:length] for b in self.bufs]


def _run_combine(
    tape: Tape,
    acc: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tmps: list,
) -> list[np.ndarray]:
    """One combine; instruction ``dst`` writes ``tmps[dst]`` (None: a
    fresh array)."""

    def res(ref: tuple[str, int]) -> np.ndarray:
        tag, i = ref
        if tag == "a":
            return acc[i]
        if tag == "b":
            return rhs[i]
        return tmps[i]

    for u, sa, sb, dst in tape.instrs:
        tmps[dst] = u(res(sa), res(sb), out=tmps[dst])
    return [res(r) for r in tape.out]


# ---------------------------------------------------------------------------
# Step compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledStep:
    """A plan step plus its compiled closure (None -> always kernelized).

    The closure returns the output block list, or None when the runtime
    blocks don't conform — the caller then runs the checked
    ``plan_step.run`` instead (bit-identical, just slower).
    """

    plan_step: PlanStep
    compiled: Optional[Callable[[list], Optional[list]]]
    reason: str = ""
    covered: int = 0
    #: the closure is exact on int64 blocks only and declines the rest
    ints_only: bool = False


class _TapeMemo:
    """One map label's raw tapes, memoised by the observed input arity."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.tapes: dict[int, Optional[Tape]] = {}

    def apply(self, block: Any) -> Any:
        """The label applied to one defined block (allocating), or None
        when the label has no tape or the block does not conform."""
        arity = len(block) if isinstance(block, tuple) else 1
        if arity not in self.tapes:
            try:
                self.tapes[arity] = bind(emit_map(self.label, arity), "raw")
            except JitUnsupported:
                self.tapes[arity] = None
        tape = self.tapes[arity]
        row = _conform([block], arity) if tape is not None else None
        if row is None:
            return None
        vals = _run_map_tape(tape, row[0])
        return vals[0] if len(vals) == 1 else tuple(vals)


def _compile_local(
    step: PlanStep, pre: None, stage: MapStage, post: None, params: MachineParams,
) -> CompiledStep:
    memo = _TapeMemo(stage.label)

    def run(data: list) -> Optional[list]:
        out = [b if b is UNDEF else memo.apply(b) for b in data]
        return None if any(v is None for v in out) else out

    return CompiledStep(step, run, covered=len(step.stages))


def _split_sandwich(
    step: PlanStep,
) -> tuple[Optional[MapStage], Stage, Optional[MapStage]]:
    stages = list(step.stages)
    pre = post = None
    if len(stages) > 1 and isinstance(stages[0], MapStage):
        pre = stages.pop(0)
    if len(stages) > 1 and isinstance(stages[-1], MapStage):
        post = stages.pop()
    (coll,) = stages
    return pre, coll, post


def _compile_bcast(
    step: PlanStep, pre: Optional[MapStage], coll: Stage,
    post: Optional[MapStage], params: MachineParams,
) -> CompiledStep:
    memos = [_TapeMemo(s.label) for s in (pre, post) if s is not None]

    def run(data: list) -> Optional[list]:
        if not data:
            return None
        root = data[0]
        for memo in memos:
            if root is UNDEF:
                break
            root = memo.apply(root)
            if root is None:
                return None
        return [root] * len(data)

    return CompiledStep(step, run, covered=len(step.stages))


def _compile_fold(
    spread: Optional[Callable[[list, int], list]],
    step: PlanStep, pre: Optional[MapStage], coll: Stage,
    post: Optional[MapStage], params: MachineParams,
) -> CompiledStep:
    """Compile a fold of ``coll.op`` over the ranks (with optional pre/post
    maps).  ``spread`` places the one folded block on ``p`` ranks (a
    reduce, an allreduce); None keeps every prefix on its rank — a scan."""
    tape = bind(emit_combine(coll.op), "raw")
    pre_tape = bind(emit_map(pre.label, 1), "raw") if pre is not None else None
    if pre_tape is not None and len(pre_tape.out) != tape.slots:
        raise JitUnsupported(f"slot-shape:{pre.label}")
    post_tape = (bind(emit_map(post.label, tape.slots), "raw")
                 if post is not None else None)
    n_in = 1 if pre_tape is not None else tape.slots
    out_n = len(post_tape.out) if post_tape is not None else tape.slots
    is_scan = spread is None
    # a scan without a post map writes every combine straight into its
    # output row (each tape output is a fresh instruction result), and
    # the next combine reads that row back while it is cache-hot
    direct = is_scan and post_tape is None

    def run(data: list) -> Optional[list]:
        rows = _conform(data, n_in)
        if not rows:
            return None
        p = len(rows)
        ref = rows[0][0]
        shape, dtype = ref.shape, ref.dtype
        slices = _chunk_slices(shape, params)
        max_len = None if slices[0] is ... else slices[0].stop - slices[0].start
        outs = [
            [_BLOCKS.empty(shape, dtype) for _ in range(out_n)]
            for _ in range(p if is_scan else 1)
        ]
        pre_scratch = [
            _Scratch(len(pre_tape.instrs), max_len, dtype) for _ in range(2)
        ] if pre_tape is not None else None
        cmb_scratch = [_Scratch(len(tape.instrs), max_len, dtype) for _ in range(2)]
        post_scratch = (
            _Scratch(len(post_tape.instrs), max_len, dtype)
            if post_tape is not None
            else None
        )

        for sl in slices:
            length = None if sl is ... else sl.stop - sl.start

            def leaf(i: int, parity: int) -> list[np.ndarray]:
                views = [a[sl] for a in rows[i]]
                if pre_tape is None:
                    return views
                return _run_map_tape(
                    pre_tape, views, pre_scratch[parity].views(length)
                )

            def write(rank: int, slots: Sequence[np.ndarray]) -> None:
                if post_tape is not None:
                    slots = _run_map_tape(
                        post_tape, slots, post_scratch.views(length)
                    )
                for j, a in enumerate(slots):
                    outs[rank][j][sl] = a

            acc = leaf(0, 0)
            if is_scan:
                write(0, acc)
            for i in range(1, p):
                rhs = leaf(i, i % 2)
                tmps = cmb_scratch[i % 2].views(length)
                if direct:
                    for j, (_tag, dst) in enumerate(tape.out):
                        tmps[dst] = outs[i][j][sl]
                acc = _run_combine(tape, acc, rhs, tmps)
                if is_scan and not direct:
                    write(i, acc)
            if not is_scan:
                write(0, acc)

        blocks = [s[0] if out_n == 1 else tuple(s) for s in outs]
        return blocks if is_scan else spread(blocks, p)

    return CompiledStep(step, run, covered=len(step.stages))


def _is_int64_block(block: Any) -> bool:
    comps = block if isinstance(block, tuple) else (block,)
    return all(isinstance(c, (np.ndarray, np.generic)) and c.dtype == np.int64
               for c in comps)


def _compile_derived(
    step: PlanStep, pre: Optional[MapStage], coll: Stage,
    post: Optional[MapStage], params: MachineParams,
) -> CompiledStep:
    """Compile a comcast/iter stage as the composition of the closures its
    definition compiles to (the pre map rides the bcast, the post map the
    last fold) — no kernel and no tape of its own.

    Exact where the definition's left folds and the stage's digit
    traversal compute the same values: on int64 blocks proven
    overflow-free (the caller's gate, as for every closure).  Floats
    round by combining order, so the closure declines them itself."""
    groups = [[s] for s in coll.definition() or ()]
    if not groups:
        raise JitUnsupported(f"uncompiled:{step.label}")
    if pre is not None:
        groups[0].insert(0, pre)
    if post is not None:
        groups[-1].append(post)
    subs = [_compile_step(PlanStep("collective", tuple(g), step.label),
                          params) for g in groups]
    for sub in subs:
        if sub.compiled is None:
            raise JitUnsupported(sub.reason)
    # the doubling iteration exists for powers of two only: elsewhere the
    # stage raises, and so must the checked step this closure defers to
    pow2_only = isinstance(coll, IterStage) and not coll.general

    def run(data: list) -> Optional[list]:
        p = len(data)
        if not p or not _is_int64_block(data[0]) or (pow2_only and p & (p - 1)):
            return None
        for sub in subs:
            data = sub.compiled(data)
            if data is None:
                return None
        return data

    return CompiledStep(step, run, covered=len(step.stages), ints_only=True)


@dataclass(frozen=True)
class _Jit:
    """How one stage class compiles and how it is proven.

    ``compile(step, pre, stage, post, params)`` builds the step's closure
    or raises :class:`JitUnsupported` with the reason to count.
    ``tape(stage, slots)`` emits what the stage does to a block of
    ``slots`` slots (None: it only moves blocks) and ``read`` is the
    :mod:`repro.jit.bounds` reading of it; a class with neither is
    proven as the pipeline it is defined by."""

    compile: Callable[..., CompiledStep]
    tape: Optional[Callable[[Any, int], Any]] = None
    read: Optional[Callable] = None


def _fold(spread: Optional[Callable[[list, int], list]]) -> _Jit:
    return _Jit(partial(_compile_fold, spread),
                lambda stage, slots: emit_combine(stage.op), fold_intervals)


#: stage class -> its entry (the ``machine.run._MACHINE`` pattern); a
#: class without one runs the checked kernels (``uncompiled:<stage>``)
_JIT: dict[type, _Jit] = {
    MapStage: _Jit(_compile_local,
                   lambda stage, slots: emit_map(stage.label, slots),
                   map_intervals),
    BcastStage: _Jit(_compile_bcast, lambda stage, slots: None),
    ScanStage: _fold(None),
    ReduceStage: _fold(lambda blocks, p: blocks + [UNDEF] * (p - 1)),
    AllReduceStage: _fold(lambda blocks, p: blocks * p),  # one object, p ranks
    ComcastStage: _Jit(_compile_derived),
    IterStage: _Jit(_compile_derived),
}


def _compile_step(step: PlanStep, params: MachineParams) -> CompiledStep:
    pre, coll, post = _split_sandwich(step)
    entry = _JIT.get(type(coll))
    if entry is None:
        return CompiledStep(step, None, reason=f"uncompiled:{step.label}")
    try:
        return entry.compile(step, pre, coll, post, params)
    except JitUnsupported as exc:
        return CompiledStep(step, None, reason=str(exc))


def proof_steps(stages: Sequence[Stage]) -> tuple[tuple[Callable, Any], ...]:
    """What :func:`repro.jit.bounds.prove` reads for ``stages``: per
    value-changing stage its table reading and its tape bound to interval
    rows, slot widths threaded from the one-slot input blocks.

    A stage with a :meth:`~repro.core.stages.Stage.definition` (comcast,
    iter) is proven as that pipeline, which is what its compiled closure
    executes — *not* what the engines' digit traversal computes
    (``b^(2^step)`` may leave the hull of the folds), so the proof
    licenses the closure and no raw engine form.  Raises
    :class:`JitUnsupported` where a stage or a row states no proof."""
    slots, steps = 1, []
    for stage in (d for s in stages for d in s.definition() or (s,)):
        entry = _JIT.get(type(stage))
        if entry is None or entry.tape is None:
            raise JitUnsupported("bounds-unproven")
        tape = entry.tape(stage, slots)
        if tape is None:
            continue  # pure movement
        if tape.slots != slots:
            raise JitUnsupported("bounds-unproven")
        steps.append((entry.read, bind(tape, "interval")))
        slots = len(tape.out)
    return tuple(steps)


def analyze_stages(stages: Sequence[Stage], input_iv: Interval, p: int) -> bool:
    """True iff no execution of ``stages`` over ``p`` int blocks whose
    values lie in ``input_iv`` can exceed ``MAX_SAFE_INT`` anywhere."""
    try:
        return prove(proof_steps(stages), input_iv, p)
    except JitUnsupported:
        return False


# ---------------------------------------------------------------------------
# Whole-program compilation + bounds gate
# ---------------------------------------------------------------------------


def _input_profile(vec: Sequence[Any]) -> tuple[str, tuple[int, int]]:
    """(dtype regime, int interval hull) over all defined input arrays."""
    kinds: set[str] = set()
    lo, hi = 0, 0
    seen_vals = False
    for b in vec:
        comps = b if isinstance(b, tuple) else (b,)
        for a in comps:
            if not isinstance(a, (np.ndarray, np.generic)):
                continue
            a = np.asarray(a)
            if a.dtype not in _OK_DTYPES:
                return "other", (0, 0)
            kinds.add(a.dtype.kind)
            if a.dtype.kind == "i" and a.size:
                alo, ahi = int(a.min()), int(a.max())
                if seen_vals:
                    lo, hi = min(lo, alo), max(hi, ahi)
                else:
                    lo, hi, seen_vals = alo, ahi, True
    if not kinds:
        return "empty", (0, 0)
    if kinds == {"f"}:
        return "float", (0, 0)
    if kinds == {"i"}:
        return "int", (lo, hi)
    return "other", (0, 0)


class CompiledProgram:
    """A vector plan with compiled closures for every supported step."""

    def __init__(self, plan: VectorPlan, params: MachineParams) -> None:
        self.plan = plan
        self.params = params
        self.steps = [_compile_step(s, params) for s in plan.steps]
        self.fused_stages = sum(
            s.covered for s in self.steps if s.compiled is not None
        )
        #: why the first kernelized-only step has no closure ("" = none)
        self.uncompiled = next(
            (s.reason for s in self.steps if s.compiled is None), ""
        )
        #: the interval reading of the program's tapes, emitted once here —
        #: or why a stage or a row states no proof
        try:
            self.proof, self.unprovable = proof_steps(plan.program.stages), ""
        except JitUnsupported as exc:
            self.proof, self.unprovable = (), str(exc)
        #: (input hull, p) -> prove(self.proof, hull, p), a pure function of
        #: the two: a repeated input skips the interval run
        self._verdicts = BoundedStore(64)

    def proven_safe(
        self, profile: tuple[str, tuple[int, int]], p: int
    ) -> tuple[bool, str]:
        """One static range check per program: may every guard be dropped?"""
        regime, iv = profile
        if regime in ("float", "empty"):
            return True, ""
        if regime != "int":
            return False, "dtype-unproven"
        if self.unprovable:
            return False, self.unprovable
        key = (iv, max(p, 1))
        safe = self._verdicts.get(key)
        if safe is None:
            safe = prove(self.proof, *key)
            self._verdicts.put(key, safe)
        return (True, "") if safe else (False, "bounds-unproven")

    def pretty(self) -> str:
        lines = []
        for s in self.steps:
            tag = "jit " if s.compiled is not None else "kern"
            lines.append(f"[{tag}] {s.plan_step.pretty()}")
        return "\n".join(lines)

    def run(self, vec: Sequence[Any]) -> list:
        """Execute on vectorized blocks; bit-identical to ``plan.run``.

        May raise :class:`~repro.kernels.blocks.KernelOverflow` from a
        kernelized fallback step — callers replay in object mode.
        """
        profile = _input_profile(vec)
        proven, why = self.proven_safe(profile, len(vec))
        if not proven:
            STATS.fallbacks[why] += 1
        data = list(vec)
        full = True
        for st in self.steps:
            out = None
            if proven and st.compiled is not None:
                out = st.compiled(data)
                if out is None and st.ints_only and profile[0] != "int":
                    STATS.fallbacks[f"{profile[0]}-blocks"] += 1
                elif out is None:
                    STATS.fallbacks["runtime-shape"] += 1
            elif st.compiled is None:
                STATS.fallbacks[st.reason] += 1
            if out is None:
                out = st.plan_step.run(data)
                STATS.kernelized_steps += 1
                full = False
            else:
                STATS.compiled_steps += 1
            data = out
        if full and self.steps:
            STATS.full_jit_runs += 1
        return data

    def run_compiled(self, vec: Sequence[Any]) -> Optional[list]:
        """Every step through its closure, or None once one declines —
        for callers that have proven the run overflow-free and hold a
        lower rung to drop to (the engines' fused rung): no profiling, no
        checked fallback, never raises ``KernelFallback``."""
        data: Optional[list] = list(vec)
        for st in self.steps:
            if st.compiled is None:
                return None
            data = st.compiled(data)
            if data is None:
                return None
            STATS.compiled_steps += 1
        return data

    @cached_property
    def engine_programs(self) -> tuple[Optional[Program], Program]:
        """``(raw, token)`` forms of the kernelized program for the engines:
        the checked→raw kernel swap, and the same stages with every
        function reduced to definedness bookkeeping.  ``raw`` is None
        when an operator has no raw tape or a stage has a definition:
        the bounds proof covers that pipeline, not the digit traversal
        the engine would carry the blocks through."""
        stages = self.plan.program.stages

        def swapped(map_fn: Callable, op_fn: Callable) -> Program:
            return Program(
                [rebuild_stage(st, map_fn,
                               lambda op: replace(op, fn=op_fn(op)))
                 for st in stages], name=self.plan.program.name)

        token = swapped(lambda st: _token_map, lambda op: _token_op)
        raw = None
        if all(st.definition() is None for st in stages):
            try:
                raw = swapped(lambda st: _raw_map_fn(st.label, st.fn),
                              _raw_binop_fn)
            except JitUnsupported:
                pass
        return raw, token


# ---------------------------------------------------------------------------
# Compile cache (reset via clear_planner_caches)
# ---------------------------------------------------------------------------

_COMPILE_CACHE = BoundedStore(256)


def clear_jit_cache() -> None:
    """Drop every compiled program (with its engine forms) and every
    idle block buffer."""
    _COMPILE_CACHE.clear()
    _BLOCKS.clear()


def compiled_program(
    program: Program, params: Optional[MachineParams] = None
) -> CompiledProgram:
    """Compile (or fetch from cache) the JIT plan for ``program``.

    Raises :class:`~repro.kernels.blocks.KernelUnsupported` when the
    program cannot even be kernelized — the static skip.  The cache key
    includes the chunking params and the kernel-registry version, so a
    stale compile can never be served after either changes.
    """
    params = params if params is not None else DEFAULT_LOCAL_PARAMS
    key = (program, params, registry_version())
    try:
        hit = _COMPILE_CACHE.get(key)
    except TypeError:  # unhashable program part: compiled, never resident
        hit = key = None
    if hit is not None:
        STATS.cache_hits += 1
        return hit
    STATS.cache_misses += 1
    plan = build_plan(program)  # may raise KernelUnsupported
    cp = CompiledProgram(plan, params)
    STATS.compiles += 1
    STATS.fused_stages += cp.fused_stages
    if key is not None:
        _COMPILE_CACHE.put(key, cp)
    return cp


# ---------------------------------------------------------------------------
# Engine lowering: how a simulated engine runs under jit=True
# ---------------------------------------------------------------------------


def _as_scalar(a: np.ndarray) -> Any:
    """0-d results back to numpy scalars, matching the checked kernels'
    representation exactly (message packing sees the same block types)."""
    return a[()] if isinstance(a, np.ndarray) and a.ndim == 0 else a


def _raw_map_fn(label: str, checked_fn: Callable) -> Callable:
    """Per-block map: raw tape when the block conforms, else the checked
    kernelized fn (which itself falls back to object mode)."""
    memo = _TapeMemo(label)

    def fn(x: Any) -> Any:
        v = memo.apply(x) if is_vector_block(x) else None
        if v is None:
            return checked_fn(x)
        if isinstance(v, tuple):
            return tuple(_as_scalar(c) for c in v)
        return _as_scalar(v)

    return fn


def _raw_binop_fn(op: BinOp) -> Callable:
    """Whole-block raw combine; falls back to the checked op per call."""
    tape = bind(emit_combine(op), "raw")  # JitUnsupported if not lowerable
    checked_fn = op.fn

    def fn(a: Any, b: Any) -> Any:
        if not (is_vector_block(a) and is_vector_block(b)):
            return checked_fn(a, b)
        rows = _conform([a, b], tape.slots)
        if rows is None:
            return checked_fn(a, b)
        vals = _run_combine(tape, rows[0], rows[1], [None] * len(tape.instrs))
        out = [_as_scalar(v) for v in vals]
        return out[0] if len(out) == 1 else tuple(out)

    return fn


def _token_map(x: Any) -> Any:
    return x


def _token_op(a: Any, b: Any) -> Any:
    return a


@dataclass(frozen=True)
class EngineLowering:
    """What a simulated engine is handed under ``jit=True``, and why.

    ``rung`` is ``"fused"`` (values from the compiled step kernels while
    the engine schedules ``program`` on :data:`DEFINED` tokens), ``"raw"``
    (the engine carries the blocks through raw kernels) or ``"checked"``
    (through the overflow-checked kernels); ``why`` is the reason the
    fused rung was declined.  A fused lowering also holds the compiled
    program and, in ``below``, the rung to drop to.
    """

    rung: str
    why: str
    program: Program
    inputs: list
    compiled: Optional[CompiledProgram] = None
    below: Optional["EngineLowering"] = None


def engine_lower(
    program: Program, inputs: Sequence[Any], params: Optional[MachineParams] = None
) -> EngineLowering:
    """Decide how a simulated engine runs ``program`` under ``jit=True``.

    The first rung whose conditions the program and these inputs meet:

    * ``"fused"`` — every plan step has a compiled closure (a
      map/scan/reduce/allreduce/bcast, or a comcast/iter stage through
      its definition) and every input is a defined, conforming int64
      array whose hull the bounds analysis proves overflow-free.  Then
      every combining order yields the same int64, so the kernels' left
      fold agrees bit for bit with the engine's butterfly or digit
      traversal and the engine need only schedule.
    * ``"raw"`` — every stage has a raw form and the run is proven
      overflow-free (floats included: the engine keeps its own order).
      A comcast/iter stage has none: its proof is of the definition.
    * ``"checked"`` — the plain kernelized program.

    What only the run can tell — a non-empty fault plan, a closure
    declining its runtime blocks — is settled by
    :func:`run_engine_ladder`, which then drops ``"fused"`` to ``below``.

    ``params`` is the machine model, which says nothing about ufunc
    dispatch: it is not consulted, and the kernels chunk by
    :data:`DEFAULT_LOCAL_PARAMS`.  Raises
    :class:`~repro.kernels.blocks.KernelUnsupported` when not even
    kernelizable (callers fall back to object mode).
    """
    STATS.runs += 1
    vec = [vectorize_block(x) for x in inputs]  # may raise KernelUnsupported
    cp = compiled_program(program)  # may raise KernelUnsupported
    vprog = cp.plan.program
    raw, token = cp.engine_programs
    profile = _input_profile(vec)
    proven, unproven = cp.proven_safe(profile, len(vec))
    if proven and raw is not None:
        low = EngineLowering("raw", "", raw, vec)
    else:
        low = EngineLowering("checked", "", vprog, vec)
    if cp.uncompiled or unproven:
        why = cp.uncompiled or unproven
    elif profile[0] != "int":
        why = f"{profile[0]}-blocks"
    elif _conform(vec, 1) is None:
        why = "nonconforming-input"
    else:
        why = ""
        low = EngineLowering("fused", "", token, [DEFINED] * len(vec), cp, low)
    if why:
        STATS.fallbacks[why] += 1
        low = replace(low, why=why)
    STATS.full_jit_runs += low.rung != "checked"
    return low


def _run_fused(run: Callable, low: EngineLowering, faults: Any) -> Any:
    """Kernel values joined with a token run's schedule — or None, reason
    counted, where only the run can tell the fused rung does not apply:
    a fault plan makes definedness depend on the schedule, a closure may
    decline its runtime blocks, and the token run must leave ``UNDEF``
    exactly where the kernels do.  An engine that keeps token schedules
    resident (``run.resident``, the cooperative one) answers without
    running; any other runs the tokens itself."""
    if faults is not None and not faults.is_empty:
        why = "fault-plan"
    else:
        values = low.compiled.run_compiled(low.below.inputs)
        if values is None:
            why = "runtime-shape"
        else:
            values = tuple(map(devectorize_block, values))
            resident = getattr(run, "resident", None)
            if resident is not None:
                result, why = resident(low.program, low.inputs, lambda: values)
                if why in ("hit", "miss"):
                    return result
            else:
                result = run(low.program, low.inputs)
                if all((t is UNDEF) == (v is UNDEF)
                       for t, v in zip(result.values, values)):
                    return replace(result, values=values)
                why = "schedule-mismatch"
    STATS.fallbacks[why] += 1
    return None


def run_engine_ladder(
    run: Callable[[Program, Sequence[Any]], Any],
    program: Program,
    inputs: Sequence[Any],
    params: Optional[MachineParams],
    faults: Any,
    jit: bool,
) -> Any:
    """The kernel ladder every engine shares (``vectorize=`` / ``jit=``).

    ``run(program, inputs)`` is the engine's plain run of exactly what
    it is given; an engine that keeps resident schedules also offers
    ``run.resident(program, inputs, evaluate)`` →
    :func:`~repro.machine.run.resident_run`'s ``(result, outcome)``,
    which the fused rung takes for its token run.  Returns the engine's
    :class:`~repro.machine.engine.SimResult` with object-mode values, or
    None when no kernel rung applies — not kernelizable, or a checked
    kernel met an int64 overflow — and the caller must run ``program``
    itself in object mode.
    """
    def lower() -> EngineLowering:
        if jit:
            return engine_lower(program, inputs, params)
        return EngineLowering("checked", "", vectorize_program(program),
                              [vectorize_block(x) for x in inputs])

    def descend(low: EngineLowering) -> Any:
        if low.below is not None:
            result = _run_fused(run, low, faults)
            if result is not None:
                return result
            low = low.below
        result = run(low.program, low.inputs)
        return replace(result,
                       values=tuple(map(devectorize_block, result.values)))

    return run_lowered({"unsupported": lower}, descend, lambda: None)
