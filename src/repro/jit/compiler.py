"""The JIT compiler: fused vector plans -> one register tape per run of steps.

Input is the same :class:`~repro.kernels.evaluator.VectorPlan` the
vectorized tier executes.  Each maximal run of supported plan steps is
unrolled over the ``p`` ranks into **one straight-line register tape**
and run as one chunk loop:

* every stage reads the same per-op tapes the bounds proof reads
  (:func:`emit_combine`: an SR2 combine is ``np.add``/``np.multiply``
  calls on flat slots; :func:`emit_map`: ``pair`` / ``π₁`` only move
  refs), one ``(ufunc, src, src|const, dst)`` instruction per call;
* value numbering merges equal ``(ufunc, operands)`` pairs (a pair
  leaf makes ``r1·s2`` and ``r1·r2`` one instruction) and only what the
  reply needs is run, depth-first from it;
* the reply's rows come from the block pool and are written by their
  instructions; every other value — a ``scan(mul)`` before a
  ``scan(add)`` included — lives in chunk-sized scratch reused by
  liveness (`core.cost.pipeline_chunk_count` sizes the chunks), never in
  a block-sized array;
* overflow guards are gone entirely: :mod:`repro.jit.bounds` proves at
  run time (one bitwise-or pass per input block plus exact bigint
  interval propagation) that no intermediate can leave the int64-safe
  range.

A ``comcast``/``iter`` stage has no tape of its own: it unrolls as the
pipeline it is defined by (:meth:`~repro.core.stages.Stage.definition`,
its rule's left-hand side).  A tape is unrolled once per block
signature (``p``, slot widths, definedness) and kept on the program.

What the compiler cannot prove or lower falls back *per step* to the
checked kernelized ``PlanStep.run`` — bit-identical by construction —
every fallback bumps a reason counter in :mod:`repro.jit.stats`, and
the steps after it run on a tape again.

The module also decides how the simulated engines run under
``jit=True`` (:func:`engine_lower`, :func:`run_engine_ladder`).  The
machine model charges time by ``(p, m, ts, tw)`` and by which blocks are
defined, never by what they hold, so the first rung computes the
*values* on the tape and lets the engine schedule the same kernelized
stages on definedness tokens; below it sit the checked kernels and the
object-mode replay.  Every rung keeps each ``op_count``/``ops_per_element``
annotation, so simulated time is identical — JIT changes wall-clock only.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
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
from repro.kernels.registry import Primitive, map_rows, primitive, registry_version
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

#: dtypes the register tapes accept: the only ones where raw and checked
#: kernels (and their scalar promotions) agree bit-for-bit
_OK_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tape:
    """Straight-line primitive code over the ``slots`` flat slots of a block.

    ``instrs`` carry a primitive's :class:`~repro.kernels.registry.Primitive`
    row first (:func:`bind` replaces it with one reading of the row) and
    instruction ``j`` writes scratch ``j``; ``out`` names the refs forming
    the result's slots.  The tape of a combine ``op(acc, rhs)``
    (:func:`emit_combine`) has instructions ``(row, src_a, src_b, j)``
    over ``("a", i)`` acc slots, ``("b", i)`` rhs slots and ``("t", j)``
    earlier results.  The tape of a map (:func:`emit_map`) has
    ``(row, src, const)`` over ``("i", k)`` input slots and ``("t", j)``
    — replication (``pair``) and projection (``π₁``) are pure ref
    manipulation, no data movement.
    """

    slots: int
    instrs: tuple[tuple, ...]
    out: tuple[tuple[str, int], ...]


def emit_combine(op: BinOp) -> Tape:
    """Flatten ``op`` to a :class:`Tape` (or raise JitUnsupported).

    The one walk over ``kind`` / ``parts`` under ``repro.jit``: an
    operator with a row is one instruction on one slot, and each
    argument's slots are numbered in the order the walk reaches them."""
    instrs: list[tuple] = []

    def emit(op: BinOp, a: Any, b: Any) -> list:
        row = primitive(op)
        if row is not None:
            instrs.append((row, next(a), next(b), len(instrs)))
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


def emit_map(parts: Sequence[tuple[str, Callable]], slots: int) -> Tape:
    """The tape of a map's ``parts`` (a ``MapStage``'s) on blocks of
    ``slots`` slots: each part's :class:`~repro.kernels.registry.MapRow`
    effect in turn."""
    refs: list[tuple[str, int]] = [("i", k) for k in range(slots)]
    instrs: list[tuple] = []
    for part, row in map_rows(parts):
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
    """``tape`` with every primitive row replaced by one reading of it:
    ``"raw"`` (the ufuncs a register tape calls) or
    ``"interval"`` (what :mod:`repro.jit.bounds` interprets).
    Raises :class:`JitUnsupported` naming the row that does not state it."""

    def read(row: Primitive) -> Callable:
        fn = getattr(row, reading)
        if fn is None:
            raise JitUnsupported(f"no-{reading}:{row.name}")
        return fn

    return replace(tape, instrs=tuple(
        (read(row), *rest) for row, *rest in tape.instrs))


def _run_map_tape(
    tape: Tape, slots: Sequence[np.ndarray], tmps: list
) -> list[np.ndarray]:
    """Apply ``tape``; instruction ``j`` writes ``tmps[j]`` (None: a fresh
    array).

    The reference interpreter of a map tape: the register tapes unroll
    map tapes instead, so only the soundness property of
    ``tests/test_numeric_vocabulary.py`` runs one through it."""

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
# Register tapes: a run of plan steps unrolled over the ranks
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


def _run_combine(
    tape: Tape,
    acc: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tmps: list,
) -> list[np.ndarray]:
    """One combine; instruction ``dst`` writes ``tmps[dst]`` (None: a
    fresh array).

    The reference interpreter of a combine tape, as :func:`_run_map_tape`
    is of a map's: run by the soundness property of
    ``tests/test_numeric_vocabulary.py``, not by the engines."""

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


def _copy(a: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, a)


def _with_const(fn: Callable, const: Any) -> Callable:
    return lambda a, out: fn(a, const, out=out)


def _signature(data: Sequence[Any]) -> tuple[tuple, list, list]:
    """Per rank None (UNDEF), False (a block no tape reads) or ``(slots,
    class)``, classes numbered by first ``(shape, dtype)`` seen; with the
    classes and each rank's slot arrays."""
    classes: dict[tuple, int] = {}
    sig, slots = [], []
    for b in data:
        rows = None if b is UNDEF else _conform(
            [b], len(b) if isinstance(b, tuple) else 1)
        s = rows[0] if rows else None
        slots.append(s)
        sig.append((len(s), classes.setdefault((s[0].shape, s[0].dtype),
                                               len(classes)))
                   if s else None if b is UNDEF else False)
    return tuple(sig), list(classes), slots


#: a block on the tape: its object's identity (``("rank", r)``: rank r's
#: input), a register per slot (None: not read) and each slot's identity
_Blk = namedtuple("_Blk", "obj regs comps")


class _Unroller:
    """Plan steps run symbolically over the ranks: one value-numbered
    ``(ufunc, src, src|const, dst)`` instruction per distinct primitive
    application, read off the :func:`emit_combine` / :func:`emit_map`
    tapes the bounds proof reads.  Identities follow the step kernels'
    (a bcast hands one object to every rank, a map keeps the arrays it
    only moves, a fold writes a fresh row per slot), so a reply aliases
    what a step-by-step run's did."""

    def __init__(self, dtypes: Sequence[np.dtype]) -> None:
        self.dtypes = dtypes
        self.cls: list[int] = []  # register -> class of its arrays
        self.inputs: dict[int, tuple[int, int]] = {}  # -> (rank, slot)
        self.made: dict[int, tuple] = {}  # register -> its instruction
        self.vn: dict[tuple, int] = {}

    def take(self, rank: int, sig: Any) -> Any:
        """Rank ``rank``'s input block, of :func:`_signature` ``sig``."""
        if not sig:
            return UNDEF if sig is None else _Blk(("rank", rank), None, None)
        regs = tuple(range(len(self.cls), len(self.cls) + sig[0]))
        self.cls += [sig[1]] * sig[0]
        self.inputs.update((r, (rank, k)) for k, r in enumerate(regs))
        return _Blk(("rank", rank), regs, regs)

    def run(self, tape: Tape, **regs: Sequence[int]) -> list[int]:
        """``tape`` (bound ``raw``) on registers: ``i=`` a map's slots,
        ``a=`` / ``b=`` a combine's operands."""
        regs["t"] = tmps = []
        for fn, x, y, *_ in tape.instrs:
            if isinstance(y, tuple):
                y = regs[y[0]][y[1]]
            elif y is not None:
                y = ("c", type(y), y)
            key = (fn, regs[x[0]][x[1]], y)
            if key not in self.vn:
                self.vn[key] = len(self.cls)
                self.cls.append(self.cls[key[1]])
                self.made[self.vn[key]] = (*key, self.vn[key])
            tmps.append(self.vn[key])
        return [regs[tag][k] for tag, k in tape.out]

    def block(self, regs: Sequence[int], comps: Sequence = ()) -> _Blk:
        comps = tuple(comps) or tuple(object() for _ in regs)
        return _Blk(comps[0] if len(comps) == 1 else object(),
                    tuple(regs), comps)

    def map_block(self, parts: Sequence[tuple[str, Callable]],
                  blk: Any) -> Any:
        """The map of ``parts`` on one block (UNDEF passes)."""
        if blk is UNDEF:
            return UNDEF
        if blk.regs is None:
            raise JitUnsupported("runtime-shape")
        tape = bind(emit_map(parts, len(blk.regs)), "raw")
        made: dict[int, object] = {}
        return self.block(self.run(tape, i=blk.regs), [
            blk.comps[k] if tag == "i" else made.setdefault(k, object())
            for tag, k in tape.out])

    def finish(self, blocks: list) -> Callable:
        """``run(data, slots, classes, params)``, computing ``blocks`` in
        one chunk loop: each reply row written by its own instruction
        (else copied), only what the reply needs run, depth-first from
        it, every other value in chunk scratch reused by liveness."""
        rows, homes, copies, placed, objs, index = [], {}, [], {}, [], {}
        for blk in blocks:
            if blk is UNDEF or blk.obj in index:
                continue
            index[blk.obj] = len(objs)
            if isinstance(blk.obj, tuple):  # a rank's input block, moved
                objs.append(blk.obj[1])
                continue
            objs.append([])
            for comp, reg in zip(blk.comps, blk.regs):
                if comp not in placed and comp not in self.inputs:
                    placed[comp] = ("row", len(rows))
                    if reg in homes or reg in self.inputs:
                        copies.append((reg, len(rows)))
                    else:
                        homes[reg] = len(rows)
                    rows.append(self.cls[reg])
                objs[-1].append(placed.get(comp, comp))
        outs = [None if blk is UNDEF else index[blk.obj] for blk in blocks]

        made, order, done = self.made, [], set()
        stack = [r for r in [*homes, *(r for r, _ in copies)][::-1] if r in made]
        while stack:
            ins = made[stack[-1]]
            args = [x for x in ins[1:3] if x in made and x not in done]
            if args:
                stack += args[::-1]
            elif stack.pop() not in done:
                done.add(ins[3])
                order.append(ins)

        ins_at = list(dict.fromkeys(x for x in itertools.chain(
            (x for ins in order for x in ins[1:3]), (r for r, _ in copies),
            *(o for o in objs if isinstance(o, list))) if x in self.inputs))
        at = {None: None, **homes, **{x: len(rows) + k for k, x in enumerate(ins_at)}}
        last = {x: t for t, ins in enumerate(order) for x in ins[1:3]}
        free: dict[int, list[int]] = {}
        scratch: list[int] = []  # class per scratch buffer
        code = []
        for t, (fn, a, b, d) in enumerate(order):
            for x in {a, b}:
                if last[x] == t and x in made and x not in homes:
                    free.setdefault(self.cls[x], []).append(at[x])
            if d not in homes:
                pool = free.setdefault(self.cls[d], [])
                if not pool:
                    pool.append(len(rows) + len(ins_at) + len(scratch))
                    scratch.append(self.cls[d])
                at[d] = pool.pop()
            if isinstance(b, tuple):
                fn, b = _with_const(fn, b[2]), None
            code.append((fn, at[a], at[b], at[d]))
        code += [(_copy, at[r], None, row) for r, row in copies]
        objs = [o if isinstance(o, int) else tuple(
            x[1] if isinstance(x, tuple) else at[x] for x in o) for o in objs]
        srcs = [self.inputs[x] for x in ins_at]

        def run(data: list, slots: list, classes: list,
                params: MachineParams) -> list:
            arrays = [_BLOCKS.empty(*classes[c]) for c in rows]
            arrays += [slots[r][k] for r, k in srcs]
            # one class: chunked; blocks of unequal shapes: whole
            slices = (_chunk_slices(classes[0][0], params)
                      if len(classes) == 1 else [...])
            n = None if slices[0] is ... else slices[0].stop
            bufs = [np.empty(classes[c][0] if n is None else (n,),
                             classes[c][1]) for c in scratch]
            for sl in slices:
                loc = sl if n is None else slice(0, sl.stop - sl.start)
                v = [a[sl] for a in arrays] + [b[loc] for b in bufs]
                for fn, a, b, d in code:
                    if b is None:
                        fn(v[a], out=v[d])
                    else:
                        fn(v[a], v[b], out=v[d])
            reply = [data[o] if isinstance(o, int) else arrays[o[0]]
                     if len(o) == 1 else tuple(arrays[j] for j in o)
                     for o in objs]
            return [UNDEF if k is None else reply[k] for k in outs]

        return run


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


#: one plan step on the tape: the blocks before it -> the blocks after,
#: raising :class:`JitUnsupported` where these blocks decline it
Unroll = Callable[[_Unroller, list], list]


def _bcast(pre: Optional[MapStage], coll: Stage, post: Optional[MapStage],
           label: str) -> Unroll:
    def unroll(u: _Unroller, blocks: list) -> list:
        if not blocks:
            raise JitUnsupported("runtime-shape")
        root = blocks[0]
        for stage in (pre, post):
            root = u.map_block(stage.parts, root) if stage else root
        return [root] * len(blocks)

    return unroll


def _fold(spread: Optional[Callable[[Any, int], list]]) -> "_Jit":
    """A left fold over the ranks, the sandwich's maps on each leaf and
    result; ``spread`` places the folded block on ``p`` ranks (None: a
    scan keeps every prefix)."""

    def prepare(pre: Optional[MapStage], coll: Stage,
                post: Optional[MapStage], label: str) -> Unroll:
        tape = bind(emit_combine(coll.op), "raw")
        pre_tape = bind(emit_map(pre.parts, 1), "raw") if pre else None
        if pre_tape is not None and len(pre_tape.out) != tape.slots:
            raise JitUnsupported(f"slot-shape:{pre.label}")
        post_tape = bind(emit_map(post.parts, tape.slots), "raw") if post else None
        n_in = 1 if pre_tape is not None else tape.slots

        def unroll(u: _Unroller, blocks: list) -> list:
            if (not blocks or any(b is UNDEF or b.regs is None
                                  or len(b.regs) != n_in for b in blocks)
                    or len({u.cls[r] for b in blocks for r in b.regs}) != 1):
                raise JitUnsupported("runtime-shape")
            leaves = [u.run(pre_tape, i=b.regs) if pre_tape else b.regs
                      for b in blocks]
            accs = list(itertools.accumulate(
                leaves, lambda acc, leaf: u.run(tape, a=acc, b=leaf)))
            outs = [u.block(u.run(post_tape, i=acc) if post_tape else acc)
                    for acc in (accs if spread is None else accs[-1:])]
            return outs if spread is None else spread(outs[0], len(blocks))

        return unroll

    return _Jit(prepare, lambda stage, slots: emit_combine(stage.op),
                fold_intervals)


def _derived(pre: Optional[MapStage], coll: Stage, post: Optional[MapStage],
             label: str) -> Unroll:
    """A comcast/iter stage as the steps of its definition (the pre map
    rides the bcast, the post map the last fold).  Exact where its left
    folds and the stage's digit traversal agree: on int64 blocks proven
    overflow-free.  Floats round by combining order: declined here."""
    groups = [[s] for s in coll.definition() or ()]
    if not groups:
        raise JitUnsupported(f"uncompiled:{label}")
    groups[0][:0] = [pre] if pre else []
    groups[-1] += [post] if post else []
    subs = [_prepare(PlanStep("collective", tuple(g), label)) for g in groups]
    for sub in subs:
        if sub.unroll is None:
            raise JitUnsupported(sub.reason)
    # the doubling iteration exists for powers of two only: elsewhere the
    # stage raises, and so must the checked step this one defers to
    pow2_only = isinstance(coll, IterStage) and not coll.general

    def unroll(u: _Unroller, blocks: list) -> list:
        p = len(blocks)
        root = blocks[0] if p else UNDEF
        if (root is UNDEF or root.regs is None
                or u.dtypes[u.cls[root.regs[0]]] != np.int64
                or (pow2_only and p & (p - 1))):
            raise JitUnsupported("runtime-shape")
        for sub in subs:
            blocks = sub.unroll(u, blocks)
        return blocks

    return unroll


@dataclass(frozen=True)
class _Jit:
    """How one stage class unrolls and how it is proven.

    ``unroll(pre, stage, post, label)`` returns the step's :data:`Unroll`
    or raises :class:`JitUnsupported`, the reason to count.  ``tape(stage,
    slots)`` emits what the stage does to a block (None: it only moves
    blocks), ``read`` is its :mod:`repro.jit.bounds` reading; a class
    with neither is proven as the pipeline it is defined by."""

    unroll: Callable[..., Unroll]
    tape: Optional[Callable[[Any, int], Any]] = None
    read: Optional[Callable] = None


#: stage class -> its entry (the ``machine.run._MACHINE`` pattern); a
#: class without one runs the checked kernels (``uncompiled:<stage>``)
_JIT: dict[type, _Jit] = {
    MapStage: _Jit(lambda pre, stage, post, label: lambda u, blocks: [
                       u.map_block(stage.parts, b) for b in blocks],
                   lambda stage, slots: emit_map(stage.parts, slots),
                   map_intervals),
    BcastStage: _Jit(_bcast, lambda stage, slots: None),
    ScanStage: _fold(None),
    ReduceStage: _fold(lambda blk, p: [blk] + [UNDEF] * (p - 1)),
    AllReduceStage: _fold(lambda blk, p: [blk] * p),  # one object, p ranks
    ComcastStage: _Jit(_derived),
    IterStage: _Jit(_derived),
}

#: a plan step and its unrolling (None: always checked, for ``reason``);
#: ``ints_only``: exact on int64 blocks only, declining the rest
_Step = namedtuple("_Step", "plan_step unroll reason ints_only")


def _prepare(step: PlanStep) -> _Step:
    pre, coll, post = _split_sandwich(step)
    entry = _JIT.get(type(coll))
    try:
        if entry is None:
            raise JitUnsupported(f"uncompiled:{step.label}")
        return _Step(step, entry.unroll(pre, coll, post, step.label), "",
                     entry.unroll is _derived)
    except JitUnsupported as exc:
        return _Step(step, None, str(exc), False)


def proof_steps(program: Program) -> tuple[tuple[Callable, Any], ...]:
    """What :func:`repro.jit.bounds.prove` reads for ``program``: per
    value-changing stage of its
    :meth:`~repro.core.stages.Program.through_definitions` reading, its
    table reading and its tape bound to interval rows, slot widths
    threaded from the one-slot input blocks.

    So a stage with a definition (comcast, iter) is proven as that
    pipeline, which is what its tape
    executes — *not* what the engines' digit traversal computes
    (``b^(2^step)`` may leave the hull of the folds), so the proof
    licenses the tape, never the engine carrying the blocks.  Raises
    :class:`JitUnsupported` where a stage or a row states no proof."""
    slots, steps = 1, []
    for stage in program.through_definitions():
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
        return prove(proof_steps(Program(stages)), input_iv, p)
    except JitUnsupported:
        return False


# ---------------------------------------------------------------------------
# Whole-program compilation + bounds gate
# ---------------------------------------------------------------------------


def _hull(a: np.ndarray, exact: bool = False) -> tuple[int, int]:
    """One int64 block's hull in one pass: ``[0, OR]`` when no element
    has the sign bit set (each element's bits are a subset of the OR's),
    else — or when ``exact`` — its ``min``/``max``."""
    if not exact:
        top = int(np.bitwise_or.reduce(a, axis=None))
        if top >= 0:
            return 0, top
    return int(a.min()), int(a.max())


def _input_profile(vec: Sequence[Any]) -> tuple:
    """(dtype regime, int hull[, exact hull thunk]) over all defined input
    arrays: the regime reads every dtype and reduces nothing; the hull is
    :func:`_hull`'s one pass per block — possibly wider than the exact
    ``min``/``max`` hull, which the thunk reads."""
    kinds: set[str] = set()
    ints = []
    for b in vec:
        for a in b if isinstance(b, tuple) else (b,):
            if not isinstance(a, (np.ndarray, np.generic)):
                continue
            a = np.asarray(a)
            if a.dtype not in _OK_DTYPES:
                return "other", (0, 0)
            kinds.add(a.dtype.kind)
            if a.dtype.kind == "i" and a.size:
                ints.append(a)
    if kinds != {"i"}:
        return ("empty" if not kinds else "float" if kinds == {"f"}
                else "other"), (0, 0)

    def join(hulls: list) -> tuple[int, int]:
        return (min((lo for lo, _ in hulls), default=0),
                max((hi for _, hi in hulls), default=0))

    hulls = [_hull(a) for a in ints]  # lo < 0: already min/max
    return "int", join(hulls), lambda: join([
        _hull(a, exact=True) if h[0] == 0 else h for a, h in zip(ints, hulls)])


class CompiledProgram:
    """A vector plan whose supported steps run as register tapes."""

    def __init__(self, plan: VectorPlan, params: MachineParams) -> None:
        self.plan = plan
        self.params = params
        self.steps = [_prepare(s) for s in plan.steps]
        self.fused_stages = sum(len(s.plan_step.stages)
                                for s in self.steps if s.unroll is not None)
        #: why the first always-checked step does not unroll ("" = none)
        self.uncompiled = next(
            (s.reason for s in self.steps if s.unroll is None), ""
        )
        #: the interval reading of the program's tapes, emitted once here —
        #: or why a stage or a row states no proof
        try:
            self.proof, self.unprovable = proof_steps(plan.program), ""
        except JitUnsupported as exc:
            self.proof, self.unprovable = (), str(exc)
        #: (input hull, p) -> prove(self.proof, hull, p), a pure function of
        #: the two: a repeated input skips the interval run
        self._verdicts = BoundedStore(64)
        #: (first step, block signature) -> the register tape from there:
        #: unrolled once per p, slot widths and definedness
        self._tapes = BoundedStore(64)

    def proven_safe(self, profile: tuple, p: int) -> tuple[bool, str]:
        """One static range check per program: may every guard be dropped?
        Proven on the profile's hull, else on its exact hull: a proof
        of a hull holds for every hull inside it."""
        regime, *hulls = profile
        if regime in ("float", "empty"):
            return True, ""
        if regime != "int":
            return False, "dtype-unproven"
        if self.unprovable:
            return False, self.unprovable
        for iv in hulls:
            key = (iv() if callable(iv) else iv, max(p, 1))
            safe = self._verdicts.get(key)
            if safe is None:
                safe = prove(self.proof, *key)
                self._verdicts.put(key, safe)
            if safe:
                return True, ""
        return False, "bounds-unproven"

    def pretty(self) -> str:
        lines = []
        for s in self.steps:
            tag = "jit " if s.unroll is not None else "kern"
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
        data, i, regime = list(vec), 0, profile[0]
        full = bool(self.steps)
        while True:
            if proven:
                data, covered = self._tape(i, data)
                i += covered
            if i == len(self.steps):
                break
            st = self.steps[i]
            if st.reason or proven:  # never unrolls, or these blocks decline it
                STATS.fallbacks[st.reason or (
                    f"{regime}-blocks" if st.ints_only and regime != "int"
                    else "runtime-shape")] += 1
            data = st.plan_step.run(data)
            STATS.kernelized_steps += 1
            full = False
            i += 1
        STATS.full_jit_runs += full
        return data

    def run_compiled(self, vec: Sequence[Any]) -> Optional[list]:
        """Every step on register tapes, or None once one declines —
        for callers that have proven the run overflow-free and hold a
        lower rung to drop to (the engines' fused rung): no profiling, no
        checked fallback, never raises ``KernelFallback``."""
        data, covered = self._tape(0, list(vec))
        return data if covered == len(self.steps) else None

    def _tape(self, start: int, data: list) -> tuple[list, int]:
        """Run as many steps from ``start`` as ``data`` lets unroll, as
        one chunk loop; the blocks after them and how many ran."""
        sig, classes, slots = _signature(data)
        key = (start, sig, tuple(dtype for _, dtype in classes))
        tape = self._tapes.get(key)
        if tape is None:
            u, covered = _Unroller(key[2]), 0
            blocks = [u.take(rank, s) for rank, s in enumerate(sig)]
            for st in itertools.takewhile(lambda st: st.unroll,
                                          self.steps[start:]):
                try:
                    blocks = st.unroll(u, blocks)
                except JitUnsupported:
                    break
                covered += 1
            tape = (covered, u.finish(blocks) if covered else None)
            self._tapes.put(key, tape)
        covered, run = tape
        if covered:
            STATS.compiled_steps += covered
            data = run(data, slots, classes, self.params)
        return data, covered

    @cached_property
    def token_program(self) -> Program:
        """The kernelized program with every function reduced to
        definedness bookkeeping: what the engine schedules on the fused
        rung."""
        return Program(
            [rebuild_stage(st, lambda st: _token_map,
                           lambda op: op.with_fn(_token_op))
             for st in self.plan.program.stages],
            name=self.plan.program.name)


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------

_COMPILE_CACHE = BoundedStore(256)


def clear_jit_cache() -> None:
    """Drop every compiled program (with its token program) and every
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


def _token_map(x: Any) -> Any:
    return x


def _token_op(a: Any, b: Any) -> Any:
    return a


@dataclass(frozen=True)
class EngineLowering:
    """What a simulated engine is handed under ``jit=True``, and why.

    ``rung`` is ``"fused"`` (values from the compiled register tapes while
    the engine schedules ``program`` on :data:`DEFINED` tokens) or
    ``"checked"`` (the engine carries the blocks through the
    overflow-checked kernels); ``why`` is the reason the fused rung was
    declined.  A fused lowering also holds the compiled program and, in
    ``below``, the checked rung to drop to.
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

    * ``"fused"`` — every plan step unrolls onto a register tape (a
      map/scan/reduce/allreduce/bcast, or a comcast/iter stage through
      its definition) and every input is a defined, conforming int64
      array whose hull the bounds analysis proves overflow-free.  Then
      every combining order yields the same int64, so the kernels' left
      fold agrees bit for bit with the engine's butterfly or digit
      traversal and the engine need only schedule.
    * ``"checked"`` — the plain kernelized program, carrying the blocks
      in the engine's own combining order (float blocks round by it).

    What only the run can tell — a non-empty fault plan, a step
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
    low = EngineLowering("checked", "", cp.plan.program, vec)
    profile = _input_profile(vec)
    why = (cp.uncompiled or cp.proven_safe(profile, len(vec))[1]
           or (f"{profile[0]}-blocks" if profile[0] != "int" else "")
           or ("nonconforming-input" if _conform(vec, 1) is None else ""))
    if why:
        STATS.fallbacks[why] += 1
        return replace(low, why=why)
    STATS.full_jit_runs += 1
    return EngineLowering("fused", "", cp.token_program, [DEFINED] * len(vec),
                          cp, low)


def _run_fused(run: Callable, low: EngineLowering, faults: Any) -> Any:
    """Kernel values joined with a token run's schedule — or None, reason
    counted, where only the run can tell the fused rung does not apply:
    a fault plan makes definedness depend on the schedule, a step may
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
