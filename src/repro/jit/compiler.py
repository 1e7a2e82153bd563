"""The JIT compiler: fused vector plans -> one register tape per run of steps.

Input is the same :class:`~repro.kernels.evaluator.VectorPlan` the
vectorized tier executes.  Each maximal run of supported plan steps is
traced over the ``p`` ranks into **one straight-line register tape**
and run as one chunk loop:

* every operator runs the same tape the bounds proof reads
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

The compiler traces the spec (:func:`_trace`): a step's stages — a
``comcast``/``iter`` as the pipeline it is defined by — run by their own
``apply``, their operators rebuilt to run their tapes on registers, so
the tape makes the spec's applications in the spec's bracketing.  A
tape is traced once per block signature (``p``, slot widths,
definedness) and kept on the program.

The same trace over Python int / bool blocks, bound to the rows'
``exact`` templates, is emitted as one generated Python function
(:meth:`CompiledProgram.exact_tape`): what a served resident hit
computes its values with (:func:`exact_evaluator`), once it has agreed
with the spec.

What the compiler cannot prove or lower falls back *per step* to the
checked kernelized ``PlanStep.run`` — bit-identical by construction —
every fallback bumps a reason counter in :mod:`repro.jit.stats`, and
the steps after it run on a tape again.

The module also decides how the simulated engines run under
``jit=True`` (:func:`engine_lower`, :func:`run_engine_ladder`).  The
machine model charges time by which blocks are defined, never by what
they hold, so the first rung computes the *values* on the tape and lets
the engine schedule the same kernelized stages on definedness tokens;
below it sit the checked kernels and the object-mode replay.  Every rung
keeps each cost annotation: JIT changes wall-clock only.
"""

from __future__ import annotations

import functools
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
    KernelUnsupported,
    devectorize_block,
    vectorize_block,
)
from repro.kernels.evaluator import PlanStep, VectorPlan, build_plan, run_lowered
from repro.kernels.lowering import rebuild_stage
from repro.kernels.registry import Primitive, map_rows, primitive, registry_version
from repro.machine.run import DEFINED, _read, rank_program, resident_run, run_ranks
from repro.obs import TRACER
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
    "ExactTape",
    "exact_evaluator",
    "exact_verdict",
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


def emit_combine(op: BinOp, exact: bool = False) -> Tape:
    """Flatten ``op`` to a :class:`Tape` (or raise JitUnsupported).

    The one walk over ``kind`` / ``parts`` under ``repro.jit``: an
    operator with a row is one instruction on one slot, and each
    argument's slots are numbered in the order the walk reaches them.
    ``exact``: the slots are a Python block's own components, which an
    ``op_sr2`` or a product of rows reads as the walk does; an ``ew``
    lift (whose ``fn`` reads a block as a list) and a product of
    compositions (which nests its tuples) decline."""
    instrs: list[tuple] = []

    def emit(op: BinOp, a: Any, b: Any) -> list:
        row = primitive(op)
        if row is not None:
            instrs.append((row, next(a), next(b), len(instrs)))
            return [("t", len(instrs) - 1)]
        if op.kind == "ew" and not exact:
            return emit(op.parts[0], a, b)
        if op.kind == "sr2":
            otimes, oplus = op.parts
            s1, r1, s2, r2 = next(a), next(a), next(b), next(b)
            return [scalar(oplus, s1, scalar(otimes, r1, s2)),
                    scalar(otimes, r1, r2)]
        if op.kind == "product" and not (
                exact and None in map(primitive, op.parts)):
            return [ref for part in op.parts for ref in emit(part, a, b)]
        raise JitUnsupported(f"no-{'exact' if exact else 'raw'}:{op.name}")

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
    ``"raw"`` (the ufuncs a register tape calls), ``"interval"`` (what
    :mod:`repro.jit.bounds` interprets) or ``"exact"`` (the source
    templates a served hit's generated function is written from).
    Raises :class:`JitUnsupported` naming the row that does not state it."""

    def read(row: Primitive) -> Callable:
        fn = getattr(row, reading)
        if fn is None:
            raise JitUnsupported(f"no-{reading}:{row.name}")
        return fn

    return replace(tape, instrs=tuple(
        (read(row), *rest) for row, *rest in tape.instrs))


# ---------------------------------------------------------------------------
# Register tapes: a run of plan steps traced over the ranks
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


def _copy(a: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, a)


def _with_const(fn: Callable, const: Any) -> Callable:
    return lambda a, out: fn(a, const, out=out)


def _signature(data: Sequence[Any]) -> tuple[tuple, list, list]:
    """Per rank None (UNDEF), False (a block no tape reads) or ``(slots,
    class)`` — a block whose slots are same-shaped 1-D/0-D arrays of one
    raw-safe dtype — classes numbered by first ``(shape, dtype)`` seen;
    with the classes and each rank's slot arrays."""
    classes: dict[tuple, int] = {}
    sig, slots = [], []
    for b in data:
        s = None if b is UNDEF else _block_slots(
            b, len(b) if isinstance(b, tuple) else 1)
        if s and (s[0].ndim > 1 or s[0].dtype not in _OK_DTYPES or len(s) > 1
                  and any(a.shape != s[0].shape or a.dtype != s[0].dtype
                          for a in s)):
            s = None
        slots.append(s)
        sig.append((len(s), classes.setdefault((s[0].shape, s[0].dtype),
                                               len(classes)))
                   if s else None if b is UNDEF else False)
    return tuple(sig), list(classes), slots


@dataclass(eq=False, slots=True)
class _Blk:
    """A block on the tape: its object's identity (``("rank", r)``: rank
    r's input), a register per slot (None: not read) and each slot's
    identity.  It indexes as its slots, one-slot blocks (or ``UNDEF``), so
    a stage's ``apply`` takes it apart as it takes a tuple apart."""

    obj: Any
    regs: Optional[tuple]
    comps: Any

    def __getitem__(self, k: int) -> Any:
        reg, comp = self.regs[k], self.comps[k]
        return UNDEF if reg is UNDEF else _Blk(comp, (reg,), (comp,))


class _Unroller:
    """Stages run symbolically over the ranks: one value-numbered
    ``(ufunc, src, src|const, dst)`` instruction per distinct primitive
    application, read off the :func:`emit_combine` / :func:`emit_map`
    tapes the bounds proof reads.  Identities follow the step kernels'
    (a bcast hands one object to every rank, a map keeps the arrays it
    only moves, a fold writes a fresh row per slot), so a reply aliases
    what a step-by-step run's did.

    ``dtypes`` None unrolls *exact* blocks instead — Python int / bool
    leaves (one register) and flat tuples of them — on the rows' ``exact``
    templates, for :meth:`exact`.  There a slot may be ``UNDEF`` (a
    balanced butterfly's ``missing``); an application that meets one
    declines, since only the spec's lifted combines propagate it."""

    def __init__(self, dtypes: Optional[Sequence[np.dtype]]) -> None:
        self.dtypes = dtypes
        self.reading = "raw" if dtypes is not None else "exact"
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
        """``tape`` (bound to this unroller's reading) on registers:
        ``i=`` a map's slots, ``a=`` / ``b=`` a combine's operands."""
        regs["t"] = tmps = []
        for fn, x, y, *_ in tape.instrs:
            if isinstance(y, tuple):
                y = regs[y[0]][y[1]]
            elif y is not None:
                y = ("c", type(y), y)
            tmps.append(self.apply(fn, regs[x[0]][x[1]], y))
        return [regs[tag][k] for tag, k in tape.out]

    def apply(self, fn: Any, a: int, b: Any) -> int:
        """The register of ``fn(a, b)`` (``b``: a register, a
        ``("c", type, value)`` constant or None), one instruction per
        distinct application."""
        if a is UNDEF or b is UNDEF:
            raise JitUnsupported("runtime-shape")
        key = (fn, a, b)
        reg = self.vn.get(key)
        if reg is None:
            reg = self.vn[key] = len(self.cls)
            self.cls.append(self.cls[a])
            self.made[reg] = (*key, reg)
        return reg

    def block(self, regs: Sequence[int], comps: Sequence = ()) -> _Blk:
        comps = tuple(comps) or tuple(object() for _ in regs)
        return _Blk(comps[0] if len(comps) == 1 else object(),
                    tuple(regs), comps)

    def map_block(self, parts: Sequence[tuple[str, Callable]],
                  blk: Any) -> Any:
        """The map of ``parts`` on one block (UNDEF passes).  On exact
        blocks a projection onto an ``UNDEF`` component is ``UNDEF``, as
        ``safe_pi1`` is; a fused map that would go on from one declines
        (the spec's stages, fused or not, disagree there)."""
        if blk is UNDEF:
            return UNDEF
        if blk.regs is None or (self.dtypes is None and len(parts) > 1
                                and UNDEF in blk.regs):
            raise JitUnsupported("runtime-shape")
        tape = bind(emit_map(parts, len(blk.regs)), self.reading)
        regs = self.run(tape, i=blk.regs)
        if regs == [UNDEF]:
            return UNDEF
        made: dict[int, object] = {}
        return self.block(regs, [
            blk.comps[k] if tag == "i" else made.setdefault(k, object())
            for tag, k in tape.out])

    def combine(self, tape: Tape, a: Any, b: Any) -> _Blk:
        """``tape`` (an operator's) on two blocks, as a fresh block."""
        if a is UNDEF or b is UNDEF:
            raise JitUnsupported("runtime-shape")
        return self.block(self.run(tape, a=a.regs, b=b.regs))

    def settle(self, out: list, given: list, fresh: bool, label: str) -> list:
        """A stage's ``apply`` result as blocks, one per object: a block it
        was ``given`` anew where the stage is ``fresh`` (has an operator),
        a state's tuple of one-slot blocks as one block, anything else (a
        tuple of given blocks is a gathered list) ``uncompiled:<label>``."""
        ids, made = {id(b) for b in given}, {}
        for x in out:
            if x is UNDEF or id(x) in made:
                continue
            if isinstance(x, _Blk):
                made[id(x)] = self.block(x.regs) if fresh and id(x) in ids else x
            elif isinstance(x, tuple) and all(
                    c is UNDEF or isinstance(c, _Blk) and len(c.regs) == 1
                    and id(c) not in ids for c in x):
                made[id(x)] = self.block([c if c is UNDEF else c.regs[0]
                                          for c in x])
            else:
                raise JitUnsupported(f"uncompiled:{label}")
        return [x if x is UNDEF else made[id(x)] for x in out]

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

    def exact(self, sig: tuple, blocks: list) -> tuple[Callable, str]:
        """``blocks``, unrolled from inputs of :func:`_exact_signature`
        ``sig``, as one generated Python function of the input list and
        its source.  Each register is a local, each instruction its row's
        ``exact`` template, and only what the reply needs is computed,
        in register order (an operand is always an earlier register).
        Constants, ``UNDEF`` and ``bool`` are bound through the
        function's namespace, so the source holds register and constant
        names and the rows' templates — nothing a program, an operator
        or a label says."""
        consts: dict[tuple, str] = {}

        def ref(x: Any) -> str:
            if x is UNDEF:
                return "U"
            if isinstance(x, tuple):  # ("c", type, value)
                return consts.setdefault(x, f"c{len(consts)}")
            return f"r{x}"

        need, stack = set(), [r for b in blocks if b is not UNDEF
                              for r in b.regs if r is not UNDEF]
        while stack:
            r = stack.pop()
            if r not in need:
                need.add(r)
                stack += [x for x in self.made.get(r, ())[1:3]
                          if isinstance(x, int)]
        slot = {at: r for r, at in self.inputs.items() if r in need}

        def target(rank: int, n: int) -> str:
            """The unpacking target of rank ``rank``'s input (``_``:
            nothing of it is read)."""
            names = [ref(slot[rank, k]) if (rank, k) in slot else "_"
                     for k in range(n)]
            if names.count("_") == n:
                return "_"
            return names[0] if n == 1 else f"({', '.join(names)})"

        lines = ["def tape(xs):"]
        if slot:
            lines.append("    " + ", ".join(
                target(rank, n) for rank, n in enumerate(sig)) + ", = xs")
        for r in sorted(need & self.made.keys()):
            fn, a, b, _ = self.made[r]
            lines.append(f"    r{r} = " + fn.format(
                a=ref(a), b=None if b is None else ref(b)))
        reply, tuples = [], {}
        for blk in blocks:
            if blk is UNDEF or len(blk.regs) == 1:
                reply.append(ref(blk if blk is UNDEF else blk.regs[0]))
                continue
            if blk.obj not in tuples:
                tuples[blk.obj] = f"t{len(tuples)}"
                lines.append(f"    {tuples[blk.obj]} = "
                             f"({', '.join(map(ref, blk.regs))})")
            reply.append(tuples[blk.obj])
        lines.append(f"    return [{', '.join(reply)}]")
        source = "\n".join(lines) + "\n"
        space = {"__builtins__": {}, "bool": bool, "U": UNDEF,
                 **{name: key[2] for key, name in consts.items()}}
        exec(compile(source, "<exact tape>", "exec"), space)
        return space["tape"], source


#: how the bounds proof reads a stage class: ``tape(stage, slots)`` (None: it
#: only moves blocks) and ``read``, its :mod:`repro.jit.bounds` reading; a
#: class with neither is proven (and traced) as the pipeline it is defined by
_Jit = namedtuple("_Jit", "tape read", defaults=(None, None))

_FOLD = _Jit(lambda stage, slots: emit_combine(stage.op), fold_intervals)

#: stage class -> its proof row (the ``machine.run._MACHINE`` pattern): the
#: classes the ``raw`` reading traces; a class without one runs the checked
#: kernels on arrays (``uncompiled:<stage>``)
_JIT: dict[type, _Jit] = {
    MapStage: _Jit(lambda stage, slots: emit_map(stage.parts, slots),
                   map_intervals),
    BcastStage: _Jit(lambda stage, slots: None),
    ScanStage: _FOLD,
    ReduceStage: _FOLD,
    AllReduceStage: _FOLD,
    ComcastStage: _Jit(),
    IterStage: _Jit(),
}

#: a plan step and its unrolling (None: always checked, for ``reason``);
#: ``ints_only``: exact on int64 blocks only, declining the rest
_Step = namedtuple("_Step", "plan_step unroll reason ints_only")


def _trace(step: PlanStep, reading: str = "raw") -> _Step:
    """``step`` with its unrolling over blocks of ``reading`` (raising
    :class:`JitUnsupported` where they decline it): its stages through
    their definitions, rebuilt so maps run :meth:`_Unroller.map_block`
    and operators :meth:`_Unroller.combine` on their tapes, run by their
    own ``apply``.  Checked beside the spec: a fold's blocks are its
    operator's operands, also where it applies none (one rank); a
    derived step's ``raw`` reading is int64-only (its folds agree with
    the stage's digit traversal there alone); a non-``general`` iter
    runs at powers of two only.  ``uncompiled:<label>``: a stage without
    a proof row on ``raw``, without ``rebuild`` on ``exact``, or reading
    its blocks' lengths (``words_follow_block``)."""
    stages = Program(step.stages).through_definitions().stages
    exact = reading == "exact"
    tapes: list[list[Tape]] = []  # per stage, its operators' tapes

    def emit(op: BinOp) -> BinOp:
        tapes[-1].append(bind(emit_combine(op, exact), reading))
        return op

    try:
        for stage in stages:
            tapes.append([])
            row = _JIT.get(type(stage))
            if (stage.words_follow_block
                    or not exact and (row is None or row.tape is None)
                    or stage.rebuild(lambda st: None, emit) is None):
                raise JitUnsupported(f"uncompiled:{step.label}")
    except JitUnsupported as exc:
        return _Step(step, None, str(exc), False)
    ints_only = not exact and len(stages) > len(step.stages)
    pow2_only = any(isinstance(s, IterStage) and not s.general
                    for s in step.stages)

    def unroll(u: _Unroller, blocks: list) -> list:
        root = blocks[0] if blocks else UNDEF
        if (pow2_only and len(blocks) & (len(blocks) - 1)) or (
                ints_only and root is not UNDEF and root.regs
                and u.dtypes[u.cls[root.regs[0]]] != np.int64):
            raise JitUnsupported("runtime-shape")
        for stage, made in zip(stages, tapes):
            if _JIT.get(type(stage)) is _FOLD and not (blocks and all(
                    b is not UNDEF and b.regs and len(b.regs) == made[0].slots
                    and UNDEF not in b.regs for b in blocks) and len(
                        {u.cls[r] for b in blocks for r in b.regs}) == 1):
                raise JitUnsupported("runtime-shape")
            ops = iter(made)
            rebuilt = stage.rebuild(
                lambda st: functools.partial(u.map_block, st.parts),
                lambda op: op.with_fn(functools.partial(u.combine, next(ops))))
            try:
                out = rebuilt.apply(blocks)
            except (TypeError, ValueError):  # a block of the wrong shape
                raise JitUnsupported("runtime-shape") from None
            blocks = u.settle(out, blocks, bool(made), step.label)
        return blocks

    return _Step(step, unroll, "", ints_only)


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
        self.steps = [_trace(s) for s in plan.steps]
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

    def exact_tape(self, sig: tuple) -> "ExactTape":
        """Every step unrolled over exact blocks of
        :func:`_exact_signature` ``sig`` and emitted as one generated
        function (:meth:`_Unroller.exact`), or why a step declines them.
        Built, not kept: :func:`exact_evaluator` keeps it in
        ``_EXACT_TAPES`` once it has agreed with the spec."""
        version, u = registry_version(), _Unroller(None)
        blocks = [u.take(rank, (n, 0) if n else None)
                  for rank, n in enumerate(sig)]
        try:
            for step in self.plan.steps:
                st = _trace(step, "exact")
                if st.unroll is None:
                    raise JitUnsupported(st.reason)
                blocks = st.unroll(u, blocks)
        except JitUnsupported as exc:
            return ExactTape(None, "", str(exc), version)
        return ExactTape(*u.exact(sig, blocks), "", version)

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


#: a program's exact tape for one block signature: the generated function
#: (None: declined), its source, why it was declined ("" = kept) and the
#: :func:`~repro.kernels.registry.registry_version` it was built under
ExactTape = namedtuple("ExactTape", "run source why version")

#: (program, exact block signature) -> its ExactTape, as the first hit of
#: that signature checked it against the spec: what a served hit looks up
_EXACT_TAPES = BoundedStore(256)


def _exact_signature(blocks: Sequence[Any]) -> Optional[tuple]:
    """Per rank 0 (``UNDEF``), 1 (a Python int or bool) or ``n`` ≥ 2 (a
    flat tuple of ``n`` of them): the blocks an exact tape takes.  None
    when some block is anything else.  A served hit has it from the
    schedule lookup's one read of its inputs."""
    return _read(blocks, signed=True)[3]


def _identical(x: Any, y: Any) -> bool:
    """Equal in value and type, with ``UNDEF`` in the same places, down
    every list and tuple."""
    if type(x) is not type(y):
        return False
    if type(x) in (list, tuple):
        return len(x) == len(y) and all(map(_identical, x, y))
    return x == y


def _agrees(run: Callable, inputs: Sequence[Any], values: list) -> bool:
    """Does ``run(inputs)`` give ``values``, :func:`_identical`ly?  A
    template a registration got wrong may raise: that is a no."""
    try:
        return _identical(run(inputs), values)
    except Exception:
        return False


def _exact_entry(program: Program, sig: Optional[tuple]) -> tuple:
    """``(compiled program, kept ExactTape, why)`` for ``program`` on
    blocks of exact signature ``sig``: the tape ``_EXACT_TAPES`` keeps
    under the current kernel registry (no compiled program is looked
    up), else the compiled program to build it with, else why no tape
    can be looked up — counted in ``STATS.exact``."""
    if sig is None:
        why = "inexact-input"
    else:
        try:
            tape = _EXACT_TAPES.get((program, sig))
        except TypeError:  # an unhashable program is never a resident hit
            why = "unhashable-program"
        else:
            if tape is not None and tape.version == registry_version():
                return None, tape, ""
            try:
                return compiled_program(program), None, ""
            except KernelUnsupported:
                why = "unsupported-program"
    STATS.exact[why] += 1
    return None, None, why


def _first_hit(cp: CompiledProgram, program: Program, sig: tuple,
               inputs: Sequence[Any]) -> list:
    """The spec's values on ``inputs``, with the exact tape of ``sig``
    built beside them (the ``jit.lower`` span), kept in
    ``_EXACT_TAPES`` and its verdict counted in ``STATS.exact``: as built
    when its values are :func:`_identical` to the spec's, else declined
    (``exact-disagree``, or ``evaluator-raised`` when the spec raises,
    which is raised on)."""
    if TRACER.enabled:
        with TRACER.span("jit.lower") as traced:
            return _build_exact(cp, program, sig, inputs, traced)
    return _build_exact(cp, program, sig, inputs, None)


def _build_exact(cp: CompiledProgram, program: Program, sig: tuple,
                 inputs: Sequence[Any], traced: Any) -> list:
    """The body of :func:`_first_hit`; ``traced`` is its span, if any."""
    tape = cp.exact_tape(sig)
    try:
        values = program.through_definitions().run(inputs)
    except Exception:
        tape = tape._replace(run=None, why=tape.why or "evaluator-raised")
        raise
    else:
        if tape.run is not None and not _agrees(tape.run, inputs, values):
            tape = tape._replace(run=None, why="exact-disagree")
    finally:
        _EXACT_TAPES.put((program, sig), tape)
        outcome = tape.why or "exact"
        STATS.exact[outcome] += 1
        if traced is not None:
            traced.outcome = outcome
    return values


def exact_evaluator(program: Program, inputs: Sequence[Any], hit: bool,
                    sig: Optional[tuple] = None) -> Callable[[], list]:
    """How a cooperative served job computes its values: the ``evaluate``
    thunk :func:`~repro.machine.run.resident_run` calls.

    On a resident hit (``hit``) of exact blocks it is the program's exact
    tape for the blocks' signature ``sig`` (read here when the caller
    passes none; :func:`~repro.machine.run.resident_schedule` has read
    it), kept in ``_EXACT_TAPES``: one store lookup, one generated
    function, no ``BinOp`` frame.  The first hit of a signature — or the
    first after the kernel registry changed — builds the tape
    (:func:`_first_hit`) and runs the spec, so a miss never builds one.
    Everything else — a miss (the engine runs then anyway), inexact
    blocks, a program without kernels, a declined tape — computes with
    ``program.through_definitions().run`` as before."""
    if hit:
        if sig is None:
            sig = _exact_signature(inputs)
        cp, tape, _ = _exact_entry(program, sig)
        if cp is not None:
            return lambda: _first_hit(cp, program, sig, inputs)
        if tape is not None and tape.run is not None:
            run = tape.run
            return lambda: run(inputs)
    return lambda: program.through_definitions().run(inputs)


def exact_verdict(program: Program, inputs: Sequence[Any]) -> str:
    """``"exact"`` when a served hit of ``program`` on blocks shaped like
    ``inputs`` computes with its exact tape, else the reason it does not;
    the tape is built, checked on ``inputs`` and kept here (its verdict
    counted) if no hit has built it yet."""
    sig = _exact_signature(inputs)
    cp, kept, why = _exact_entry(program, sig)
    if cp is not None:
        try:
            _first_hit(cp, program, sig, inputs)
        except Exception:  # the spec raised: the tape keeps the reason
            pass
        kept = _EXACT_TAPES.get((program, sig))
    return why or kept.why or "exact"


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------

_COMPILE_CACHE = BoundedStore(256)


def clear_jit_cache() -> None:
    """Drop every compiled program (with its token program), every
    exact tape and every idle block buffer."""
    _COMPILE_CACHE.clear()
    _EXACT_TAPES.clear()
    _BLOCKS.clear()


def compiled_program(
    program: Program, params: Optional[MachineParams] = None
) -> CompiledProgram:
    """Compile (or fetch from cache) the JIT plan for ``program``.

    Raises :class:`~repro.kernels.blocks.KernelUnsupported` when the
    program cannot even be kernelized — the static skip, which the cache
    keeps as it keeps a compile.  The cache key includes the chunking
    params and the kernel-registry version, so a stale compile (or skip)
    can never be served after either changes.
    """
    params = params if params is not None else DEFAULT_LOCAL_PARAMS
    key = (program, params, registry_version())
    try:
        hit = _COMPILE_CACHE.get(key)
    except TypeError:  # unhashable program part: compiled, never resident
        hit = key = None
    if hit is not None:
        STATS.cache_hits += 1
        if isinstance(hit, KernelUnsupported):  # the kept static skip
            raise type(hit)(*hit.args)
        return hit
    STATS.cache_misses += 1
    try:
        plan = build_plan(program)
    except KernelUnsupported as exc:
        if key is not None:  # kept without its traceback's frames
            _COMPILE_CACHE.put(key, type(exc)(*exc.args))
        raise
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
    """Decide how a simulated engine runs ``program`` under ``jit=True``:
    the first rung whose conditions the program and these inputs meet.

    * ``"fused"`` — every plan step is traced onto a register tape and
      every input is a defined, conforming int64 array whose hull the
      bounds analysis proves overflow-free.  Then every combining order
      yields the same int64, so the tape's left folds agree bit for bit
      with the engine's butterfly or digit traversal and the engine need
      only schedule.
    * ``"checked"`` — the plain kernelized program, carrying the blocks
      in the engine's own combining order (float blocks round by it).

    What only the run can tell — a non-empty fault plan, a step
    declining its runtime blocks — is settled by
    :func:`run_engine_ladder`, which then drops ``"fused"`` to ``below``.
    ``params`` is not consulted (the kernels chunk by
    :data:`DEFAULT_LOCAL_PARAMS`).  Raises
    :class:`~repro.kernels.blocks.KernelUnsupported` when not even
    kernelizable.  The lowering is the ``jit.lower`` span, whose
    ``outcome`` is ``fused`` or the reason the fused rung was declined
    (``unsupported`` when not even kernelizable).
    """
    STATS.runs += 1
    if TRACER.enabled:
        with TRACER.span("jit.lower") as traced:
            traced.outcome = "unsupported"
            cp, low, why = _lower(program, inputs)
            traced.outcome = why or "fused"
    else:
        cp, low, why = _lower(program, inputs)
    if why:
        STATS.fallbacks[why] += 1
        return replace(low, why=why)
    STATS.full_jit_runs += 1
    return EngineLowering("fused", "", cp.token_program,
                          [DEFINED] * len(low.inputs), cp, low)


def _lower(program: Program, inputs: Sequence[Any]
           ) -> tuple[CompiledProgram, EngineLowering, str]:
    """The body of :func:`engine_lower`: the compiled program, its
    checked rung and why the fused one declines ("" when it does not);
    raises :class:`~repro.kernels.blocks.KernelUnsupported` when not
    even kernelizable."""
    vec = [vectorize_block(x) for x in inputs]  # may raise KernelUnsupported
    cp = compiled_program(program)  # may raise KernelUnsupported
    low = EngineLowering("checked", "", cp.plan.program, vec)
    profile = _input_profile(vec)
    why = (cp.uncompiled or cp.proven_safe(profile, len(vec))[1]
           or (f"{profile[0]}-blocks" if profile[0] != "int" else "")
           or ("nonconforming-input"
               if set(_signature(vec)[0]) != {(1, 0)} else ""))
    return cp, low, why


def _run_fused(engine: str, low: EngineLowering, params: MachineParams,
               faults: Any) -> Any:
    """Kernel values joined with a token run's schedule — or None, reason
    counted, where only the run can tell the fused rung does not apply:
    a fault plan makes definedness depend on the schedule, a step may
    decline its runtime blocks, and the token run must leave ``UNDEF``
    exactly where the kernels do.  The cooperative engine keeps token
    schedules resident (:func:`~repro.machine.run.resident_run`) and
    answers without running; any other runs the tokens itself."""
    if faults is not None and not faults.is_empty:
        why = "fault-plan"
    else:
        values = low.compiled.run_compiled(low.below.inputs)
        if values is None:
            why = "runtime-shape"
        else:
            values = tuple(map(devectorize_block, values))
            if engine == "cooperative":
                result, why = resident_run(low.program, low.inputs, params,
                                           lambda: values, faults=faults)
                if why in ("hit", "miss"):
                    return result
            else:
                result = run_ranks(engine, rank_program(low.program.stages),
                                   low.inputs, params, faults=faults)
                if all((t is UNDEF) == (v is UNDEF)
                       for t, v in zip(result.values, values)):
                    return replace(result, values=values)
                why = "schedule-mismatch"
    STATS.fallbacks[why] += 1
    return None


def run_engine_ladder(
    engine: str,
    program: Program,
    inputs: Sequence[Any],
    params: MachineParams,
    faults: Any,
) -> Any:
    """The kernel ladder every engine shares (``simulate_program(jit=True)``).

    Lowers with :func:`engine_lower` and runs the rung it picks on
    ``engine`` (:func:`~repro.machine.run.run_ranks`): the fused rung's
    token run, or the checked kernels, dropped to when the fused rung
    declines at run time.  Returns the engine's
    :class:`~repro.machine.engine.SimResult` with object-mode values, or
    None when no kernel rung applies — not kernelizable, or a checked
    kernel met an int64 overflow — and the caller must run ``program``
    itself in object mode.
    """
    def descend(low: EngineLowering) -> Any:
        if low.below is not None:
            result = _run_fused(engine, low, params, faults)
            if result is not None:
                return result
            low = low.below
        result = run_ranks(engine, rank_program(low.program.stages),
                           low.inputs, params, faults=faults)
        return replace(result,
                       values=tuple(map(devectorize_block, result.values)))

    return run_lowered(
        {"unsupported": lambda: engine_lower(program, inputs, params)},
        descend, lambda: None)
