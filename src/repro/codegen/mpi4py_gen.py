"""Code generation: stage Programs → runnable mpi4py scripts.

The paper's rules are meant to optimize *real* MPI programs; this
backend closes the loop.  Given a (possibly optimized) Program, it emits
a self-contained Python script against ``mpi4py.MPI``:

* base collectives map to ``comm.scan`` / ``comm.reduce`` /
  ``comm.allreduce`` / ``comm.bcast`` / ``comm.allgather`` with custom
  ``MPI.Op`` objects built from the operator table;
* rule-introduced stages lower to their definitions —
  comcast becomes ``comm.bcast`` + the ``repeat`` digit loop,
  ``iter`` becomes the local doubling loop, balanced collectives become
  explicit ``sendrecv`` butterflies / tree exchanges (matching
  :mod:`repro.machine.collectives` step for step);
* local stages call user-supplied functions, looked up by label in a
  FUNCTIONS table the caller fills in.

Generated scripts parse and compile standalone (tested); with mpi4py
installed they run under ``mpiexec -n <p> python script.py``.

The generator needs each operator's *source expression* — a Python
lambda/function text for combining two values — supplied through an
:class:`OpTable` keyed by operator object (defaults cover the standard
zoo; ``op_sr2`` pairs, ``ew`` lifts and the ``bs`` comcast base are
derived from their parts).  ``MPI.Op.Create`` is told the operator's own
``commutative`` flag; an operator's name is only printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.operators import ADD, AND, CONCAT, FADD, FMUL, MAX, MIN, MUL, OR, BinOp
from repro.core.stages import (
    AllGatherStage,
    AllGatherVStage,
    GatherStage,
    ReduceScatterStage,
    ScatterStage,
    AllReduceStage,
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
)

__all__ = ["OpTable", "generate_mpi4py", "CodegenError"]


class CodegenError(ValueError):
    """The program contains something the backend cannot lower."""


#: source expressions for the standard operator zoo
_DEFAULT_OPS = {
    ADD: "lambda a, b: a + b",
    FADD: "lambda a, b: a + b",
    MUL: "lambda a, b: a * b",
    FMUL: "lambda a, b: a * b",
    MAX: "max",
    MIN: "min",
    CONCAT: "lambda a, b: a + b",
    AND: "lambda a, b: a and b",
    OR: "lambda a, b: a or b",
}


@dataclass
class OpTable:
    """Maps operators (by value: a namesake of a catalogue operator has
    no source) to Python source expressions; unknown operators raise
    :class:`CodegenError` with a hint to register them.
    """

    sources: dict[BinOp, str] = field(default_factory=lambda: dict(_DEFAULT_OPS))

    def register(self, op: BinOp, source: str) -> None:
        self.sources[op] = source

    def source_of(self, op: BinOp) -> str:
        """``op``'s registered source, or one composed from its parts:
        ``op_sr2[ot,op]`` is ``(s1 ⊕ (r1 ⊗ s2), r1 ⊗ r2)`` on pairs, an
        ``ew`` lift combines equal-length blocks element by element."""
        source = self.sources.get(op)
        if source is not None:
            return source
        if op.kind == "sr2":
            times, plus = map(self.source_of, op.parts)
            return (f"lambda a, b, _ot=({times}), _op=({plus}): "
                    "(_op(a[0], _ot(a[1], b[0])), _ot(a[1], b[1]))")
        if op.kind == "ew":
            # preserve the block representation (arrays stay arrays so
            # later local stages still see ndarray semantics)
            return (f"lambda a, b, _bb=({self.source_of(op.parts[0])}): ("
                    "__import__('numpy').array([_bb(_x, _y) "
                    "for _x, _y in zip(a, b)]) "
                    "if hasattr(a, 'dtype') or hasattr(b, 'dtype') "
                    "else [_bb(_x, _y) for _x, _y in zip(a, b)])")
        raise CodegenError(
            f"no source expression registered for operator {op.name!r}; "
            "call OpTable.register(op, source) with the operator object"
        )


def _header(program: Program, p_hint: int | None) -> list[str]:
    hint = f"  (e.g. mpiexec -n {p_hint} python this_script.py)" if p_hint else ""
    return [
        '"""Auto-generated by repro.codegen from program '
        f"{program.name!r}.{hint}\"\"\"",
        "",
        "from mpi4py import MPI",
        "",
        "comm = MPI.COMM_WORLD",
        "rank = comm.Get_rank()",
        "size = comm.Get_size()",
        "",
        "# --- user-editable local stage functions -------------------------",
        "# (the rule-introduced tuple adjustments are pre-filled)",
        "FUNCTIONS = {",
        "    'pair': lambda y: (y, y),",
        "    'triple': lambda y: (y, y, y),",
        "    'quadruple': lambda y: (y, y, y, y),",
        "    'pi_1': lambda t: t[0],",
        "}",
        "",
        "",
        "def _fn(label):",
        "    try:",
        "        return FUNCTIONS[label]",
        "    except KeyError:",
        "        raise KeyError(f'fill FUNCTIONS[{label!r}] before running')",
        "",
    ]


def _op_defs(program: Program, table: OpTable) -> tuple[list[str], dict[BinOp, str]]:
    """Emit one combine function + MPI.Op per distinct operator."""
    lines: list[str] = []
    names: dict[BinOp, str] = {}
    for stage in program.stages:
        op = getattr(stage, "op", None)
        if op is None or op in names:
            continue
        pyname = names[op] = f"_op{len(names)}"
        lines += [
            f"_combine{pyname} = {table.source_of(op)}  # {op.name}",
            f"{pyname} = MPI.Op.Create(",
            f"    lambda a, b, dt, _c=_combine{pyname}: _c(a, b),",
            f"    commute={op.commutative},",
            ")",
            "",
        ]
    return lines, names


# One emitter per stage class: ``(stage, ops, table) -> statements`` over
# the running buffer ``x``, where ``ops`` names the ``MPI.Op`` of each
# operator.  A class plain MPI cannot express is an entry too — one that
# raises :class:`CodegenError` saying what to generate from instead.


def _map(stage, ops, table) -> list[str]:
    # None marks an off-root buffer after reduce: propagate, as the
    # stage semantics propagate the undefined block
    return [f"x = None if x is None else _fn({stage.label!r})(x)"]


def _map_indexed(stage, ops, table) -> list[str]:
    return [f"x = None if x is None else _fn({stage.label!r})(rank, x)"]


def _map2(stage, ops, table) -> list[str]:
    hashmark = "rank, " if stage.indexed else ""
    return [
        f"_other = FUNCTIONS.get({('data:' + stage.label)!r})",
        "if _other is None:",
        f"    raise KeyError('fill FUNCTIONS[\"data:{stage.label}\"] "
        "with the distributed constant list')",
        f"x = None if x is None else _fn({stage.label!r})({hashmark}x, _other[rank])",
    ]


def _reduce_scatter(stage, ops, table) -> list[str]:
    # plain MPI's Reduce_scatter needs buffer counts up front; the
    # pickle-level comm offers allreduce + a local slice instead —
    # same result, and the counts may come from the stage or be the
    # balanced partition of whatever block length shows up
    counts = ("list(%s)" % (list(stage.counts),) if stage.counts is not None
              else "[len(x) // size + (1 if _i < len(x) % size else 0)"
                   " for _i in range(size)]")
    return [
        f"x = comm.allreduce(x, op={ops[stage.op]})",
        "# reduce_scatter: keep only this rank's segment",
        f"_counts = {counts}",
        "_off = sum(_counts[:rank])",
        "x = x[_off:_off + _counts[rank]]",
    ]


def _allgatherv(stage, ops, table) -> list[str]:
    return [
        "_parts = comm.allgather(x)",
        "# allgatherv: concatenate the (possibly irregular) segments",
        "if any(hasattr(_p, 'dtype') for _p in _parts):",
        "    import numpy as _np",
        "    x = _np.concatenate([_np.asarray(_p) for _p in _parts])",
        "else:",
        "    x = _parts[0][:0]",
        "    for _p in _parts:",
        "        x = x + _p",
    ]


def _comcast(stage, ops, table) -> list[str]:
    base = _comcast_base_sources(stage, table)
    return [
        "x = comm.bcast(x, root=0)",
        "# comcast: repeat(e, o) over the binary digits of rank",
        f"_e = {base['e']}",
        f"_o = {base['o']}",
        f"_state = {base['prepare']}",
        "_k = rank",
        "while _k:",
        "    _state = _e(_state) if _k % 2 == 0 else _o(_state)",
        "    _k //= 2",
        "x = _state[0]",
    ]


def _iter(stage, ops, table) -> list[str]:
    raise CodegenError(
        "iter stages lower to purely local code on the root; emit them "
        "with the comcast form instead (rewrite with general=True) or "
        "keep the pre-rule program for code generation"
    )


def _balanced_runtime(stage, ops, table) -> list[str]:
    raise CodegenError(
        f"{stage.pretty()} needs the balanced collective runtime, which "
        "plain MPI does not provide; generate code from the pre-rule "
        "program or link the repro runtime"
    )


_MPI4PY: dict[type, Callable[[Any, dict[BinOp, str], OpTable], list[str]]] = {
    MapStage: _map,
    MapIndexedStage: _map_indexed,
    Map2Stage: _map2,
    ScanStage: lambda stage, ops, table: [
        f"x = comm.scan(x, op={ops[stage.op]})"],
    ReduceStage: lambda stage, ops, table: [
        f"x = comm.reduce(x, op={ops[stage.op]}, root=0)"],
    AllReduceStage: lambda stage, ops, table: [
        f"x = comm.allreduce(x, op={ops[stage.op]})"],
    BcastStage: lambda stage, ops, table: ["x = comm.bcast(x, root=0)"],
    AllGatherStage: lambda stage, ops, table: ["x = tuple(comm.allgather(x))"],
    ReduceScatterStage: _reduce_scatter,
    AllGatherVStage: _allgatherv,
    ScatterStage: lambda stage, ops, table: ["x = comm.scatter(x, root=0)"],
    GatherStage: lambda stage, ops, table: [
        "x = comm.gather(x, root=0)",
        "x = None if x is None else tuple(x)"],
    BalancedReduceStage: _balanced_runtime,
    BalancedScanStage: _balanced_runtime,
    ComcastStage: _comcast,
    IterStage: _iter,
}


def _lower_stage(stage, ops: dict[BinOp, str], table: OpTable) -> list[str]:
    """The statements of the stage class's entry in the emitter table."""
    try:
        emit = _MPI4PY[type(stage)]
    except KeyError:
        raise CodegenError(
            f"no mpi4py lowering for stage {stage.pretty()!r} "
            f"({type(stage).__name__})") from None
    return emit(stage, ops, table)


def _comcast_base_sources(stage: ComcastStage, table: OpTable) -> dict[str, str]:
    """Digit-function sources of a ``bs`` comcast (``op_comp_bs[op]``)."""
    comcast = stage.comcast_op
    if comcast.kind == "bs":
        op_src = table.source_of(comcast.parts[0])
        return {
            "prepare": "(x, x)",
            "e": f"lambda s, _op={op_src}: (s[0], _op(s[1], s[1]))",
            "o": f"lambda s, _op={op_src}: (_op(s[0], s[1]), _op(s[1], s[1]))",
        }
    raise CodegenError(
        f"comcast over {comcast.name!r} not supported by the mpi4py backend yet"
    )


def generate_mpi4py(
    program: Program,
    table: OpTable | None = None,
    p_hint: int | None = None,
) -> str:
    """Emit a runnable mpi4py script for ``program``.

    ``table`` supplies operator source expressions; ``p_hint`` is only
    used in the generated header comment.
    """
    table = table or OpTable()
    lines = _header(program, p_hint)
    op_lines, ops = _op_defs(program, table)
    lines += op_lines
    lines += [
        "",
        "def main(x):",
        f"    # program: {program.pretty()}",
    ]
    for stage in program.stages:
        for stmt in _lower_stage(stage, ops, table):
            lines.append(f"    {stmt}")
    lines += [
        "    return x",
        "",
        "",
        "if __name__ == '__main__':",
        "    value = FUNCTIONS.get('input', lambda r: r)(rank)",
        "    result = main(value)",
        "    print(f'rank {rank}: {result}')",
        "",
    ]
    return "\n".join(lines)
