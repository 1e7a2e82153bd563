"""One numeric vocabulary, three readings: where each fact is written, and
that the interval reading bounds what the raw reading writes.

The structure guards read the source with ``ast`` (docstrings excluded):
the primitive names are keys of one table, the map-label vocabulary is
spelled in one module, the walk over ``kind`` / ``parts`` is one function
under ``repro.jit``, and the fallback contract is caught in one place.
The soundness property runs the *same emitted tape* twice — bound to the
rows' raw ufuncs on random blocks, and to their interval extensions on
the blocks' hulls — and holds every write of the first to the interval
the second recorded for that instruction.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.derived_ops import sr2_op
from repro.core.operators import ADD, MAX, MIN, MUL, product_op
from repro.jit.bounds import (
    BoundsCtx,
    combine_intervals,
    fold_intervals,
    map_intervals,
)
from repro.jit.compiler import (
    JitUnsupported,
    _run_combine,
    _run_map_tape,
    bind,
    emit_combine,
    emit_map,
)
from repro.testing.generator import INT_DOMAIN, VEC_DOMAIN

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# ---------------------------------------------------------------------------
# Structure guards
# ---------------------------------------------------------------------------


def _modules(*packages: str) -> list[Path]:
    return sorted(p for pkg in packages for p in (SRC / pkg).glob("*.py"))


def _literals(tree: ast.AST) -> list[ast.Constant]:
    """Every string constant that is not a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def _names(path: Path, *words: str) -> bool:
    return any(node.value in words for node in _literals(ast.parse(path.read_text())))


def test_one_module_holds_the_table_keyed_by_primitive_names():
    keyed = [path.name for path in _modules("kernels", "jit")
             if any(isinstance(node, ast.Dict)
                    and any(isinstance(k, ast.Constant) and k.value == "fadd"
                            for k in node.keys)
                    for node in ast.walk(ast.parse(path.read_text())))]
    assert keyed == ["registry.py"]
    # and nobody else spells a primitive's name at all
    assert [p.name for p in _modules("kernels", "jit")
            if _names(p, "fadd", "fmul")] == ["registry.py"]


def test_one_module_spells_the_map_label_vocabulary():
    assert [p.name for p in _modules("kernels", "jit")
            if _names(p, "quadruple", "pi_1")] == ["registry.py"]


def test_one_function_under_jit_walks_kind_and_parts():
    walkers = []
    for path in _modules("jit"):
        tree = ast.parse(path.read_text())
        inside = {id(lit): fn.name for fn in tree.body
                  if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
                  for lit in _literals(fn)}
        walkers += [(path.name, inside.get(id(lit), "<module>"))
                    for lit in _literals(tree)
                    if lit.value in ("sr2", "product")]
    assert set(walkers) == {("compiler.py", "emit_combine")}


def test_the_proof_knows_no_operator_no_kind_and_no_label():
    tree = ast.parse((SRC / "jit" / "bounds.py").read_text())
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert not attrs & {"kind", "parts", "name", "label", "split", "op"}
    assert not {lit.value for lit in _literals(tree)} & {
        "add", "mul", "max", "min", "neg", "inc", "dbl", "pair", "ew"}
    calls = {fn.name: {n.func.id for n in ast.walk(fn)
                       if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert not [name for name, called in calls.items() if name in called]


def test_the_fallback_contract_is_caught_in_one_function():
    catchers = []
    for path in _modules("kernels", "jit", "recovery"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "KernelFallback" in ast.unparse(node.type)
                    for node in ast.walk(fn)):
                catchers.append((path.name, fn.name))
    assert catchers == [("evaluator.py", "run_lowered")]
    supervisor = (SRC / "recovery" / "supervisor.py").read_text()
    assert "KernelFallback" not in supervisor
    assert "KernelUnsupported" not in supervisor


# ---------------------------------------------------------------------------
# Soundness: the interval reading bounds the raw reading, write for write
# ---------------------------------------------------------------------------

POOL = INT_DOMAIN.ops + VEC_DOMAIN.ops
#: the (⊗, ⊕) pairs the rules build ``op_sr2`` from: ⊗ distributes over ⊕
SEMIRINGS = ((MUL, ADD), (ADD, MAX), (ADD, MIN), (MIN, MAX), (MAX, MIN))
LABELS = ("inc", "dbl", "neg", "pair", "triple", "quadruple", "pi_1")


class Recorder(BoundsCtx):
    """A context that keeps every interval it is handed, in order."""

    __slots__ = ("seen",)

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def note(self, iv):
        self.seen.append(iv)
        return super().note(iv)


def _random_op(rng: random.Random, depth: int = 2, associative: bool = False):
    """A structural operator over the pool; ``associative`` keeps to what
    a fold may be given (an ``op_sr2`` of a distributive pair)."""
    shape = rng.choice(("leaf", "leaf", "sr2", "product") if depth else ("leaf",))
    if shape == "sr2":
        return sr2_op(*(rng.choice(SEMIRINGS) if associative
                        else (rng.choice(POOL), rng.choice(POOL))))
    if shape == "product":
        return product_op(_random_op(rng, depth - 1, associative),
                          _random_op(rng, depth - 1, associative))
    return rng.choice(POOL)


def _hull(rng: random.Random) -> tuple[int, int]:
    lo = rng.randint(-2 ** rng.randint(0, 40), 2 ** rng.randint(0, 40))
    return lo, lo + rng.randint(0, 2 ** rng.randint(0, 40))


def _block(rng: random.Random, hulls, n: int = 6) -> list[np.ndarray]:
    """One object-dtype array of exact Python ints per slot, inside its
    hull and touching both ends (so the raw ufuncs cannot wrap)."""
    return [np.array([lo, hi] + [rng.randint(lo, hi) for _ in range(n - 2)],
                     dtype=object) for lo, hi in hulls]


def _inside(values: np.ndarray, iv) -> bool:
    return all(iv[0] <= v <= iv[1] for v in values.tolist())


@pytest.mark.parametrize("seed", range(60))
def test_every_raw_combine_write_lies_in_its_recorded_interval(seed):
    rng = random.Random(seed)
    tape = emit_combine(_random_op(rng))
    a_iv, b_iv = ([_hull(rng) for _ in range(tape.slots)] for _ in "ab")
    tmps = [None] * len(tape.instrs)
    out = _run_combine(bind(tape, "raw"), _block(rng, a_iv), _block(rng, b_iv),
                       tmps)
    ctx = Recorder()
    out_iv = combine_intervals(ctx, bind(tape, "interval"), a_iv, b_iv)
    assert len(ctx.seen) == len(tmps) > 0
    for written, iv in zip(tmps, ctx.seen):
        assert _inside(written, iv)
    for written, iv in zip(out, out_iv):
        assert _inside(written, iv)


@pytest.mark.parametrize("seed", range(40))
def test_every_fold_tree_stays_inside_the_fold_hull(seed):
    rng = random.Random(1000 + seed)
    tape = emit_combine(_random_op(rng, associative=True))
    raw, p = bind(tape, "raw"), rng.randint(1, 9)
    # every slot of a leaf is a copy of one block (pair, triple, ...)
    leaf = [_hull(rng) if rng.random() < 0.5 else (-3, 3)] * tape.slots
    ctx = BoundsCtx()
    hull = fold_intervals(ctx, bind(tape, "interval"), leaf, p)
    writes = []

    def fold(lo: int, hi: int):  # a random combine tree over leaves lo..hi-1
        if hi - lo == 1:
            return _block(rng, leaf[:1]) * tape.slots
        cut = rng.randint(lo + 1, hi - 1)
        tmps = [None] * len(raw.instrs)
        out = _run_combine(raw, fold(lo, cut), fold(cut, hi), tmps)
        writes.extend(tmps)
        return out

    for k in range(1, p + 1):  # every prefix a scan holds
        for written, iv in zip(fold(0, k), hull):
            assert _inside(written, iv)
    assert all(abs(v) <= ctx.worst for w in writes for v in w.tolist())


def _map_case(seed: int):
    """``(rng, slots, tape)`` of a random fused label; the tape is None
    where the label does not fit the slots (``pi_1`` of a scalar)."""
    rng = random.Random(2000 + seed)
    slots = rng.choice((1, 1, 2, 3))
    label = ";".join(rng.choice(LABELS) for _ in range(rng.randint(1, 4)))
    try:
        return rng, slots, emit_map(label, slots)
    except JitUnsupported as exc:
        assert str(exc).startswith("slot-shape:")
        return rng, slots, None


@pytest.mark.parametrize("seed", range(60))
def test_every_raw_map_write_lies_in_its_recorded_interval(seed):
    rng, slots, tape = _map_case(seed)
    if tape is None:
        return
    hulls = [_hull(rng) for _ in range(slots)]
    tmps = [None] * len(tape.instrs)
    out = _run_map_tape(bind(tape, "raw"), _block(rng, hulls), tmps)
    ctx = Recorder()
    out_iv = map_intervals(ctx, bind(tape, "interval"), hulls)
    assert len(ctx.seen) == len(tmps)
    for written, iv in zip(list(tmps) + list(out), ctx.seen + list(out_iv)):
        assert _inside(written, iv)


def test_the_property_reaches_every_shape():
    ops = [_random_op(random.Random(seed)) for seed in range(60)]
    assert {op.kind for op in ops} >= {"", "ew", "sr2", "product"}
    tapes = [_map_case(seed)[2] for seed in range(60)]
    assert sum(bool(tape and tape.instrs) for tape in tapes) >= 5
