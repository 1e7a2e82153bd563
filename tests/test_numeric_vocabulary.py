"""One numeric vocabulary, three readings: where each fact is written, and
that the interval reading bounds what the raw reading writes.

The structure guards read the source with ``ast`` (docstrings excluded):
the catalogue operators are keys of one table and no operator's name
decides a fact, the map-label vocabulary is spelled in one module, the
walk over ``kind`` / ``parts`` is one function under ``repro.jit``, and
the fallback contract is caught in one place.
The soundness property runs the *same emitted tape* twice — bound to the
rows' raw ufuncs on random blocks, and to their interval extensions on
the blocks' hulls — and holds every write of the first to the interval
the second recorded for that instruction.  The hull properties hold the
proof monotone in its input hull, and the verdict on the compiler's
one-pass hull to the verdict on the exact min/max hull.
"""

from __future__ import annotations

import ast
import functools
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.derived_ops import sr2_op
from repro.core.operators import ADD, MAX, MIN, MUL, product_op
from repro.jit import CompiledProgram, compiled_program, engine_lower
from repro.jit.bounds import (
    BoundsCtx,
    combine_intervals,
    fold_intervals,
    map_intervals,
    prove,
)
from repro.jit.compiler import JitUnsupported, bind, emit_combine, emit_map
from repro.kernels import registry
from repro.semantics.functional import (
    dbl,
    inc,
    neg,
    pair,
    quadruple,
    safe_pi1,
    triple,
)
from repro.testing.generator import INT_DOMAIN, VEC_DOMAIN
from test_register_tape import _decks

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _run_combine(tape, acc, rhs, tmps: list) -> list:
    """The reference interpreter of a combine tape: instruction ``dst``
    writes ``tmps[dst]`` (None: a fresh array)."""

    def res(ref):
        tag, i = ref
        return acc[i] if tag == "a" else rhs[i] if tag == "b" else tmps[i]

    for u, sa, sb, dst in tape.instrs:
        tmps[dst] = u(res(sa), res(sb), out=tmps[dst])
    return [res(r) for r in tape.out]


def _run_map_tape(tape, slots, tmps: list) -> list:
    """The reference interpreter of a map tape: instruction ``j`` writes
    ``tmps[j]`` (None: a fresh array)."""

    def res(ref):
        return slots[ref[1]] if ref[0] == "i" else tmps[ref[1]]

    for j, (u, src, const) in enumerate(tape.instrs):
        args = (res(src),) if const is None else (res(src), const)
        tmps[j] = u(*args, out=tmps[j])
    return [res(r) for r in tape.out]


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


#: the catalogue operators a kernel row belongs to
CATALOGUE = {"ADD", "FADD", "MUL", "FMUL", "MAX", "MIN", "AND", "OR", "XOR"}

#: where an operator's laws, kernel row and MPI source are decided
DECIDING = ("core/rules", "core/operators.py", "kernels/registry.py", "jit",
            "codegen")


def _name_lookups(tree: ast.AST) -> list[str]:
    """Every ``x.name`` or ``x.label`` compared (``==``, ``in``, ...) or
    used as a key: a subscript, a dict literal's key, or the argument of
    ``.get(`` / ``.add(`` / ``.pop(`` / ``.setdefault(`` / ``.discard(``,
    inside an f-string too.  Printing a name (``f"{op.name}"``) is none
    of these."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            keys = [node.left, *node.comparators]
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Dict):
            keys = [k for k in node.keys if k is not None]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "add", "pop", "setdefault",
                                     "discard")):
            keys = node.args[:1]
        else:
            continue
        if any(isinstance(n, ast.Attribute) and n.attr in ("name", "label")
               for key in keys for n in ast.walk(key)):
            found.append(ast.unparse(node))
    return found


def test_one_module_holds_the_table_keyed_by_primitive_names():
    keyed = [path.name for path in _modules("kernels", "jit")
             if any(isinstance(node, ast.Dict)
                    and any(isinstance(k, ast.Name) and k.id in CATALOGUE
                            for k in node.keys)
                    for node in ast.walk(ast.parse(path.read_text())))]
    assert keyed == ["registry.py"]
    # and nobody else spells a primitive's (printed) name at all
    assert [p.name for p in _modules("kernels", "jit")
            if _names(p, "add", "mul", "max", "min", "neg")] == ["registry.py"]
    # no operator's name and no map's label is looked up or compared
    # where its laws, row or source are decided
    paths = [path for part in DECIDING
             for path in ([SRC / part] if part.endswith(".py")
                          else sorted((SRC / part).glob("*.py")))]
    assert len(paths) > 5
    assert {str(path.relative_to(SRC)): _name_lookups(ast.parse(path.read_text()))
            for path in paths if _name_lookups(ast.parse(path.read_text()))} == {}


def test_one_module_spells_the_map_label_vocabulary():
    """The map labels are text: the rows are keyed by the catalogue's map
    functions, so no kernel or JIT module spells a label at all."""
    assert [p.name for p in _modules("kernels", "jit")
            if _names(p, "inc", "dbl", "quadruple", "pi_1")] == []
    assert set(registry._MAPS) == {inc, dbl, neg, pair, triple, quadruple,
                                   safe_pi1}
    assert all(row.fn is fn for fn, row in registry._MAPS.items())


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
#: the catalogue maps, as ``MapStage.parts`` holds them
MAPS = (("inc", inc), ("dbl", dbl), ("neg", neg), ("pair", pair),
        ("triple", triple), ("quadruple", quadruple), ("pi_1", safe_pi1))


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


#: the shipped tapes that do not commute, and hulls that are negative or
#: straddle zero (where ``op#(C(k-1), C(1))`` and ``op#(C(1), C(k-1))`` part)
NONCOMMUTING = [sr2_op(*pair) for pair in SEMIRINGS] + [
    product_op(sr2_op(MUL, ADD), ADD)]
SIGNED_HULLS = ((-6, -5), (-3, -1), (-40, -7), (-3, 3), (-6, 2), (-1, 5))


def _bracketings(ctx, tape, leaf, k: int) -> list:
    """``op#`` over every bracketing of ``k`` leaves, one result each."""
    if k == 1:
        return [tuple(leaf)]
    return [combine_intervals(ctx, tape, x, y) for a in range(1, k)
            for x in _bracketings(ctx, tape, leaf, a)
            for y in _bracketings(ctx, tape, leaf, k - a)]


@pytest.mark.parametrize("hull", SIGNED_HULLS)
@pytest.mark.parametrize("op", NONCOMMUTING, ids=lambda op: op.name)
def test_every_bracketing_lies_inside_the_fold_hull(op, hull):
    tape = bind(emit_combine(op), "interval")
    leaf = [hull] * tape.slots  # a pair / triple leaf
    for p in range(1, 6):
        ctx = BoundsCtx()
        got = fold_intervals(ctx, tape, leaf, p)
        seen = Recorder()
        for k in range(1, p + 1):
            for tree in _bracketings(seen, tape, leaf, k):
                for iv, out in zip(tree, got):
                    assert out[0] <= iv[0] and iv[1] <= out[1], (p, k, tree, got)
        assert all(max(-iv[0], iv[1]) <= ctx.worst for iv in seen.seen)


def _map_case(seed: int):
    """``(rng, slots, tape)`` of a random fused label; the tape is None
    where the label does not fit the slots (``pi_1`` of a scalar)."""
    rng = random.Random(2000 + seed)
    slots = rng.choice((1, 1, 2, 3))
    parts = [rng.choice(MAPS) for _ in range(rng.randint(1, 4))]
    try:
        return rng, slots, emit_map(parts, slots)
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


# ---------------------------------------------------------------------------
# The input hull: read in one pass, proven as the exact min/max hull
# ---------------------------------------------------------------------------

#: the machine sizes the hull properties run at
HULL_PS = (1, 2, 3, 5, 8, 16)


_hull_decks = functools.cache(_decks)


@functools.cache
def _edge(name: str, p: int) -> int:
    """The largest ``h`` whose hull ``(0, h)`` the deck's proof proves."""
    proof, lo, hi = compiled_program(_hull_decks()[name]).proof, 0, 2 ** 63
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if prove(proof, (0, mid), p) else (lo, mid - 1)
    return lo


def _magnitude(rng: random.Random, edge: int) -> int:
    """At the proven edge, small, or anywhere up to the int64 range."""
    return rng.choice((max(0, edge + rng.randint(-2, 2)), rng.randint(0, 9),
                       rng.randint(0, 2 ** rng.randint(0, 62))))


@pytest.mark.parametrize("name", list(_hull_decks()))
def test_the_proof_is_monotone_in_the_hull(name):
    """``prove(H′)`` implies ``prove(H)`` for every ``H ⊆ H′``: what lets
    the proof run on a one-pass hull wider than the exact one."""
    rng, verdicts = random.Random(name), set()
    proof = compiled_program(_hull_decks()[name]).proof
    for p in HULL_PS:
        edge = _edge(name, p)
        for _ in range(30):
            lo, hi = sorted(rng.choice((1, -1)) * _magnitude(rng, edge)
                            for _ in "ab")
            inner = sorted(rng.randint(lo, hi) for _ in "ab")
            wide = prove(proof, (lo, hi), p)
            verdicts.add(wide)
            assert not wide or prove(proof, tuple(inner), p), (p, lo, hi, inner)
    assert verdicts == {True, False}


def _hull_blocks(kind: str, rng: random.Random, p: int, edge: int) -> list:
    """``p`` int64 input blocks of one kind (up to 5 elements each)."""
    def block(lo: int, hi: int, n: int = 5) -> np.ndarray:
        return np.array([rng.randint(lo, hi) for _ in range(n)], dtype=np.int64)

    top = edge + 1  # edge <= 2**62: an int64
    if kind == "nonnegative":
        return [block(0, _magnitude(rng, edge)) for _ in range(p)]
    if kind == "negative":
        return [block(-_magnitude(rng, edge) - 1, -1) for _ in range(p)]
    if kind == "mixed":
        m = _magnitude(rng, edge)
        return [block(-m, m) for _ in range(p)]
    if kind == "0d":
        return [np.asarray(rng.choice((1, -1)) * rng.randint(0, top),
                           dtype=np.int64) for _ in range(p)]
    if kind == "empty":  # every block empty, or empty beside small ones
        return [block(0, 3, rng.choice((0, 0, 3))) for _ in range(p)]
    # at the edge: blocks holding edge (or edge + 1) beside edge's lowest
    # unset bit, so the OR leaves the proven range (unless edge is all
    # ones); and a small root beside a wide block on the last rank
    bit = ~edge & top
    xs = [np.array([bit if bit < edge else 1, rng.choice((edge, top))]
                   + [rng.randint(0, edge) for _ in range(3)], dtype=np.int64)
          for _ in range(p)]
    if p > 1 and rng.random() < 0.5:
        xs = [block(0, 2)] * (p - 1) + [np.array([1, top], dtype=np.int64)]
    return xs


def _exact_hull(xs: list) -> tuple[int, int]:
    """The min/max hull of the non-empty blocks ((0, 0) when none is)."""
    full = [x for x in xs if x.size]
    return (min((int(x.min()) for x in full), default=0),
            max((int(x.max()) for x in full), default=0))


@pytest.mark.parametrize("kind", [
    "nonnegative", "negative", "mixed", "0d", "empty", "edge"])
def test_the_one_pass_verdict_is_the_exact_hulls(kind, monkeypatch):
    """The verdict ``engine_lower`` reaches on its one-pass profile is the
    one proven on the exact min/max hull of every rank's block, for
    every deck."""
    seen, proven_safe = [], CompiledProgram.proven_safe
    monkeypatch.setattr(CompiledProgram, "proven_safe", lambda cp, profile, p:
                        seen.append((profile, proven_safe(cp, profile, p)))
                        or seen[-1][1])
    rng, widened = random.Random(kind), 0
    for name, prog in _hull_decks().items():
        cp = compiled_program(prog)
        for p in HULL_PS:
            for _ in range(6):
                xs = _hull_blocks(kind, rng, p, _edge(name, p))
                want = proven_safe(cp, ("int", _exact_hull(xs)), p)
                seen.clear()
                engine_lower(prog, xs)
                [(profile, got)] = seen
                assert got == want, (name, p, xs)
                widened += want[0] and not prove(cp.proof, profile[1], p)
    # runs the one-pass hull does not prove, and the exact one does
    assert widened or kind not in ("edge", "nonnegative")
