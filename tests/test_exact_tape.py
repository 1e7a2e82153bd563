"""The register tape read ``exact``: a served hit's values from one
generated straight-line function.

Each kernel row states its operator's ``fn`` as a source template; a
compiled program unrolled over Python int / bool blocks is emitted as one
Python function (``CompiledProgram.exact_tape``), and a resident served
hit computes with it once it has agreed with the spec,
``Program.through_definitions().run``.  The checks here:

* (a) every row's template gives what its operator's ``fn`` gives, in
  value and type, on int, bool and mixed pairs;
* (b) every ``FULL_RULES`` exemplar, both sides, at p = 1 … 16, on ints,
  bools and blocks with ``UNDEF`` holes: the generated function equals
  the spec in value, type and ``UNDEF`` position, or the tape declines
  for a named reason;
* (c) 200 generated programs, as written and as planned, the same way;
* (d) a served hit of a covered program makes no ``BinOp.__call__``;
* (e) the generated source holds no label or operator name.
"""

from __future__ import annotations

import io
import itertools
import random
import re
import tokenize
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD, AND, MAX, MIN, MUL, OR, XOR, BinOp
from repro.core.optimizer import optimize
from repro.core.rules import FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.core.store import clear_caches
from repro.jit import STATS, compiled_program, exact_evaluator, exact_verdict
from repro.jit.compiler import _EXACT_TAPES, _exact_signature, _identical
from repro.kernels import KernelUnsupported
from repro.kernels.registry import _MAPS, _PRIMITIVES, map_rows
from repro.semantics.functional import UNDEF, dbl, inc, neg
from repro.serving import ServingConfig, ServingManager
from repro.testing.generator import INT_DOMAIN, SEG_DOMAIN, generate_random

#: what a declining tape may say: a stage or row it cannot read, blocks of
#: a shape it declines, or a program with no kernels at all
REASON = re.compile(r"(uncompiled|no-exact|no-tape|slot-shape):.+"
                    r"|runtime-shape|unsupported-program")

SCALARS = (-2, -1, 0, 1, 2, 3, True, False)


def _served(program: Program, inputs: list) -> str:
    """The exact tape of ``program`` on ``inputs`` against the spec:
    ``"exact"`` when it computes the spec's values, else its reason."""
    try:
        tape = compiled_program(program).exact_tape(_exact_signature(inputs))
    except KernelUnsupported:
        return "unsupported-program"
    try:
        want = program.through_definitions().run(list(inputs))
    except Exception as exc:  # noqa: BLE001 - a raising spec is recorded
        want = exc
    if tape.run is None:
        assert REASON.fullmatch(tape.why), tape.why
        return tape.why
    assert not isinstance(want, Exception), (program.pretty(), inputs, want)
    got = tape.run(list(inputs))
    assert _identical(got, want), (program.pretty(), inputs, got, want)
    return "exact"


def _inputs(kind: str, p: int, rng: random.Random) -> list:
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(p)]
    if kind == "bool":
        return [rng.choice(SCALARS) for _ in range(p)]
    xs = [rng.choice(SCALARS) for _ in range(p)]
    xs[rng.randrange(p)] = UNDEF
    return xs


# -- (a) each row's template is its operator's fn ---------------------------------

def _template_fn(template: str):
    return eval(f"lambda a, b: {template.format(a='a', b='b')}",
                {"__builtins__": {}, "bool": bool})


@pytest.mark.parametrize("op", list(_PRIMITIVES), ids=lambda op: op.name)
def test_a_rows_template_is_its_operators_fn(op: BinOp):
    fn = _template_fn(_PRIMITIVES[op].exact)
    for a, b in itertools.product(SCALARS, repeat=2):
        assert _identical(fn(a, b), op.fn(a, b)), (op.name, a, b)


def test_equal_values_of_different_types_keep_the_first():
    assert _template_fn(_PRIMITIVES[MAX].exact)(True, 1) is True
    assert _template_fn(_PRIMITIVES[MIN].exact)(1, True) == 1
    assert type(_template_fn(_PRIMITIVES[MIN].exact)(1, True)) is int


@pytest.mark.parametrize("fn", [inc, dbl, neg], ids=lambda f: f.__name__)
def test_a_map_rows_template_is_its_function(fn):
    (_, row), = map_rows([(fn.__name__, fn)])
    _kind, prim, const = row.effect
    apply = _template_fn(prim.exact)
    for x in SCALARS:
        assert _identical(apply(x, const), fn(x)), (fn.__name__, x)
    assert _MAPS[fn] is row


# -- (b) the rule exemplars, both sides --------------------------------------------

def _sides(rule, p: int) -> list[Program]:
    lhs = rule.exemplar
    general = bool(p & (p - 1))
    return [Program(lhs, name="lhs"),
            Program(rule.rewrite(lhs, general=general), name="rhs")]


@pytest.mark.parametrize("rule", FULL_RULES, ids=lambda r: r.name)
def test_every_exemplar_side_is_the_spec_or_declines(rule):
    rng = random.Random(rule.name)
    verdicts = set()
    for p in range(1, 17):
        for side in _sides(rule, p):
            for kind in ("int", "bool", "undef"):
                verdict = _served(side, _inputs(kind, p, rng))
                verdicts.add((kind, verdict))
    if rule.name in ("Decompose-Allreduce", "Compose-Allreduce"):
        # their elementwise lift reads a block as a list: never exact
        assert ("int", "exact") not in verdicts
    else:
        assert {v for k, v in verdicts if k != "undef"} == {"exact"}


#: operator pairs ``(otimes, oplus)`` beside the exemplars' units, with
#: the rule's side condition deciding whether the right-hand side exists
UNIT_SETS = [(ADD, MAX), (ADD, MIN), (MIN, MAX), (AND, OR), (AND, XOR),
             (MUL, MUL), (MAX, MAX), (OR, OR)]

#: per unit set, how many of its (rule, p, side, input kind) runs the exact
#: tape covers: a run lost to a decline fails, as does one gained unseen
COVERED = {"add-max": 416, "add-min": 412, "min-max": 408, "and-or": 409,
           "and-xor": 417, "mul-mul": 416, "max-max": 411, "or-or": 418}


@pytest.mark.parametrize("units", UNIT_SETS,
                         ids=lambda u: "-".join(op.name for op in u))
def test_the_exemplars_over_other_operators(units):
    rng = random.Random("-".join(op.name for op in units))
    covered = 0
    for rule in FULL_RULES:
        if len(rule.units) == 0:
            continue
        doctored = replace(rule, units=units[-len(rule.units):])
        for p in (1, 2, 3, 5, 8, 13, 16):
            sides = _sides(doctored, p) if doctored.match(
                doctored.exemplar) else [Program(doctored.exemplar)]
            for side in sides:
                for kind in ("int", "bool", "undef"):
                    covered += _served(side, _inputs(kind, p, rng)) == "exact"
    assert covered == COVERED["-".join(op.name for op in units)]


# -- (c) generated programs --------------------------------------------------------

def test_generated_programs_are_the_spec_or_decline():
    rng = random.Random(0)
    verdicts = []
    for i in range(200):
        gen = generate_random(rng, INT_DOMAIN if i % 4 else SEG_DOMAIN)
        p = rng.randint(1, 16)
        params = MachineParams(p=p, ts=600.0, tw=2.0, m=1)
        planned = optimize(gen.program, params, rules=FULL_RULES,
                           strategy="beam").program
        for program in (gen.program, planned):
            if gen.domain is SEG_DOMAIN:
                xs = gen.inputs(rng, p)
            else:
                xs = _inputs(rng.choice(("int", "bool", "undef")), p, rng)
            verdicts.append(_served(program, xs))
    assert Counter(verdicts) == {
        "exact": 220, "runtime-shape": 84, "unsupported-program": 62,
        "no-exact:seg[max]": 20, "no-exact:seg[add]": 14}


def test_a_seg_program_declines_by_its_operator():
    program = Program([ScanStage(SEG_DOMAIN.ops[0])])
    assert _served(program, [(True, 1), (False, 2)]) == \
        f"no-exact:{SEG_DOMAIN.ops[0].name}"


def test_inexact_blocks_have_no_signature():
    assert _exact_signature([1, True, UNDEF, (1, False)]) == (1, 1, 0, 2)
    for blocks in ([1.0], [(1,)], [(1, 2.0)], [((1, 2), 3)], [[1, 2]]):
        assert _exact_signature(blocks) is None
    assert exact_verdict(Program([ScanStage(ADD)]), [1.0, 2.0]) == \
        "inexact-input"


# -- (d) a served hit makes no BinOp call ---------------------------------------------

#: a ``serve_hot``-shaped plan holding a balanced butterfly and a comcast
SERVED = Program([BcastStage(), ScanStage(MUL), AllReduceStage(MAX),
                  ScanStage(ADD), ScanStage(ADD)], name="served")
PARAMS = MachineParams(p=8, ts=600.0, tw=2.0, m=1)


def test_a_served_hit_of_a_covered_program_calls_no_binop(monkeypatch):
    clear_caches()
    plan = optimize(SERVED, PARAMS, rules=FULL_RULES, strategy="beam").program
    assert "scan_balanced" in plan.pretty() and "comcast" in plan.pretty()
    calls = [0]
    real = BinOp.__call__

    def counted(self, a, b):
        calls[0] += 1
        return real(self, a, b)

    with ServingManager(ServingConfig(workers=1)) as mgr:
        for j in range(2):  # the miss admits, the first hit builds
            mgr.submit(plan, [j + 1] * 8, PARAMS).result(timeout=60.0)
        monkeypatch.setattr(BinOp, "__call__", counted)
        got = [mgr.submit(plan, [j % 3 + 1] * 7 + [j % 2], PARAMS)
               .result(timeout=60.0) for j in range(20)]
        monkeypatch.undo()
        assert mgr.stats()["resident_hits"] == 21
    assert calls[0] == 0
    for j, values in enumerate(got):
        xs = [j % 3 + 1] * 7 + [j % 2]
        assert values == tuple(SERVED.run(xs))
        assert _identical(list(values), plan.through_definitions().run(xs))
    tape = _EXACT_TAPES.get((plan, (1,) * 8))
    assert tape.why == "" and STATS.exact["exact"] >= 1


def test_a_miss_builds_nothing_and_the_first_hit_keeps_the_tape():
    clear_caches()
    program = Program([ScanStage(MUL), ReduceStage(ADD)])
    cp = compiled_program(program)
    key = (program, (1, 1, 1))
    exact_evaluator(program, [1, 2, 3], hit=False)()
    assert _EXACT_TAPES.get(key) is None
    assert exact_evaluator(program, [1, 2, 3], hit=True)() == [9, UNDEF, UNDEF]
    tape = _EXACT_TAPES.get(key)
    assert tape.why == "" and tape.run([2, 2, 2]) == [14, UNDEF, UNDEF]
    assert exact_evaluator(program, [2, 2, 2], hit=True)() == [14, UNDEF, UNDEF]


def test_a_tape_that_disagrees_with_the_spec_is_not_kept(monkeypatch):
    """A row whose template lies is caught on the first hit and the
    program keeps the spec."""
    clear_caches()
    lying = replace(_PRIMITIVES[ADD], exact="({a} - {b})")
    monkeypatch.setitem(_PRIMITIVES, ADD, lying)
    program = Program([ScanStage(ADD)])
    assert exact_verdict(program, [1, 2, 3]) == "exact-disagree"
    assert exact_evaluator(program, [4, 5, 6], hit=True)() == [4, 9, 15]


# -- (e) the source holds no name of the program's ----------------------------------

NAMES = re.compile(r"def|tape|xs|return|if|else|bool|U|_|[rct]\d+")


def test_the_generated_source_holds_no_label_or_operator_name():
    rng = random.Random(5)
    sources = []
    for i in range(40):
        gen = generate_random(rng, INT_DOMAIN)
        p = rng.randint(1, 9)
        plan = optimize(gen.program, MachineParams(p=p, ts=600.0, tw=2.0, m=1),
                        rules=FULL_RULES, strategy="beam").program
        for program in (gen.program, plan):
            labels = {part for st in program for part, _ in getattr(
                st, "parts", ())} | {st.pretty() for st in program}
            tape = compiled_program(program).exact_tape((1,) * p)
            if tape.run is None:
                continue
            names = {tok.string for tok in tokenize.generate_tokens(
                io.StringIO(tape.source).readline)
                if tok.type == tokenize.NAME}
            assert all(NAMES.fullmatch(name) for name in names), names
            words = set(re.findall(r"\w+", " ".join(labels)))
            assert not words & names, words & names
            sources.append(tape.source)
    assert len(sources) > 20
    assert any("if" in src for src in sources)  # a max / min template
