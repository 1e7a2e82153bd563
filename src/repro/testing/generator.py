"""Typed random program generator over the stage DSL.

Programs are drawn from a *value domain* (which fixes the value generator,
the usable operators and the local-stage vocabulary) so that every stage of
a generated program is well typed on the generated inputs:

* ``int``  — small integers under the commutative zoo (``add``/``mul``/
  ``max``/``min``) and the distributive semiring pairs the ``*2`` rules
  need (``mul/add``, ``add/max``, ``add/min``, ``min/max``);
* ``list`` — small tuples (including the *empty* block) under ``concat``,
  the canonical associative but non-commutative operator — the
  side-condition-violating counterpart for SR-/SS-/BSS-class rules;
* ``seg``  — Blelloch-segmented ``(flag, value)`` pairs under
  ``seg[add]``/``seg[max]``; the segmented transformer preserves
  associativity but *destroys* commutativity, so these exercise the same
  side conditions from a different algebra;
* ``vec``  — fixed-length ``int64`` ndarray blocks under the elementwise
  operators ``ew[add]``/``ew[max]`` — the domain of the bandwidth rules
  (``allreduce ⇄ reduce_scatter ; allgatherv``), and the only domain the
  vectorized/JIT backends accept natively (multi-element blocks enter the
  kernel layer as arrays).

The generator tracks block *definedness*: a ``reduce`` leaves non-root
blocks undefined, so the only stages allowed to follow it are local maps
(which propagate ``_``), a broadcast (which re-defines every block), or
the end of the program — exactly the invariant real MPI programs obey.

:data:`RULE_CASES` lists, for each of the paper's seven fusion rules, a
*positive* window (side condition holds — the rule must fire) and a
*negative* near-miss (shape or side condition violated — the rule must
refuse).  The conformance driver cycles through these so every rule is
exercised both ways regardless of random chance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.cost import MachineParams
from repro.core.operators import (
    ADD,
    CONCAT,
    EW_ADD,
    EW_MAX,
    MAX,
    MIN,
    MUL,
    BinOp,
)
from repro.core.segmented import segmented_op
from repro.core.stages import (
    AllGatherVStage,
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceScatterStage,
    ReduceStage,
    ScanStage,
    Stage,
)
from repro.semantics.functional import dbl, inc, neg

__all__ = [
    "Domain",
    "DOMAINS",
    "GeneratedProgram",
    "PlannerCase",
    "PLANNER_CASES",
    "RuleCase",
    "RULE_CASES",
    "deal_cases",
    "derive_seed",
    "generate_from_case",
    "generate_planner_case",
    "generate_random",
]

SEG_ADD = segmented_op(ADD)
SEG_MAX = segmented_op(MAX)


@dataclass(frozen=True)
class Domain:
    """A value domain: generator + the operators/maps that are closed on it."""

    name: str
    value_gen: Callable[[random.Random], Any]
    #: operators usable in scan/reduce/allreduce stages
    ops: tuple[BinOp, ...]
    #: label -> (callable, ops_per_element); labels feed codegen FUNCTIONS
    maps: dict[str, tuple[Callable[[Any], Any], int]]


def _int_value(rng: random.Random) -> int:
    return rng.randint(-3, 3)


def _list_value(rng: random.Random) -> tuple:
    # length 0 is deliberate: empty blocks must flow through every backend
    return tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 2)))


def _seg_value(rng: random.Random) -> tuple[bool, int]:
    return (rng.random() < 0.3, rng.randint(-3, 3))


#: vec blocks share one fixed length — the elementwise operators require it
_VEC_BLOCK_LEN = 4


def _vec_value(rng: random.Random):
    import numpy as np

    return np.array([rng.randint(-3, 3) for _ in range(_VEC_BLOCK_LEN)],
                    dtype=np.int64)


#: the int and vec domains' maps: the catalogue's functions, so each
#: computes with its kernel row on the kernelized backends
CATALOGUE_MAPS = {"inc": (inc, 1), "dbl": (dbl, 1), "neg": (neg, 1)}

INT_DOMAIN = Domain(
    name="int",
    value_gen=_int_value,
    ops=(ADD, MUL, MAX, MIN),
    maps=CATALOGUE_MAPS,
)

LIST_DOMAIN = Domain(
    name="list",
    value_gen=_list_value,
    ops=(CONCAT,),
    maps={
        "keep1": (lambda t: t[:1], 1),
        "selfcat": (lambda t: t + t, 1),
    },
)

SEG_DOMAIN = Domain(
    name="seg",
    value_gen=_seg_value,
    ops=(SEG_ADD, SEG_MAX),
    maps={
        "bump": (lambda fv: (fv[0], fv[1] + 1), 1),
    },
)

VEC_DOMAIN = Domain(
    name="vec",
    value_gen=_vec_value,
    ops=(EW_ADD, EW_MAX),
    # the catalogue maps are elementwise on ndarray blocks too, and
    # their map kernels make vec programs kernel-lowerable
    maps=CATALOGUE_MAPS,
)

DOMAINS: tuple[Domain, ...] = (INT_DOMAIN, LIST_DOMAIN, SEG_DOMAIN, VEC_DOMAIN)
_DOMAIN_BY_NAME = {d.name: d for d in DOMAINS}


@dataclass(frozen=True)
class GeneratedProgram:
    """A random program plus everything needed to run it on every backend."""

    program: Program
    domain: Domain
    #: codegen FUNCTIONS payload (map label -> callable)
    functions: dict[str, Callable] = field(default_factory=dict)
    #: provenance: rule-case name or "random"
    note: str = "random"
    #: the template window, when built from a RuleCase (for coverage checks)
    window: tuple[Stage, ...] = ()

    def with_program(self, program: Program,
                     note: str | None = None) -> "GeneratedProgram":
        """The same domain and functions around another program — a
        planned or a shrunk form of this one."""
        return GeneratedProgram(program, self.domain, self.functions,
                                note or self.note)

    def value_gen(self, rng: random.Random) -> Any:
        return self.domain.value_gen(rng)

    def inputs(self, rng: random.Random, n: int) -> list[Any]:
        return [self.domain.value_gen(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _map_stage(domain: Domain, label: str) -> MapStage:
    fn, ops = domain.maps[label]
    return MapStage(fn, label=label, ops_per_element=ops)


def _functions_of(domain: Domain) -> dict[str, Callable]:
    return {label: fn for label, (fn, _ops) in domain.maps.items()}


def _random_local(rng: random.Random, domain: Domain) -> MapStage:
    return _map_stage(domain, rng.choice(sorted(domain.maps)))


def _collective_needs_all_defined(stage: Stage) -> bool:
    return isinstance(stage, (ScanStage, ReduceStage, AllReduceStage))


def _valid(stages: Sequence[Stage]) -> bool:
    """Does the pipeline respect the definedness invariant?"""
    defined = True
    for stage in stages:
        if _collective_needs_all_defined(stage) and not defined:
            return False
        if isinstance(stage, ReduceStage):
            defined = False
        elif isinstance(stage, BcastStage):
            defined = True
    return True


def _random_stages(rng: random.Random, domain: Domain, n: int,
                   defined: bool = True) -> list[Stage]:
    """``n`` random stages honouring the definedness invariant."""
    stages: list[Stage] = []
    for _ in range(n):
        kinds = ["map", "bcast"]
        if defined:
            kinds += ["scan", "reduce", "allreduce"]
        kind = rng.choice(kinds)
        if kind == "map":
            stages.append(_random_local(rng, domain))
        elif kind == "bcast":
            stages.append(BcastStage())
            defined = True
        elif kind == "scan":
            stages.append(ScanStage(rng.choice(domain.ops)))
        elif kind == "reduce":
            stages.append(ReduceStage(rng.choice(domain.ops)))
            defined = False
        else:
            stages.append(AllReduceStage(rng.choice(domain.ops)))
    return stages


def generate_random(rng: random.Random, domain: Domain | None = None,
                    max_stages: int = 6) -> GeneratedProgram:
    """A purely random well-typed pipeline of 1..``max_stages`` stages."""
    if domain is None:
        domain = rng.choice(DOMAINS)
    stages = _random_stages(rng, domain, rng.randint(1, max_stages))
    program = Program(stages, name=f"fuzz-{domain.name}")
    assert _valid(stages)
    return GeneratedProgram(program=program, domain=domain,
                            functions=_functions_of(domain),
                            note=f"random/{domain.name}")


# ---------------------------------------------------------------------------
# Rule cases: one positive and one negative window per paper rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleCase:
    """A rule plus a window that must (positive) or must not (negative) match."""

    rule_name: str
    positive: bool
    domain_name: str
    window_builder: Callable[[], tuple[Stage, ...]]

    @property
    def domain(self) -> Domain:
        return _DOMAIN_BY_NAME[self.domain_name]

    def window(self) -> tuple[Stage, ...]:
        return self.window_builder()

    def describe(self) -> str:
        kind = "positive" if self.positive else "negative"
        pretty = " ; ".join(s.pretty() for s in self.window())
        return f"{self.rule_name} {kind}: [{pretty}]"


#: For every paper rule: the side condition satisfied, then violated.
#: Negative windows are deliberate *near-misses*: same stage shapes (or a
#: one-stage perturbation for the condition-free BS-Comcast) with the
#: algebraic condition broken — non-distributive operator pairs, the
#: non-commutative ``concat``, or the commutativity-destroying segmented
#: transformer.
RULE_CASES: tuple[RuleCase, ...] = (
    # -- Reduction class ----------------------------------------------------
    RuleCase("SR2-Reduction", True, "int",
             lambda: (ScanStage(MUL), ReduceStage(ADD))),          # * over +
    RuleCase("SR2-Reduction", False, "int",
             lambda: (ScanStage(ADD), ReduceStage(MUL))),          # + !/ *
    RuleCase("SR-Reduction", True, "int",
             lambda: (ScanStage(ADD), ReduceStage(ADD))),          # commutative
    RuleCase("SR-Reduction", False, "list",
             lambda: (ScanStage(CONCAT), ReduceStage(CONCAT))),    # concat isn't
    # -- Scan class ---------------------------------------------------------
    RuleCase("SS2-Scan", True, "int",
             lambda: (ScanStage(ADD), ScanStage(MAX))),            # + over max
    RuleCase("SS2-Scan", False, "int",
             lambda: (ScanStage(MAX), ScanStage(ADD))),            # max !/ +
    RuleCase("SS-Scan", True, "int",
             lambda: (ScanStage(MIN), ScanStage(MIN))),            # commutative
    RuleCase("SS-Scan", False, "seg",
             lambda: (ScanStage(SEG_ADD), ScanStage(SEG_ADD))),    # seg kills it
    # -- Comcast class ------------------------------------------------------
    RuleCase("BS-Comcast", True, "int",
             lambda: (BcastStage(), ScanStage(ADD))),              # always fires
    RuleCase("BS-Comcast", False, "int",
             lambda: (ScanStage(ADD), BcastStage())),              # wrong shape
    RuleCase("BSS2-Comcast", True, "int",
             lambda: (BcastStage(), ScanStage(MUL), ScanStage(ADD))),
    RuleCase("BSS2-Comcast", False, "int",
             lambda: (BcastStage(), ScanStage(ADD), ScanStage(MUL))),
    RuleCase("BSS-Comcast", True, "int",
             lambda: (BcastStage(), ScanStage(ADD), ScanStage(ADD))),
    RuleCase("BSS-Comcast", False, "list",
             lambda: (BcastStage(), ScanStage(CONCAT), ScanStage(CONCAT))),
    # -- Bandwidth class (allreduce ⇄ reduce_scatter ; allgatherv) ----------
    # every window ends with uniform block lengths, so random suffixes
    # stay well typed (reduce_scatter alone would leave ranks with
    # differently-sized segments, which the ew operators reject)
    RuleCase("Decompose-Allreduce", True, "vec",
             lambda: (AllReduceStage(EW_ADD),)),                    # elementwise
    RuleCase("Decompose-Allreduce", False, "int",
             lambda: (AllReduceStage(ADD),)),                       # scalar op
    RuleCase("Compose-Allreduce", True, "vec",
             lambda: (ReduceScatterStage(EW_ADD), AllGatherVStage())),
    RuleCase("Compose-Allreduce", False, "vec",
             lambda: (ReduceScatterStage(EW_ADD), BcastStage())),   # wrong shape
)


# ---------------------------------------------------------------------------
# Planner cases: programs where greedy steepest descent is provably beaten
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannerCase:
    """A greedy trap: a program + machine where search beats steepest descent.

    On these pipelines the single most cost-saving first rewrite forecloses
    a cheaper multi-step derivation (e.g. an early SR fire inserts the
    ``map pi_1`` projection that blocks a later whole-suffix fusion), so
    ``greedy_optimize`` lands strictly above the beam/exhaustive optimum at
    ``params``.  The planner property suite uses these to guarantee the
    "beam strictly cheaper than greedy at least once" acceptance bar is a
    *seeded certainty*, not a roll of the random generator.
    """

    name: str
    domain_name: str
    stages_builder: Callable[[], tuple[Stage, ...]]
    #: the machine where the greedy-vs-search gap manifests
    params: MachineParams
    #: needs the extension rules (FULL_RULES) to expose the gap
    extensions: bool = False

    @property
    def domain(self) -> Domain:
        return _DOMAIN_BY_NAME[self.domain_name]

    def describe(self) -> str:
        pretty = " ; ".join(s.pretty() for s in self.stages_builder())
        return f"planner-trap/{self.name}: [{pretty}]"


#: Both traps verified by hand against the cost model at their params:
#: greedy ends at 42.0 vs beam/exhaustive 39.0 for the bcast/scan chain
#: (ALL_RULES), and 17.0 vs 2.0 for the scan/bcast/reduce chain once the
#: extension rules can rewrite the whole suffix (FULL_RULES).
PLANNER_CASES: tuple[PlannerCase, ...] = (
    PlannerCase(
        "bcast-scan-chain", "int",
        lambda: (BcastStage(), ScanStage(ADD), ScanStage(ADD),
                 ScanStage(MAX)),
        params=MachineParams(p=4, ts=5.0, tw=0.5, m=1),
    ),
    PlannerCase(
        "scan-bcast-reduce", "int",
        lambda: (ScanStage(ADD), BcastStage(), ReduceStage(ADD)),
        params=MachineParams(p=4, ts=5.0, tw=0.5, m=1),
        extensions=True,
    ),
)


def generate_planner_case(case: PlannerCase) -> GeneratedProgram:
    """Materialize a planner trap as a runnable :class:`GeneratedProgram`."""
    domain = case.domain
    stages = list(case.stages_builder())
    assert _valid(stages), f"invalid planner case {case.name}"
    program = Program(stages, name=f"planner-{case.name}")
    return GeneratedProgram(program=program, domain=domain,
                            functions=_functions_of(domain),
                            note=case.describe())


def generate_from_case(rng: random.Random, case: RuleCase,
                       max_extra: int = 2) -> GeneratedProgram:
    """Embed a rule-case window into a random (still well-typed) context."""
    domain = case.domain
    window = case.window()
    prefix: list[Stage] = [_random_local(rng, domain)
                           for _ in range(rng.randint(0, max_extra))]
    # the window starts with a scan or bcast: prefix of maps keeps it valid
    defined = not any(isinstance(s, ReduceStage) for s in window)
    suffix = _random_stages(rng, domain, rng.randint(0, max_extra),
                            defined=defined)
    stages = prefix + list(window) + suffix
    assert _valid(stages), f"invalid embedding for {case.describe()}"
    program = Program(stages, name=f"case-{case.rule_name}")
    return GeneratedProgram(program=program, domain=domain,
                            functions=_functions_of(domain),
                            note=case.describe(), window=tuple(window))


def derive_seed(seed: int, index: int) -> int:
    """The seed of draw ``index`` under ``seed``.

    Every deck, roulette and trial loop mixes its seeds this way, which
    is what makes case ``i`` of ``--seed N`` replayable as ``--seed N
    --iters i+1`` from any of them.
    """
    return seed * 1_000_003 + index


def deal_cases(seed: int, iters: int,
               templates: Sequence[RuleCase | PlannerCase]) -> Iterator[tuple]:
    """The case deck the conformance and chaos harnesses all draw from.

    Yields ``(i, case_seed, rng, program, template)`` for ``i < iters``:
    every one of ``templates`` once, then one purely random program
    (``template`` is None), cyclically.  ``rng`` is seeded with
    ``case_seed`` and has already drawn the program; the caller draws
    sizes, parameters and inputs from it next.
    """
    for i in range(iters):
        case_seed = derive_seed(seed, i)
        rng = random.Random(case_seed)
        slot = i % (len(templates) + 1)
        template = templates[slot] if slot < len(templates) else None
        if template is None:
            gp = generate_random(rng)
        elif isinstance(template, RuleCase):
            gp = generate_from_case(rng, template)
        else:
            gp = generate_planner_case(template)
        yield i, case_seed, rng, gp, template
