"""Stage AST and Program tests (core.stages)."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from test_stage_facets_golden import _vocabulary

from repro.codegen import mpi4py_gen
from repro.codegen.mpi4py_gen import CodegenError, generate_mpi4py
from repro.core import stages as stages_module
from repro.core.cost import (
    MachineParams,
    stage_cost,
    stage_formula,
    stage_rounds,
)
from repro.core.derived_ops import (
    bs_comcast_op,
    bss2_comcast_op,
    bss_comcast_op,
    br_iter_op,
    bsr2_iter_op,
    bsr_iter_op,
)
from repro.core.operators import ADD, CONCAT, MAX, MUL
from repro.core.optimizer import optimize
from repro.core.planner import plan_signature
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    ComcastStage,
    IterStage,
    Map2Stage,
    MapIndexedStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
    Stage,
    StageFacetError,
)
from repro.jit import compiler as jit_compiler
from repro.kernels.lowering import rebuild_stage, vectorize_program
from repro.lang.printer import to_mpi_text
from repro.machine import run as machine_run
from repro.machine.run import simulate_program
from repro.semantics.functional import UNDEF, defined_equal
from repro.testing.generator import (
    EW_ADD,
    EW_MAX,
    INT_DOMAIN,
    LIST_DOMAIN,
    SEG_ADD,
    SEG_DOMAIN,
    SEG_MAX,
    VEC_DOMAIN,
)


class TestStageSemantics:
    def test_map(self):
        assert MapStage(lambda x: x + 1).apply([1, 2]) == [2, 3]

    def test_map_indexed(self):
        assert MapIndexedStage(lambda i, x: i * x).apply([3, 3]) == [0, 3]

    def test_map2(self):
        st = Map2Stage(lambda x, y: x * y, other=(2, 3))
        assert st.apply([10, 10]) == [20, 30]

    def test_map2_indexed(self):
        st = Map2Stage(lambda i, x, y: i + x + y, other=(2, 3), indexed=True)
        assert st.apply([10, 10]) == [12, 14]

    def test_collective_flags(self):
        assert not MapStage(lambda x: x).is_collective
        assert ScanStage(ADD).is_collective
        assert ReduceStage(ADD).is_collective
        assert AllReduceStage(ADD).is_collective
        assert BcastStage().is_collective
        assert ComcastStage(bs_comcast_op(ADD)).is_collective

    def test_iter_stage_collective_only_with_bcast(self):
        op = br_iter_op(ADD)
        assert not IterStage(op).is_collective
        assert IterStage(op, then_bcast=True).is_collective

    def test_comcast_rejects_unknown_impl(self):
        with pytest.raises(ValueError):
            ComcastStage(bs_comcast_op(ADD), impl="magic")

    def test_iter_stage_general_flag(self):
        op = br_iter_op(ADD)
        out = IterStage(op, general=True).apply([3, 0, 0, 0, 0, 0])
        assert out[0] == 18  # 3 * 6
        with pytest.raises(ValueError):
            IterStage(op).apply([3, 0, 0])  # 3 procs, not a power of two

    def test_comcast_impls_agree(self):
        op = bs_comcast_op(ADD)
        xs = [5, 0, 0, 0, 0, 0, 0]
        a = ComcastStage(op, impl="repeat").apply(xs)
        b = ComcastStage(op, impl="doubling").apply(xs)
        assert a == b == [5 * (k + 1) for k in range(7)]

    def test_pretty_strings(self):
        assert ScanStage(ADD).pretty() == "scan (add)"
        assert ReduceStage(MUL).pretty() == "reduce (mul)"
        assert BcastStage().pretty() == "bcast"
        assert "map#" in MapIndexedStage(lambda i, x: x, label="h").pretty()


class TestProgram:
    def test_run_chains_stages(self):
        prog = Program([MapStage(lambda x: x * 2), ScanStage(ADD)])
        assert prog.run([1, 2, 3]) == [2, 6, 12]

    def test_iteration_and_indexing(self):
        stages = [BcastStage(), ScanStage(ADD)]
        prog = Program(stages)
        assert len(prog) == 2
        assert list(prog) == stages
        assert prog[0] is stages[0]
        assert prog[0:1] == (stages[0],)

    def test_then_concatenates(self):
        a = Program([BcastStage()], name="A")
        b = Program([ScanStage(ADD)], name="B")
        c = a.then(b)
        assert [type(s) for s in c.stages] == [BcastStage, ScanStage]
        assert c.name == "A;B"

    def test_replaced_window(self):
        prog = Program([BcastStage(), ScanStage(ADD), ReduceStage(ADD)])
        out = prog.replaced(1, 2, [MapStage(lambda x: x)])
        assert [type(s) for s in out.stages] == [BcastStage, MapStage]

    def test_replaced_out_of_range(self):
        prog = Program([BcastStage()])
        with pytest.raises(IndexError):
            prog.replaced(0, 2, [])

    def test_collective_count(self):
        prog = Program([MapStage(lambda x: x), ScanStage(ADD), BcastStage()])
        assert prog.collective_count() == 2

    def test_pretty(self):
        prog = Program([ScanStage(CONCAT), BcastStage()])
        assert prog.pretty() == "scan (concat) ; bcast"

    def test_programs_are_immutable(self):
        prog = Program([BcastStage()])
        with pytest.raises((AttributeError, TypeError)):
            prog.stages = ()

    def test_with_origin(self):
        s = ScanStage(ADD).with_origin("TestRule")
        assert s.origin == "TestRule"
        assert s.op is ADD


#: per generator domain: (comcast builder, iter builder, operator parts)
#: for every derived-operator kind that is *valid* there — bss2/bsr2 need
#: ⊗ distributing over ⊕, bss/bsr a commutative ⊕, so the non-commutative
#: segmented and ``concat`` operators get bs/br only
_BS, _BSS2, _BSS = ((bs_comcast_op, br_iter_op),
                    (bss2_comcast_op, bsr2_iter_op),
                    (bss_comcast_op, bsr_iter_op))
_DERIVED_OPS = [
    (INT_DOMAIN, _BS, (ADD,)), (INT_DOMAIN, _BS, (MUL,)),
    (INT_DOMAIN, _BSS2, (MUL, ADD)), (INT_DOMAIN, _BSS2, (ADD, MAX)),
    (INT_DOMAIN, _BSS, (ADD,)), (INT_DOMAIN, _BSS, (MAX,)),
    (VEC_DOMAIN, _BS, (EW_MAX,)), (VEC_DOMAIN, _BSS2, (EW_ADD, EW_MAX)),
    (VEC_DOMAIN, _BSS, (EW_ADD,)),
    (SEG_DOMAIN, _BS, (SEG_ADD,)), (SEG_DOMAIN, _BS, (SEG_MAX,)),
    (LIST_DOMAIN, _BS, (CONCAT,)),
]


class TestDefinition:
    """``Stage.definition``: the rule's left-hand side *is* the stage."""

    @staticmethod
    def _agree(stage, xs):
        want = stage.apply(xs)
        got = Program(stage.definition()).run(xs)
        assert defined_equal(got, want), stage.pretty()
        assert [v is UNDEF for v in got] == [v is UNDEF for v in want]

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "domain,builders,parts", _DERIVED_OPS,
        ids=[f"{d.name}-{b[0].__name__.removesuffix('_comcast_op')}-{'-'.join(o.name for o in ops)}"
             for d, b, ops in _DERIVED_OPS])
    def test_definition_is_semantics(self, domain, builders, parts, p):
        rng = random.Random(p)
        comcast, iter_ = builders
        for _ in range(5):
            xs = [domain.value_gen(rng) for _ in range(p)]
            for impl in ("repeat", "doubling"):
                self._agree(ComcastStage(comcast(*parts), impl=impl), xs)
            for then_bcast in (False, True):
                for general in (False, True):
                    if general or p & (p - 1) == 0:  # doubling: powers of 2
                        self._agree(IterStage(iter_(*parts), general=general,
                                              then_bcast=then_bcast), xs)

    def test_definitions_are_the_rules_left_hand_sides(self):
        def shape(stage):
            return " ; ".join(s.pretty() for s in stage.definition())

        assert shape(ComcastStage(bs_comcast_op(ADD))) == "bcast ; scan (add)"
        assert shape(ComcastStage(bss2_comcast_op(MUL, ADD))) == \
            "bcast ; scan (mul) ; scan (add)"
        assert shape(ComcastStage(bss_comcast_op(ADD))) == \
            "bcast ; scan (add) ; scan (add)"
        assert shape(IterStage(br_iter_op(ADD))) == "bcast ; reduce (add)"
        assert shape(IterStage(br_iter_op(ADD), then_bcast=True)) == \
            "bcast ; allreduce (add)"
        assert shape(IterStage(bsr2_iter_op(MUL, ADD))) == \
            "bcast ; scan (mul) ; reduce (add)"
        assert shape(IterStage(bsr_iter_op(ADD), general=True)) == \
            "bcast ; scan (add) ; reduce (add)"

    def test_every_other_stage_is_primitive(self):
        derived = {ComcastStage, IterStage}
        classes = [getattr(stages_module, name)
                   for name in stages_module.__all__]
        stage_classes = [c for c in classes
                         if isinstance(c, type) and issubclass(c, Stage)]
        assert derived < set(stage_classes) and len(stage_classes) >= 17
        for cls in stage_classes:
            if cls not in derived:
                assert cls.definition is Stage.definition, cls.__name__
        assert Stage.definition(BcastStage()) is None
        assert ScanStage(ADD).definition() is None

    def test_operator_without_metadata_has_no_definition(self):
        bare = replace(bs_comcast_op(ADD), kind="", parts=())
        assert ComcastStage(bare).definition() is None
        assert IterStage(replace(br_iter_op(ADD), kind="")).definition() is None


# -- what a stage is: the facets its class owns -------------------------------

#: every name a layer may ask a stage for; ``Stage``'s default raises
FACETS = ("is_collective", "apply", "pretty", "cost", "rounds", "formula",
          "token", "mpi_text", "rebuild")

#: the movement / bandwidth stages: their ``(1 - 1/p)`` volume factors
#: have no per-``log p`` Table-1 form, so ``formula`` stays the refusal
NO_TABLE1_FORM = {"AllGatherStage", "AllGatherVStage", "ReduceScatterStage",
                  "ScatterStage", "GatherStage"}

#: the stage classes the JIT neither compiles nor proves, said out loud:
#: a run through one takes the checked kernels (``uncompiled:<stage>``)
JIT_UNCOMPILED = {"MapIndexedStage", "Map2Stage", "AllGatherStage",
                  "AllGatherVStage", "ReduceScatterStage", "ScatterStage",
                  "GatherStage", "BalancedReduceStage", "BalancedScanStage"}

PARAMS = MachineParams(p=4, ts=600.0, tw=2.0, m=3)


def _stage_classes():
    return [getattr(stages_module, name) for name in stages_module.__all__
            if name not in ("Stage", "Program", "StageFacetError")]


@dataclass(frozen=True)
class SwapStage(Stage):
    """``swap`` — ranks ``2k`` and ``2k + 1`` exchange blocks: a stage no
    file under ``src/`` has heard of."""

    is_collective: ClassVar[bool] = True

    def apply(self, xs):
        return [xs[i ^ 1] if i ^ 1 < len(xs) else xs[i]
                for i in range(len(xs))]

    def pretty(self):
        return "swap"

    def cost(self, params):
        return params.ts + params.m * params.tw if params.p > 1 else 0.0

    def rounds(self, p):
        return int(p > 1)

    def token(self):
        return ("swap",)

    def mpi_text(self, src, dst):
        return f"MPI_Sendrecv ({src}, {dst}, rank ^ 1);"

    def rebuild(self, map_fn, binop_fn):
        return self


def _swap_machine(ctx, stage, x):
    partner = ctx.rank ^ 1
    if partner >= ctx.size:
        return x
    return (yield from ctx.sendrecv(partner, x, words=ctx.params.m))


class TestFacets:
    def test_the_facet_list_is_all_stage_declares(self):
        declared = {name for name in vars(Stage)
                    if not name.startswith("_")}
        assert declared == set(FACETS) | {
            "origin", "with_origin", "definition",
            "words_follow_block", "mpi_in_place"}

    @pytest.mark.parametrize("cls", _stage_classes(),
                             ids=lambda cls: cls.__name__)
    def test_every_stage_class_implements_every_facet(self, cls):
        assert issubclass(cls, Stage)
        missing = {facet for facet in FACETS
                   if getattr(cls, facet) is getattr(Stage, facet)}
        refused = {"formula"} if cls.__name__ in NO_TABLE1_FORM else set()
        assert missing == refused

    def test_every_stage_class_has_an_entry_in_both_outer_tables(self):
        classes = set(_stage_classes())
        assert len(classes) == 16
        for table in (machine_run._MACHINE, mpi4py_gen._MPI4PY):
            missing = [cls.__name__ for cls in classes if cls not in table]
            assert not missing, f"no entry for {missing}"
            assert set(table) == classes

    @pytest.mark.parametrize("module,table", [(machine_run, "_MACHINE"),
                                              (mpi4py_gen, "_MPI4PY")])
    def test_a_table_lacking_a_class_fails_the_check(self, monkeypatch,
                                                     module, table):
        entries = dict(getattr(module, table))
        del entries[BcastStage]
        monkeypatch.setattr(module, table, entries)
        with pytest.raises(AssertionError, match="BcastStage"):
            self.test_every_stage_class_has_an_entry_in_both_outer_tables()

    def test_every_stage_class_is_compiled_or_listed_uncompiled(self):
        """The JIT's class table is the proof's too: a stage class in
        neither list would be skipped by both without a word."""
        classes = set(_stage_classes())
        compiled = set(jit_compiler._JIT)
        missing = [cls.__name__ for cls in classes - compiled
                   if cls.__name__ not in JIT_UNCOMPILED]
        assert not missing, f"no JIT entry for {missing}"
        assert compiled <= classes
        assert not {cls.__name__ for cls in compiled} & JIT_UNCOMPILED
        for cls, entry in jit_compiler._JIT.items():
            # a reading comes with a tape; a class with neither has a
            # definition to be proven by
            assert entry.read is None or entry.tape is not None, cls
            assert entry.tape is not None or cls.definition \
                is not Stage.definition, cls

    def test_a_jit_table_lacking_a_class_fails_the_check(self, monkeypatch):
        entries = dict(jit_compiler._JIT)
        del entries[BcastStage]
        monkeypatch.setattr(jit_compiler, "_JIT", entries)
        with pytest.raises(AssertionError, match="BcastStage"):
            self.test_every_stage_class_is_compiled_or_listed_uncompiled()

    def test_every_shipped_stage_answers_every_driver(self):
        reached = set()
        for prog in _vocabulary()[:-1]:
            (stage,) = prog.stages
            reached.add(type(stage))
            assert plan_signature(prog) == (stage.token(),)
            assert to_mpi_text(prog).count("\n") == 1
            assert stage_cost(stage, PARAMS) >= 0
            assert stage_rounds(stage, PARAMS) >= stage.is_collective
            if type(stage).__name__ in NO_TABLE1_FORM:
                with pytest.raises(StageFacetError, match="'formula'"):
                    stage_formula(stage)
            else:
                assert (stage_formula(stage).evaluate(PARAMS)
                        == pytest.approx(stage_cost(stage, PARAMS)))
        assert reached == set(_stage_classes())

    def test_a_default_names_the_class_and_the_facet(self):
        @dataclass(frozen=True)
        class Bare(Stage):
            pass

        for facet, call in [
            ("is_collective", lambda s: s.is_collective),
            ("apply", lambda s: s.apply([1])),
            ("pretty", lambda s: s.pretty()),
            ("cost", lambda s: stage_cost(s, PARAMS)),
            ("rounds", lambda s: stage_rounds(s, PARAMS)),
            ("formula", stage_formula),
            ("token", lambda s: s.token()),
            ("mpi_text", lambda s: s.mpi_text("x", "y")),
            ("rebuild", lambda s: rebuild_stage(s, None, None)),
        ]:
            with pytest.raises(StageFacetError) as err:
                call(Bare())
            assert (err.value.stage_class, err.value.facet) == (Bare, facet)
            assert "Bare" in str(err.value) and facet in str(err.value)
        assert issubclass(StageFacetError, TypeError)

    def test_a_stage_without_a_token_does_not_plan_under_a_made_up_one(
            self, monkeypatch):
        """No ``("stage", type, pretty)`` fallback: a signature is an
        on-disk cache key, so a class that does not say what the planner
        may observe of it has none — shipped classes included."""
        @dataclass(frozen=True)
        class Mute(SwapStage):
            token = Stage.token

        with pytest.raises(StageFacetError, match="Mute.*'token'"):
            plan_signature(Program([BcastStage(), Mute()]))
        assert plan_signature(Program([BcastStage()])) == (("bcast",),)
        monkeypatch.delattr(BcastStage, "token")
        with pytest.raises(StageFacetError, match="BcastStage.*'token'"):
            plan_signature(Program([BcastStage()]))

    def test_a_stage_without_mpi_text_is_not_printed_as_a_comment(
            self, monkeypatch):
        @dataclass(frozen=True)
        class Mute(SwapStage):
            mpi_text = Stage.mpi_text

        with pytest.raises(StageFacetError, match="Mute.*'mpi_text'"):
            to_mpi_text(Program([BcastStage(), Mute()]))
        assert "MPI_Bcast (x, root);" in to_mpi_text(Program([BcastStage()]))
        monkeypatch.delattr(BcastStage, "mpi_text")
        with pytest.raises(StageFacetError, match="BcastStage.*'mpi_text'"):
            to_mpi_text(Program([BcastStage()]))

    def test_a_toy_stage_needs_no_edit_under_src(self, monkeypatch):
        swap = SwapStage()
        prog = Program([BcastStage(), ScanStage(ADD), swap], name="toy")
        xs = [3, 0, 0, 0]
        want = [6, 3, 12, 9]

        # costs, counts rounds, tokens, prints, rebuilds
        assert stage_cost(swap, PARAMS) == 600.0 + 3 * 2.0
        assert stage_cost(swap, PARAMS.with_(round_penalty=5.0)) == 611.0
        assert stage_rounds(swap, PARAMS) == 1
        assert plan_signature(prog)[-1] == ("swap",)
        assert to_mpi_text(prog).splitlines()[-1] == (
            "MPI_Sendrecv (y, z, rank ^ 1);")
        assert rebuild_stage(swap, None, None) is swap
        assert vectorize_program(prog).stages[-1] is swap
        with pytest.raises(StageFacetError, match="SwapStage.*'formula'"):
            stage_formula(swap)

        # runs and plans: the rules rewrite around it
        assert prog.run(xs) == want
        for strategy in ("greedy", "beam", "exhaustive"):
            planned = optimize(prog, PARAMS, strategy=strategy)
            assert planned.derivation.rules_used == ("BS-Comcast",)
            assert planned.program.stages[-1] is swap
            assert planned.program.run(xs) == want
            assert planned.cost_after < planned.cost_before

        # the two outer layers refuse by name until given one entry each
        with pytest.raises(TypeError, match="no machine implementation.*SwapStage"):
            simulate_program(prog, xs, PARAMS)
        with pytest.raises(CodegenError, match="no mpi4py lowering.*SwapStage"):
            generate_mpi4py(prog)
        monkeypatch.setitem(machine_run._MACHINE, SwapStage, _swap_machine)
        monkeypatch.setitem(
            mpi4py_gen._MPI4PY, SwapStage, lambda stage, ops, table: [
                "x = comm.sendrecv(x, dest=rank ^ 1, source=rank ^ 1)"])
        for program in (prog, planned.program):
            assert list(simulate_program(program, xs, PARAMS).values) == want
        assert (simulate_program(Program([swap]), xs, PARAMS).time
                == stage_cost(swap, PARAMS))
        script = generate_mpi4py(prog)
        assert "x = comm.sendrecv(x, dest=rank ^ 1" in script
        compile(script, "toy.py", "exec")
