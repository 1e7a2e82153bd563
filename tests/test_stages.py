"""Stage AST and Program tests (core.stages)."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core import stages as stages_module
from repro.core.derived_ops import (
    bs_comcast_op,
    bss2_comcast_op,
    bss_comcast_op,
    br_iter_op,
    bsr2_iter_op,
    bsr_iter_op,
)
from repro.core.operators import ADD, CONCAT, MAX, MUL
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
)
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
