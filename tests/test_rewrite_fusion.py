"""Local-stage fusion tests (core.rewrite.fuse_local_stages)."""

from __future__ import annotations

import pytest

from repro.core.derived_ops import br_iter_op
from repro.core.operators import ADD
from repro.core.rewrite import fuse_local_stages
from repro.core.stages import (
    BcastStage,
    IterStage,
    Map2Stage,
    MapIndexedStage,
    MapStage,
    Program,
    ScanStage,
)
from repro.semantics.functional import dbl, inc


class TestFusionPairs:
    def test_map_map(self):
        prog = Program([MapStage(inc, label="inc"),
                        MapStage(dbl, label="dbl")])
        fused = fuse_local_stages(prog)
        assert len(fused) == 1
        assert fused.run([1, 2]) == [4, 6]
        assert fused.stages[0].label == "inc;dbl"
        # the kernel rows are read per part, by function
        assert fused.stages[0].parts == (("inc", inc), ("dbl", dbl))

    def test_map_then_map_indexed(self):
        prog = Program([MapStage(lambda x: x + 1),
                        MapIndexedStage(lambda k, x: k * x)])
        fused = fuse_local_stages(prog)
        assert len(fused) == 1
        assert fused.run([1, 1, 1]) == [0, 2, 4]

    def test_map_indexed_then_map(self):
        prog = Program([MapIndexedStage(lambda k, x: x + k),
                        MapStage(lambda x: x * 10)])
        fused = fuse_local_stages(prog)
        assert fused.run([1, 1]) == [10, 20]

    def test_map_indexed_then_map2(self):
        prog = Program([
            MapIndexedStage(lambda k, x: x**(k + 1)),
            Map2Stage(lambda x, y: x * y, other=(10, 100)),
        ])
        fused = fuse_local_stages(prog)
        assert len(fused) == 1
        out = fused.run([3, 3])
        assert out == [30, 900]
        assert fused.stages[0].indexed

    def test_map2_then_map(self):
        prog = Program([
            Map2Stage(lambda x, y: x + y, other=(1, 2)),
            MapStage(lambda x: -x),
        ])
        fused = fuse_local_stages(prog)
        assert fused.run([10, 10]) == [-11, -12]

    def test_three_way_chain(self):
        prog = Program([MapStage(lambda x: x + 1), MapStage(lambda x: x * 2),
                        MapStage(lambda x: x - 3)])
        fused = fuse_local_stages(prog)
        assert len(fused) == 1
        assert fused.run([5]) == [(5 + 1) * 2 - 3]


#: the four map kinds, and what each ordered pair fuses to
_KINDS = {
    "map": lambda: MapStage(lambda x: 2 * x + 1, label="m"),
    "map#": lambda: MapIndexedStage(lambda k, x: 3 * x + k, label="i"),
    "map2": lambda: Map2Stage(lambda x, y: 5 * x + y, other=(10, 20, 30),
                              label="b"),
    "map2#": lambda: Map2Stage(lambda k, x, y: 7 * x + k * y, other=(1, 2, 3),
                               label="B", indexed=True),
}
_FUSED = {
    ("map", "map"): "map", ("map", "map#"): "map#",
    ("map", "map2"): "map2", ("map", "map2#"): "map2#",
    ("map#", "map"): "map#", ("map#", "map#"): "map#",
    ("map#", "map2"): "map2#", ("map#", "map2#"): "map2#",
    ("map2", "map"): "map2", ("map2#", "map"): "map2#",
}


@pytest.mark.parametrize("second", _KINDS)
@pytest.mark.parametrize("first", _KINDS)
def test_every_pair_of_map_kinds(first, second):
    prog = Program([_KINDS[first](), _KINDS[second]()])
    fused = fuse_local_stages(prog)
    xs = [4, 5, 6]
    assert fused.run(xs) == prog.run(xs)
    if (first, second) not in _FUSED:  # a map2 takes only a plain map after it
        assert len(fused) == 2
        return
    (stage,) = fused.stages
    assert stage.pretty().split()[0] == _FUSED[first, second]
    assert stage.label == f"{prog.stages[0].label};{prog.stages[1].label}"
    assert getattr(stage, "other", None) == next(
        (s.other for s in prog.stages if hasattr(s, "other")), None)


class TestFusionBoundaries:
    def test_collectives_never_fused(self):
        prog = Program([MapStage(lambda x: x), ScanStage(ADD),
                        MapStage(lambda x: x)])
        fused = fuse_local_stages(prog)
        assert len(fused) == 3

    def test_iter_stage_not_map_fused(self):
        prog = Program([IterStage(br_iter_op(ADD)), MapStage(lambda x: x)])
        fused = fuse_local_stages(prog)
        assert len(fused) == 2  # iter is local but not a fusible map

    def test_ops_per_element_summed(self):
        prog = Program([MapStage(lambda x: x, ops_per_element=2),
                        MapStage(lambda x: x, ops_per_element=3)])
        fused = fuse_local_stages(prog)
        assert fused.stages[0].ops_per_element == 5

    def test_empty_and_singleton_programs(self):
        assert len(fuse_local_stages(Program([]))) == 0
        single = Program([BcastStage()])
        assert fuse_local_stages(single).stages == single.stages

    def test_name_preserved(self):
        prog = Program([MapStage(lambda x: x)], name="myprog")
        assert fuse_local_stages(prog).name == "myprog"
