"""A rule is a row: what is read off it, and what may not come back.

``tests/test_rule_rows_golden.py`` pins what the rows match and build;
this file pins the shape of the package — every row is exercised by the
case deck or excused by name, Table 1 is computed and agrees with the
paper's wording, the two rows without Table-1 columns say so instead of
guessing, and no rule class, typed formula or second matcher returns.
"""

from __future__ import annotations

import ast
import math
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from repro.analysis import m_threshold, rule_catalogue, ts_threshold
from repro.core.cost import MachineParams, program_formula
from repro.core.rules import (
    BANDWIDTH_RULES,
    COMPOSE_ALLREDUCE,
    DECOMPOSE_ALLREDUCE,
    FULL_RULES,
    SR2_REDUCTION,
    NoTable1Form,
    Rule,
)
from repro.core.search import Search
from repro.core.stages import Program
from repro.core.store import clear_caches
from repro.testing import RULE_CASES

SRC = Path(__file__).parent.parent / "src" / "repro"

#: the rows with Table-1 columns (all but the two bandwidth rows)
TABLE1_ROWS = [rule for rule in FULL_RULES if rule.exact is None]

#: rows without a ``RULE_CASES`` pair: a case added here re-deals the
#: conformance and chaos decks (and their goldens), so they are excused
#: by name — their windows are exercised by the suites named
NO_RULE_CASE = {
    "BR-Local": "lossy: tests/test_rules_semantics.py, planner traps",
    "BSR2-Local": "lossy: tests/test_rules_semantics.py",
    "BSR-Local": "lossy: tests/test_rules_semantics.py",
    "CR-Alllocal": "tests/test_rules_semantics.py",
    "RB-Allreduce": "tests/test_extension_rules.py",
    "AB-Allreduce": "tests/test_extension_rules.py",
    "SB-Bcast": "tests/test_extension_rules.py",
    "BB-Bcast": "tests/test_extension_rules.py",
}


class TestEveryRowIsExercised:
    def test_each_row_has_both_cases_or_is_excused(self):
        cased = {(c.rule_name, c.positive) for c in RULE_CASES}
        for rule in FULL_RULES:
            both = {(rule.name, True), (rule.name, False)} <= cased
            assert both != (rule.name in NO_RULE_CASE), (
                f"{rule.name}: give it a positive and a negative RULE_CASES "
                "entry, or a NO_RULE_CASE reason — exactly one of the two")
        assert set(NO_RULE_CASE) <= {rule.name for rule in FULL_RULES}

    def test_a_new_row_in_neither_fails(self, monkeypatch):
        new = replace(SR2_REDUCTION, name="New-Rule")
        monkeypatch.setitem(globals(), "FULL_RULES", FULL_RULES + (new,))
        with pytest.raises(AssertionError, match="New-Rule"):
            self.test_each_row_has_both_cases_or_is_excused()

    @pytest.mark.parametrize("case", RULE_CASES, ids=lambda c: c.describe())
    def test_case_windows_agree_with_the_row(self, case):
        rule = next(r for r in FULL_RULES if r.name == case.rule_name)
        window = case.window()
        shaped = len(window) == rule.window and all(
            map(isinstance, window, rule.lhs))
        if case.positive:
            assert shaped and rule.match(window)
        else:
            assert not rule.match(window)

    @pytest.mark.parametrize("rule", FULL_RULES, ids=lambda r: r.name)
    def test_the_exemplar_is_a_window_of_its_own_rule(self, rule):
        assert rule.window == len(rule.lhs) == len(rule.exemplar)
        assert rule.match(rule.exemplar)
        assert all(s.origin == rule.name for s in rule.rewrite(rule.exemplar))


class TestTable1IsComputed:
    @pytest.mark.parametrize("rule", TABLE1_ROWS, ids=lambda r: r.name)
    def test_columns_are_the_calculus_on_the_exemplar(self, rule):
        before = program_formula(rule.exemplar).collective
        after = program_formula(rule.rewrite(rule.exemplar)).collective
        assert (rule.before_formula(), rule.after_formula()) == (before, after)
        assert rule.before_formula() is rule.before_formula()  # once per row

    def test_always_is_what_the_improved_if_column_says(self):
        assert len(TABLE1_ROWS) == 15
        for rule in TABLE1_ROWS:
            assert rule.always_improves() == (
                rule.improvement_text == "always"), rule.name


class TestRowsWithoutTable1Columns:
    """The bandwidth rows at p = 8, ts = 600, tw = 2, m = 65 536: deep in
    the bandwidth regime, where the typed per-``log p`` "upper bounds"
    made the margin contradict ``improves``."""

    PARAMS = MachineParams(p=8, ts=600.0, tw=2.0, m=65_536)

    def test_improves_is_the_exact_comparison(self):
        assert DECOMPOSE_ALLREDUCE.improves(self.PARAMS)
        assert not COMPOSE_ALLREDUCE.improves(self.PARAMS)
        latency = self.PARAMS.with_(m=1)
        assert not DECOMPOSE_ALLREDUCE.improves(latency)
        assert COMPOSE_ALLREDUCE.improves(latency)

    @pytest.mark.parametrize("rule", BANDWIDTH_RULES, ids=lambda r: r.name)
    def test_no_reader_of_the_margin_gets_an_answer(self, rule):
        for ask in (rule.before_formula, rule.after_formula,
                    rule.improvement_margin,
                    lambda: ts_threshold(rule, self.PARAMS.tw, self.PARAMS.m),
                    lambda: m_threshold(rule, self.PARAMS.ts, self.PARAMS.tw)):
            with pytest.raises(NoTable1Form, match=rule.name) as err:
                ask()
            assert "(1 - 1/p)" in str(err.value)
        assert not rule.always_improves()

    def test_the_catalogue_says_exact_closed_forms(self):
        blocks = rule_catalogue().split("\n\n")
        for rule in BANDWIDTH_RULES:
            (block,) = [b for b in blocks if b.startswith(rule.name + "\n")]
            assert "    cost: exact closed forms\n" in block
        assert rule_catalogue().count("exact closed forms") == 2

    def test_thresholds_of_a_table1_row_still_answer(self):
        assert ts_threshold(SR2_REDUCTION, 2.0, 100) == 0.0
        assert math.isinf(m_threshold(SR2_REDUCTION, 600.0, 2.0))


class TestARowIsItsIdentity:
    def test_rows_are_frozen_and_compare_by_identity(self):
        with pytest.raises(FrozenInstanceError):
            SR2_REDUCTION.name = "other"
        twin = replace(SR2_REDUCTION)
        assert twin != SR2_REDUCTION and hash(twin) != hash(SR2_REDUCTION)
        assert twin.serial != SR2_REDUCTION.serial
        assert (twin.window, twin.exemplar) == (2, SR2_REDUCTION.exemplar)

    def test_the_match_memo_tells_a_doctored_row_from_the_catalogues(self):
        """Same name, same position, a side condition that never holds:
        the memo warmed by the catalogue's row must not answer for it."""
        clear_caches()
        program = Program(SR2_REDUCTION.exemplar)
        params = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
        real = Search(program, params, (SR2_REDUCTION,))
        assert real.sites(real.root) == [(0, 0, True)]
        never = replace(SR2_REDUCTION, when=lambda window: False)
        doctored = Search(program, params, (never,))
        assert doctored.sites(doctored.root) == []
        clear_caches()


# ---------------------------------------------------------------------------
# Structure guards
# ---------------------------------------------------------------------------


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _calls(tree: ast.AST, name: str):
    """Calls of the bare function ``name`` or of an attribute ``.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id == name) or (
                    isinstance(fn, ast.Attribute) and fn.attr == name):
                yield node


def _names_a_stage_class(node: ast.AST) -> bool:
    return any(isinstance(n, (ast.Name, ast.Attribute))
               and (n.id if isinstance(n, ast.Name) else n.attr).endswith("Stage")
               for n in ast.walk(node))


class TestStructure:
    def test_no_typed_formula_under_core_rules(self):
        for path, tree in _trees(SRC / "core" / "rules"):
            typed = [c for c in _calls(tree, "of")
                     if isinstance(c.func, ast.Attribute)
                     and getattr(c.func.value, "id", "") == "CostFormula"]
            assert not typed, f"{path.name} types a Table-1 column"

    def test_one_matcher_and_at_most_two_arm_questions(self):
        sites = [(path.name, call.lineno)
                 for path, tree in _trees(SRC / "core" / "rules")
                 for call in _calls(tree, "isinstance")
                 if _names_a_stage_class(call.args[1])]
        assert len(sites) <= 3, sites
        # the matcher itself goes through ``map(isinstance, …, lhs)``
        base = ast.parse((SRC / "core" / "rules" / "base.py").read_text())
        (match,) = [n for n in ast.walk(base) if isinstance(n, ast.FunctionDef)
                    and n.name == "match"]
        assert "isinstance" in {n.id for n in ast.walk(match)
                                if isinstance(n, ast.Name)}

    def test_no_class_derives_from_rule(self):
        for path, tree in _trees(SRC):
            derived = [
                node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and any(
                    (isinstance(b, ast.Name) and b.id == "Rule")
                    or (isinstance(b, ast.Attribute) and b.attr == "Rule")
                    for b in node.bases)]
            assert not derived, f"{path}: {derived} derive from Rule"
        assert not Rule.__subclasses__()

    def test_the_deleted_names_stay_deleted(self):
        gone = ("_SCHEMATA", "_is_scan", "_is_reduce", "_is_bcast",
                "_ComcastRule", "_LocalRule")
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            for name in gone:
                assert name not in text, f"{name} is back in {path}"

    def test_the_comcast_rows_take_no_impl_option(self):
        import inspect

        assert "impl" not in inspect.signature(Rule).parameters
        text = (SRC / "core" / "rules" / "comcast.py").read_text()
        assert "impl=" not in text.split('"""', 2)[2]
