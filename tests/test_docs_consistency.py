"""Documentation-consistency guards: DESIGN/EXPERIMENTS stay truthful."""

from __future__ import annotations

import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()
README = (ROOT / "README.md").read_text()


class TestDesignDoc:
    def test_every_rule_documented(self):
        from repro.core.rules import FULL_RULES

        for rule in FULL_RULES:
            assert rule.name in DESIGN, f"{rule.name} missing from DESIGN.md"

    def test_paper_identity_check_present(self):
        assert "Paper-identity check" in DESIGN
        assert "Gorlatch" in DESIGN

    def test_semantics_deviation_documented(self):
        assert "Semantics deviation" in DESIGN
        assert "MPI standard" in DESIGN

    def test_per_experiment_index_mentions_every_figure(self):
        for exp in ("Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                    "Fig 8", "Table 1"):
            assert exp in DESIGN, f"{exp} missing from DESIGN.md index"

    def test_indexed_test_files_exist(self):
        """Every tests/... or benchmarks/... path named in DESIGN.md exists."""
        import re

        for match in re.finditer(r"`((?:tests|benchmarks)/[\w/]+\.py)", DESIGN):
            path = ROOT / match.group(1)
            assert path.exists(), f"DESIGN.md references missing {match.group(1)}"


class TestExperimentsDoc:
    def test_every_figure_row_present(self):
        for exp in ("Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                    "Fig 8", "Table 1", "§4.2", "§5"):
            assert exp in EXPERIMENTS, exp

    def test_referenced_result_files_exist_after_bench_run(self):
        """EXPERIMENTS points at benchmarks/results/*.txt; after a bench
        run they must all exist (this test tolerates a fresh checkout)."""
        import re

        results_dir = ROOT / "benchmarks" / "results"
        if not results_dir.exists():
            pytest.skip("benchmarks not yet run")
        for match in re.finditer(r"benchmarks/results/([\w.]+\.txt)", EXPERIMENTS):
            assert (results_dir / match.group(1)).exists(), match.group(1)

    def test_substrate_note_present(self):
        assert "Parsytec" in EXPERIMENTS
        assert "shape" in EXPERIMENTS


class TestReadme:
    def test_install_commands_present(self):
        assert "pip install -e ." in README
        assert "pytest tests/" in README
        assert "pytest benchmarks/ --benchmark-only" in README

    def test_quickstart_code_is_valid_python(self):
        import re

        blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
        assert blocks, "README has no python examples"
        for block in blocks:
            compile(block, "<readme>", "exec")

    def test_examples_listed_exist(self):
        import re

        for match in re.finditer(r"`examples/([\w.]+\.py)`", README):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(1)


class TestBenchNumbers:
    def test_root_bench_files_are_their_results_twins(self):
        """``benchmarks/results/`` is the one source of truth: a root
        ``BENCH_*.json`` is what ``python -m repro bench summary`` copies
        out of it, so the two are byte-identical — a number (or the host
        stamp it was measured under) edited in one place fails here."""
        roots = sorted(ROOT.glob("BENCH_*.json"))
        assert roots, "no root BENCH_*.json files"
        for path in roots:
            twin = ROOT / "benchmarks" / "results" / path.name
            assert twin.exists(), f"{path.name} has no benchmarks/results twin"
            assert path.read_text() == twin.read_text(), (
                f"{path.name} differs from benchmarks/results/{path.name}; "
                f"re-run `python -m repro bench summary`")


class TestRulesPage:
    def test_rules_page_is_the_generated_catalogue(self):
        """``docs/RULES.md`` is ``python -m repro catalogue``, byte for
        byte: a rule added, reworded or re-costed without regenerating
        the page fails here (CI diffs the two as well)."""
        from repro.analysis.report import rule_catalogue

        page = (ROOT / "docs" / "RULES.md").read_text()
        assert page == rule_catalogue() + "\n"
