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
        """``benchmarks/results/`` is the one home of the benchmark JSON:
        the root copies that used to twin it are deleted, and ``python -m
        repro bench summary`` prints its table from there without copying
        a file out, so a root ``BENCH_*.json`` is a second home."""
        assert sorted(ROOT.glob("BENCH_*.json")) == []
        assert sorted((ROOT / "benchmarks" / "results").glob("BENCH_*.json"))


class TestPerformanceDoc:
    def test_the_registration_snippets_run(self, monkeypatch):
        """The two ``python`` blocks of "A primitive is one row" in
        ``docs/PERFORMANCE.md`` run as written, on a copy of the tables:
        the bare rows decline by the printed name, the full ``GCD`` row
        takes the fused rung, and ``inc3`` applies ADD's own row."""
        import re

        import numpy as np

        from repro.core.operators import ADD
        from repro.core.stages import Program, ScanStage
        from repro.jit import engine_lower
        from repro.kernels import registry

        page = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        section = page.split("## A primitive is one row")[1].split("\n## ")[0]
        bare, full = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
        for table in ("_PRIMITIVES", "_MAPS"):
            monkeypatch.setattr(registry, table, dict(getattr(registry, table)))
        ns: dict = {}
        exec(bare, ns)
        xs = [np.array([12, 18], dtype=np.int64), np.array([8, 27], dtype=np.int64)]
        prog = Program([ScanStage(ns["GCD"])])
        assert engine_lower(prog, xs).why == "no-raw:gcd"
        exec(full, ns)
        assert engine_lower(prog, xs).rung == "fused"
        [(_, inc3)] = registry.map_rows([("inc3", ns["inc3"])])
        assert inc3.effect == ("apply", registry.primitive(ADD), 3)

    def test_every_memo_site_has_a_row(self):
        """"What each memo buys" has one row per memo site under ``src/``
        — a ``BoundedStore``, an ``lru_cache``, a ``cached_property``, a
        ``__dict__`` stash, ``PlanCache`` and ``BlockPool`` — so a new memo
        lands with its measurement.  A kept row names a site that is
        there, a deleted row one that is gone."""
        import re

        src = ROOT / "src" / "repro"
        sites = set()
        for path in src.rglob("*.py"):
            text = path.read_text()
            names = (re.findall(r"(\w+) = BoundedStore\(", text)
                     + re.findall(r'__dict__\["(_\w+)"\] =', text)
                     + re.findall(r"@(?:functools\.)?(?:lru_cache|cache|"
                                  r"cached_property)\b.*\n\s*def (\w+)", text)
                     + re.findall(r"^class (PlanCache|BlockPool)\b", text,
                                  re.MULTILINE))
            sites.update((path.relative_to(src).as_posix(), name)
                         for name in names)
        page = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        section = page.split("\n# What each memo buys\n")[1].split("\n# ")[0]
        rows = re.findall(r"^\| `(\w+)` \| `([\w/.]+)` \|.*\| (\w+)[^|]* \|$",
                          section, re.MULTILINE)
        kept = {(f, name) for name, f, verdict in rows if verdict == "kept"}
        gone = {(f, name) for name, f, verdict in rows if verdict == "deleted"}
        assert len(rows) == len(kept) + len(gone) == len(kept | gone)
        assert sites - kept == set(), "memo sites with no row"
        assert kept - sites == set(), "kept rows whose site is gone"
        assert gone & sites == set(), "deleted rows whose site is back"

    def test_every_mechanism_has_a_row(self):
        """"What each mechanism buys" has one row per runtime speed
        mechanism — kept rows name a site under ``src/`` that is there,
        deleted rows one that is gone."""
        import re

        src = ROOT / "src" / "repro"
        sites = set()
        for path in src.rglob("*.py"):
            names = re.findall(
                r"^\s*(?:class (ArenaPool|PackedBlock|ProcessStageRunner)\b"
                r"|def (_run_batch|_chunk_bytes|duplex)\()",
                path.read_text(), re.MULTILINE)
            sites.update((path.relative_to(src).as_posix(), a or b)
                         for a, b in names)
        page = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        section = page.split("\n# What each mechanism buys\n")[1] \
            .split("\n# ")[0]
        rows = re.findall(r"^\| `(\w+)` \| `([\w/.]+)` \|.*\| (\w+) \|$",
                          section, re.MULTILINE)
        kept = {(f, name) for name, f, verdict in rows if verdict == "kept"}
        gone = {(f, name) for name, f, verdict in rows if verdict == "deleted"}
        assert len(rows) == len(kept) + len(gone) == len(kept | gone) == 6
        assert sites - kept == set(), "mechanism sites with no row"
        assert kept - sites == set(), "kept rows whose site is gone"
        assert gone & sites == set(), "deleted rows whose site is back"


class TestRulesPage:
    def test_rules_page_is_the_generated_catalogue(self):
        """``docs/RULES.md`` is ``python -m repro catalogue``, byte for
        byte: a rule added, reworded or re-costed without regenerating
        the page fails here (CI diffs the two as well)."""
        from repro.analysis.report import rule_catalogue

        page = (ROOT / "docs" / "RULES.md").read_text()
        assert page == rule_catalogue() + "\n"
