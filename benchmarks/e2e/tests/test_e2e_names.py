"""Names agree between BENCHMARK.json, the registry and the outputs,
and the quick run of all five workloads completes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import compare
from benchmarks.e2e.metrics import (
    END_TO_END,
    EXACT,
    GATED,
    PER_LAYER,
    WORKLOAD_NAMES,
)
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMED = re.compile(r"_(us|ms|s|rps)$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_matches_the_registry(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(GATED)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_names_units_and_bounds_are_legal(contract):
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    assert 1 <= contract["run_seconds"] <= 60


def test_wall_and_simulated_clocks_never_share_a_metric():
    for m in END_TO_END + PER_LAYER:
        if TIMED.search(m.name):
            assert m.clock in ("wall", "cpu"), m.name
        if m.clock == "simulated":
            assert m.exact and not TIMED.search(m.name), m.name
    assert "sim_speedup" in EXACT and "machine.sim_time" in EXACT


def _table_names(stdout):
    return [line.split()[0] for line in stdout.splitlines()
            if line.startswith("  ")
            and not line.startswith(("  PROBLEM", "  as read"))]


def test_quick_run_of_all_five_workloads(tmp_path, contract):
    out = tmp_path / "quick.json"
    done = subprocess.run(RUN + ["--quick", "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert {"nproc", "platform", "python", "numpy", "env"} <= set(doc["host"])
    assert [r["workload"] for r in doc["runs"]] == list(WORKLOAD_NAMES)
    wanted = [m["name"] for m in contract["end_to_end"]]
    for run in doc["runs"]:
        assert run["correct"] and run["failed"] == 0, run
        assert list(run["metrics"]) == wanted
        assert all(v["value"] > 0 for v in run["metrics"].values())
        assert run["host"]["env"] == {"REPRO_PARALLEL_FORCE": "1"}
    # the printed table carries the same names, once per workload
    assert _table_names(done.stdout) == wanted * len(WORKLOAD_NAMES)
    assert next(r for r in doc["runs"]
                if r["workload"] == "serve_hot")["sim_speedup"] > 1
    assert next(r for r in doc["runs"]
                if r["workload"] == "plan_cold")["sim_speedup"] > 1
    # a file agrees with itself; a slowed copy is caught
    assert {r["verdict"] for r in compare(doc["runs"], doc["runs"])} \
        <= {"ok", "-"}
    slow = json.loads(out.read_text())["runs"]
    for run in slow:
        run["metrics"]["latency_p50_ms"]["value"] *= 1.5
        run["sim_speedup"] += 0.25
    verdicts = {(r["metric"], r["verdict"])
                for r in compare(doc["runs"], slow)}
    assert ("latency_p50_ms", "regressed") in verdicts
    assert ("sim_speedup", "differs") in verdicts
    assert ("throughput_rps", "ok") in verdicts


def test_quick_traced_run_reports_every_layer(contract):
    done = subprocess.run(
        RUN + ["--workload", "engine_process", "--seed", "1", "--quick",
               "--trace", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    wanted = [m["name"] for m in contract["per_layer"]]
    assert list(last["metrics"]) == wanted == _table_names(done.stdout)
    assert last["correct"] and last["failed"] == 0
    # real rank processes ran, and agreed with the cooperative clocks
    assert last["metrics"]["parallel.child_cpu_share"]["value"] > 0
    assert last["metrics"]["parallel.clock_mismatch"]["value"] == 0
    trace = ROOT / "benchmarks" / "e2e" / "results" / "trace-engine_process.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"request", "parallel.run", "lang.parse", "planner.search",
            "machine.simulate", "serving.roundtrip"} <= {s["name"]
                                                         for s in spans}
    assert all({"id", "name", "start", "end", "parent", "request"} == set(s)
               for s in spans)
