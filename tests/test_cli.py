"""CLI tests (repro.cli) — every subcommand, against captured stdout."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, default_env, main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


EXAMPLE_SRC = """\
Program Example (x: input, v: output);
y = f ( x );
MPI_Scan (y, z, op1);
MPI_Reduce (z, u, op2);
v = g ( u );
MPI_Bcast (v);
"""


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.mpi"
    path.write_text(EXAMPLE_SRC)
    return str(path)


class TestOptimizeCommand:
    def test_optimizes_example(self, capsys, example_file):
        code, out = run_cli(capsys, "optimize", example_file, "--p", "16")
        assert code == 0
        assert "SR2-Reduction" in out
        assert "speedup" in out
        assert "optimized program:" in out
        assert "MPI_Reduce (z, u, op_sr2" in out

    def test_machine_parameters_respected(self, capsys, example_file):
        # absurdly cheap start-up: no conditional rule fires, SR2 still does
        code, out = run_cli(capsys, "optimize", example_file,
                            "--p", "8", "--ts", "0.1", "--tw", "0.1", "--m", "4096")
        assert code == 0
        assert "SR2-Reduction" in out  # "always" rule

    def test_extensions_flag(self, capsys, tmp_path):
        src = "Program P (x);\nMPI_Reduce (x, y, add);\nMPI_Bcast (y);\n"
        f = tmp_path / "p.mpi"
        f.write_text(src)
        code, out = run_cli(capsys, "optimize", str(f), "--extensions")
        assert code == 0
        assert "RB-Allreduce" in out
        code, out = run_cli(capsys, "optimize", str(f))
        assert code == 0
        assert "RB-Allreduce" not in out

    def test_greedy_strategy(self, capsys, example_file):
        code, out = run_cli(capsys, "optimize", example_file,
                            "--strategy", "greedy")
        assert code == 0 and "SR2-Reduction" in out

    def test_parse_error_reported(self, capsys, tmp_path):
        f = tmp_path / "bad.mpi"
        f.write_text("this is not a program")
        code = main(["optimize", str(f)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_a_planner_only_call_is_refused_by_name(self, capsys, tmp_path):
        from repro.core.stages import BalancedReduceStage

        f = tmp_path / "balanced.mpi"
        f.write_text("Program P (x: input);\n"
                     "MPI_Reduce_balanced (x, y, op_sr[add]);\n")
        code = main(["optimize", str(f)])
        err = capsys.readouterr().err
        assert code == 1
        reason = BalancedReduceStage.NOT_WRITABLE["MPI_Reduce_balanced"]
        assert err == (f"error: line 2: MPI_Reduce_balanced is "
                       f"BalancedReduceStage, which text cannot build: "
                       f"{reason}\n")

    def test_missing_file(self, capsys):
        code = main(["optimize", "/no/such/file.mpi"])
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_SRC))
        code, out = run_cli(capsys, "optimize", "-")
        assert code == 0 and "SR2-Reduction" in out

    def test_modulus_env(self, capsys, tmp_path):
        src = "Program P (x);\nMPI_Scan (x, y, modadd);\n"
        f = tmp_path / "p.mpi"
        f.write_text(src)
        code, _ = run_cli(capsys, "optimize", str(f), "--modulus", "97")
        assert code == 0
        code = main(["optimize", str(f)])  # without modulus: unknown op
        assert code == 1


class TestOtherCommands:
    def test_table1_symbolic(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "2ts + m*(2tw + 3)" in out
        assert "CR-Alllocal" not in out

    def test_table1_with_extensions(self, capsys):
        code, out = run_cli(capsys, "table1", "--extensions")
        assert "CR-Alllocal" in out

    def test_table1_numeric(self, capsys):
        code, out = run_cli(capsys, "table1", "--numeric", "--ts", "100")
        assert code == 0 and "margin" in out

    def test_advice(self, capsys):
        code, out = run_cli(capsys, "advice", "--ts", "600", "--m", "1024")
        assert code == 0
        assert "APPLY  SR2-Reduction" in out
        assert "skip   SS2-Scan" in out

    def test_catalogue(self, capsys):
        code, out = run_cli(capsys, "catalogue")
        assert code == 0
        for name in ("SR2-Reduction", "SS-Scan", "BR-Local", "CR-Alllocal"):
            assert name in out

    def test_figures(self, capsys):
        code, out = run_cli(capsys, "figures", "--p", "16")
        assert code == 0
        assert "Figure 7" in out and "Figure 8" in out
        assert "legend:" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDefaultEnv:
    def test_contains_paper_names(self):
        env = default_env()
        assert env["op1"].name == "mul" and env["op2"].name == "add"
        assert callable(env["f"][0])

    def test_modulus_ops(self):
        env = default_env(7)
        assert env["modadd"](5, 4) == 2
        assert env["modmul"](3, 5) == 1


class TestBreakdownCommand:
    def test_breakdown_table(self, capsys, example_file):
        code, out = run_cli(capsys, "breakdown", example_file, "--p", "8")
        assert code == 0
        assert "cumulative" in out
        assert "scan (mul)" in out
        assert "total simulated time" in out

    def test_breakdown_bad_file(self, capsys):
        assert main(["breakdown", "/no/such/file"]) == 1

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_breakdown_engine_cross_check(self, capsys, example_file, engine):
        code, out = run_cli(capsys, "breakdown", example_file,
                            "--p", "4", "--engine", engine)
        assert code == 0
        assert f"{engine} engine total" in out
        assert "agrees with the cooperative engine" in out

    def test_breakdown_rejects_unknown_engine(self, example_file):
        with pytest.raises(SystemExit):
            main(["breakdown", example_file, "--engine", "warp"])


class TestReportCommand:
    def test_report_stdout(self, capsys, example_file):
        code, out = run_cli(capsys, "report", example_file, "--p", "8")
        assert code == 0
        assert out.startswith("# Optimization report")
        assert "Simulated per-stage timing" in out

    def test_report_to_file(self, capsys, tmp_path, example_file):
        target = tmp_path / "report.md"
        code, out = run_cli(capsys, "report", example_file, "-o", str(target))
        assert code == 0
        assert "wrote" in out
        assert target.read_text().startswith("# Optimization report")

    def test_report_with_extensions(self, capsys, tmp_path):
        src = "Program P (x);\nMPI_Reduce (x, y, add);\nMPI_Bcast (y);\n"
        f = tmp_path / "p.mpi"
        f.write_text(src)
        code, out = run_cli(capsys, "report", str(f), "--extensions")
        assert code == 0 and "RB-Allreduce" in out

    def test_report_bad_file(self, capsys):
        assert main(["report", "/no/such/file"]) == 1


class TestCodegenCommand:
    def test_codegen_stdout(self, capsys, tmp_path):
        src = "Program P (x);\nMPI_Bcast (x);\nMPI_Scan (x, y, add);\n"
        f = tmp_path / "p.mpi"
        f.write_text(src)
        code, out = run_cli(capsys, "codegen", str(f), "--p", "8")
        assert code == 0
        assert "from mpi4py import MPI" in out
        # BS-Comcast fused bcast;scan into the repeat digit loop
        assert "while _k:" in out
        compile(out, "<cli-gen>", "exec")

    def test_codegen_no_optimize(self, capsys, tmp_path):
        src = "Program P (x);\nMPI_Bcast (x);\nMPI_Scan (x, y, add);\n"
        f = tmp_path / "p.mpi"
        f.write_text(src)
        code, out = run_cli(capsys, "codegen", str(f), "--no-optimize")
        assert code == 0
        assert "comm.scan" in out and "while _k:" not in out

    def test_codegen_to_file(self, capsys, tmp_path, example_file):
        target = tmp_path / "gen.py"
        code, out = run_cli(capsys, "codegen", example_file, "-o", str(target))
        assert code == 0 and target.exists()
        compile(target.read_text(), str(target), "exec")

    def test_codegen_bad_file(self, capsys):
        assert main(["codegen", "/no/such/file"]) == 1


class TestPlanCommand:
    def test_plan_round_trip_reports_resident_counters(
            self, capsys, tmp_path, example_file):
        store = str(tmp_path / "plans.json")
        code, out = run_cli(capsys, "plan", "optimize", example_file,
                            "--store", store, "--p", "16")
        assert code == 0 and "planned and cached" in out
        assert "1 stored plan(s), 1/256 in memory, 0 resident" in out
        assert "hits=0 (resident_hits=0) misses=1" in out

        # a new process replays from the store: a hit, but not by value
        code, out = run_cli(capsys, "plan", "optimize", example_file,
                            "--store", store, "--p", "16")
        assert code == 0 and "served from cache" in out
        assert "1/256 in memory, 1 resident" in out
        assert "hits=1 (resident_hits=0) misses=0" in out

        code, out = run_cli(capsys, "plan", "lookup", example_file,
                            "--store", store, "--p", "16")
        assert code == 0 and "hit: replayed cached plan" in out

        code, out = run_cli(capsys, "plan", "stats", "--store", store)
        assert code == 0
        assert "1 stored plan(s), 0/256 in memory, 0 resident" in out
        assert "hits=0 (resident_hits=0) misses=0" in out

        code, out = run_cli(capsys, "plan", "clear", "--store", store)
        assert code == 0 and "cleared 1 plan(s)" in out
        code, out = run_cli(capsys, "plan", "lookup", example_file,
                            "--store", store, "--p", "16")
        assert code == 1 and "miss:" in out

    def test_describe_tells_a_by_value_hit_from_a_replayed_one(self):
        from repro.core.cost import MachineParams
        from repro.core.optimizer import optimize
        from repro.core.plancache import PlanCache
        from repro.lang import parse_program

        cache = PlanCache()
        params = MachineParams(p=16, ts=600.0, tw=2.0, m=1)
        env = default_env()  # one environment: equal texts, equal programs
        for _ in range(4):  # miss, replayed hit, two by-value hits
            program = parse_program(EXAMPLE_SRC).to_program(env)
            optimize(program, params, strategy="beam", cache=cache)
        stats = cache.stats()
        assert (stats["misses"], stats["hits"], stats["resident_hits"],
                stats["resident_entries"]) == (1, 3, 2, 1)
        assert "1/256 in memory, 1 resident" in cache.describe()
        assert "hits=3 (resident_hits=2) misses=1" in cache.describe()


class TestServeCommand:
    def test_serve_demo(self, capsys, tmp_path):
        log = tmp_path / "serving.json"
        code, out = run_cli(capsys, "serve", "demo", "--jobs", "6",
                            "--tenants", "2", "--workers", "2",
                            "--log", str(log))
        assert code == 0
        assert "serving:" in out
        # the typed-backpressure tour names every error it demonstrates
        for err in ("JobFailedError", "DeadlineExceededError",
                    "QueueFullError", "TenantQuotaError"):
            assert err in out
        # the flushed flight recorder is a valid schema-v2 document
        from repro.recovery.events import RecoveryLog
        events = RecoveryLog.read(log)
        assert {"submit", "admit", "start", "complete"} <= set(events.kinds())

    def test_serve_demo_prints_the_models_verdict(self, capsys):
        """Each job's simulated time, and one line of resident-schedule
        hits and bypasses from ``stats()``: 2 program shapes x 2 tenants
        x 3 rounds is 12 jobs, at most one miss a shape."""
        from repro.core.store import clear_caches
        from repro.machine.run import simulate_program
        from repro.core.cost import MachineParams
        from repro.core.operators import ADD
        from repro.core.stages import Program, ScanStage

        clear_caches()
        code, out = run_cli(capsys, "serve", "demo", "--jobs", "6",
                            "--tenants", "2", "--workers", "1")
        assert code == 0
        verdicts = [line for line in out.splitlines() if "sim_time=" in line]
        assert len(verdicts) == 12
        scan = simulate_program(
            Program([ScanStage(ADD)]), [0, 1, 2, 3],
            MachineParams(p=4, ts=600.0, tw=2.0, m=1024))
        assert verdicts[0].endswith(f"sim_time={scan.time:g}")
        assert "resident schedules: hits=10 bypasses={}" in out

    def test_serve_demo_threaded_substrate(self, capsys):
        code, out = run_cli(capsys, "serve", "demo", "--jobs", "4",
                            "--substrate", "threaded")
        assert code == 0

    def test_serve_demo_chaos(self, capsys, tmp_path):
        trace = tmp_path / "chaos_events.json"
        code, out = run_cli(capsys, "serve", "demo", "--chaos",
                            "--runs", "2", "--log", str(trace))
        assert code == 0
        assert "serving chaos" in out
        import json as _json
        from repro.parallel import process_fallback_reason
        if process_fallback_reason(2) is None:
            doc = _json.loads(trace.read_text())
            assert doc["events"]  # kill-scenario event trace uploaded by CI

    def test_serve_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            main(["serve", "frobnicate"])

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGINT"),
                        reason="POSIX signals required")
    def test_serve_demo_sigint_drains_gracefully(self, tmp_path):
        """SIGINT mid-demo: the run drains, flushes its log, reports the
        interruption, and exits 130 — no raw traceback."""
        import os
        import signal as _signal
        import subprocess
        import sys
        import time as _time

        log = tmp_path / "serving.json"
        env = dict(os.environ,
                   PYTHONPATH="src", REPRO_PARALLEL_FORCE="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "demo",
             "--jobs", "25000", "--tenants", "4", "--workers", "1",
             "--log", str(log)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        _time.sleep(1.0)  # let it get into the stream
        proc.send_signal(_signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, (out, err)
        assert "Traceback" not in err
        assert "stop requested" in err
        assert log.exists()  # the flight recorder was still flushed


class TestBenchSummaryCommand:
    @staticmethod
    def _run(capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_skips_malformed_files_loudly(self, capsys, tmp_path):
        import json

        results = tmp_path / "results"
        results.mkdir()
        good = {"series": [{"m": 4, "t": 1.0}], "speedup": 2.0}
        (results / "BENCH_good.json").write_text(json.dumps(good))
        (results / "BENCH_truncated.json").write_text('{"series": [{"m": 4')
        (results / "BENCH_badschema.json").write_text(
            '{"series": 7, "host": "not-a-dict"}')
        code, out, err = self._run(
            capsys, "bench", "summary", "--results", str(results))
        assert code == 0
        assert "BENCH_good.json" in out and "speedup=2.00" in out
        # the malformed files are named loudly on stderr, not fatal
        assert "BENCH_truncated.json" in err
        assert "skipped" in out

    def test_all_malformed_is_an_error(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_broken.json").write_text("{not json")
        code, out, err = self._run(
            capsys, "bench", "summary", "--results", str(results))
        assert code == 1
        assert "BENCH_broken.json" in err
        assert "no usable" in err

    def test_empty_dir_is_an_error(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        code, out, err = self._run(
            capsys, "bench", "summary", "--results", str(results))
        assert code == 1
