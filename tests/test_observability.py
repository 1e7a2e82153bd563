"""Observability: probes, stage breakdown, markdown derivation reports,
and the span recorder (``repro.obs``).

* The recorder is the benchmark's moved into the library: for one span
  tree it gives the same self times, the same per-name table and the
  same JSON lines as ``benchmarks/e2e/trace.py``, apart from the
  collector fields.
* The process-wide tracer is off by default: a cold plan and a served
  job record nothing and install no collector callback.
* While a tracer is on, a collection is booked on the innermost open
  span of the thread that ran it, and nowhere else; threads recording
  at once each nest on their own stack.
* A recorded span does not reference its tracer, so a dropped tracer and
  its spans are freed by their reference counts.
* ``python -m repro trace FILE`` prints the per-name table.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.derivation_doc import derivation_markdown
from repro.apps import build_example
from repro.cli import main
from repro.core.cost import MachineParams, program_cost
from repro.core.operators import ADD, MUL
from repro.core.optimizer import optimize
from repro.core.plancache import PlanCache
from repro.core.rules import FULL_RULES
from repro.core.stages import BcastStage, Program, ReduceStage, ScanStage
from repro.core.store import clear_caches
from repro.lang import parse_program
from repro.machine.engine import run_spmd
from repro.machine.run import StageTiming, stage_breakdown
from repro.obs import trace as obs_trace
from repro.serving import ServingConfig, ServingManager

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.append(str(REPO))
from benchmarks.e2e import trace as bench_trace  # noqa: E402

PARAMS = MachineParams(p=8, ts=100.0, tw=2.0, m=16)
SMALL = MachineParams(p=4, ts=10.0, tw=1.0, m=1)


class TestProbe:
    def test_probe_records_clock(self):
        def prog(ctx, x):
            yield from ctx.compute(25)
            yield from ctx.probe("mid")
            yield from ctx.compute(10)
            return None

        res = run_spmd(prog, [0, 0], PARAMS)
        records = sorted(res.stats.timeline)
        assert records == [(0, "mid", 25.0), (1, "mid", 25.0)]

    def test_probe_costs_nothing(self):
        def with_probe(ctx, x):
            yield from ctx.probe(1)
            yield from ctx.probe(2)
            return x

        res = run_spmd(with_probe, [7], PARAMS)
        assert res.time == 0.0


class TestStageBreakdown:
    def test_durations_sum_to_makespan(self):
        prog = build_example()
        res, timings = stage_breakdown(prog, list(range(1, 9)), PARAMS)
        assert sum(t.duration for t in timings) == pytest.approx(res.time)
        assert timings[-1].end == pytest.approx(res.time)

    def test_stage_durations_match_stage_costs(self):
        """Each collective stage's duration equals its model cost."""
        from repro.core.cost import stage_cost

        prog = Program([BcastStage(), ScanStage(ADD)])
        _res, timings = stage_breakdown(prog, [1] * 8, PARAMS)
        for stage, timing in zip(prog.stages, timings):
            assert timing.duration == pytest.approx(stage_cost(stage, PARAMS))

    def test_labels_present(self):
        prog = Program([ScanStage(ADD)])
        _res, timings = stage_breakdown(prog, [1, 2], PARAMS)
        assert timings[0].pretty == "scan (add)"
        assert isinstance(timings[0], StageTiming)


class TestDerivationMarkdown:
    def test_report_structure(self):
        res = optimize(build_example(), PARAMS)
        md = derivation_markdown(res)
        assert md.startswith("# Optimization report")
        assert "SR2-Reduction" in md
        assert "```" in md and "MPI_Reduce" in md
        assert "speedup" in md

    def test_per_step_costs_listed(self):
        res = optimize(build_example(), PARAMS)
        md = derivation_markdown(res)
        # initial cost and each rewritten program cost appear
        assert f"{res.cost_before:.1f}" in md
        assert f"{res.cost_after:.1f}" in md

    def test_timing_table_with_inputs(self):
        res = optimize(build_example(), PARAMS)
        md = derivation_markdown(res, inputs=list(range(1, 9)))
        assert "Simulated per-stage timing" in md
        assert "| cumulative |" in md

    def test_no_steps_report(self):
        prog = Program([BcastStage()])
        res = optimize(prog, PARAMS)
        md = derivation_markdown(res)
        assert "speedup 1.00" in md


class TestCommGantt:
    def test_gantt_renders_all_ranks(self):
        from repro.analysis.gantt import comm_gantt
        from repro.machine import simulate_program

        sim = simulate_program(build_example(), list(range(1, 9)), PARAMS)
        chart = comm_gantt(sim, width=40)
        lines = chart.splitlines()
        assert len(lines) == 9  # 8 ranks + time axis
        assert all(l.startswith("rank") for l in lines[:-1])
        assert "#" in chart

    def test_gantt_events_recorded(self):
        from repro.machine import simulate_program

        sim = simulate_program(build_example(), list(range(1, 9)), PARAMS)
        # bcast(7 msgs) + scan(3 phases x 8 sendrecvs=24... counted per dir)
        assert len(sim.stats.events) == sim.stats.messages
        for src, dst, end, words in sim.stats.events:
            assert 0 <= src < 8 and 0 <= dst < 8
            assert 0 < end <= sim.time
            assert words >= 0

    def test_gantt_width_validation(self):
        import pytest as _pytest

        from repro.analysis.gantt import comm_gantt
        from repro.machine import simulate_program

        sim = simulate_program(build_example(), list(range(1, 9)), PARAMS)
        with _pytest.raises(ValueError):
            comm_gantt(sim, width=5)


# -- the span recorder (repro.obs) --------------------------------------------

def _tree(module, monkeypatch) -> list:
    """One span tree, recorded on a clock that ticks once per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(module, "_now", lambda: float(next(ticks)))
    tracer = module.Tracer(enabled=True)
    root = tracer.open_request(7)
    with tracer.resume(root):
        with tracer.span("lang.parse"):
            pass
        with tracer.span("planner.search"):
            with tracer.span("plancache.miss") as span:
                span.name = "plancache.hit"
            with tracer.span("plancache.put"):
                pass
    with tracer.span("outside"):
        pass
    with tracer.resume(root):
        with tracer.span("serving.submit"):
            pass
    tracer.close(root)
    tracer.enabled = False
    return tracer.spans


def test_the_moved_recorder_reads_as_the_benchmarks(monkeypatch, tmp_path):
    ours = _tree(obs_trace, monkeypatch)
    theirs = _tree(bench_trace, monkeypatch)
    assert obs.self_times(ours) == bench_trace.self_times(theirs)
    assert obs.by_name(ours) == bench_trace.by_name(theirs)
    assert obs.write_jsonl(ours, tmp_path / "ours.jsonl") == \
        bench_trace.write_jsonl(theirs, tmp_path / "theirs.jsonl") == len(ours)
    docs = list(obs.read_jsonl(tmp_path / "ours.jsonl"))
    assert [{k: v for k, v in doc.items() if not k.startswith("gc_")}
            for doc in docs] == list(
        bench_trace.read_jsonl(tmp_path / "theirs.jsonl"))
    assert all(doc["gc_runs"] == 0 and doc["gc_us"] == 0.0 for doc in docs)
    assert {doc["request"] for doc in docs} == {7, None}  # "outside": None
    read = [obs.Span.from_doc(doc) for doc in docs]
    assert obs.self_times(read) == obs.self_times(ours)


def test_the_default_tracer_is_off_and_records_nothing():
    tracer = obs.TRACER
    assert not tracer.enabled
    spans, callbacks = len(tracer.spans), list(gc.callbacks)
    program = Program([ScanStage(MUL), ReduceStage(ADD)], name="cold")
    cache = PlanCache()
    assert optimize(program, SMALL, FULL_RULES, strategy="beam",
                    cache=cache).cost_after <= \
        optimize(program, SMALL, FULL_RULES, strategy="beam",
                 cache=cache).cost_before
    with ServingManager(ServingConfig(substrate="cooperative")) as mgr:
        assert mgr.submit(program, [1, 2, 3, 4], SMALL).result(
            timeout=60.0) == tuple(program.run([1, 2, 3, 4]))
    assert len(tracer.spans) == spans
    assert gc.callbacks == callbacks


def test_the_seams_record_while_the_tracer_is_on():
    tracer = obs.TRACER
    callbacks = list(gc.callbacks)
    first = len(tracer.spans)
    tracer.enabled = True
    try:
        assert len(gc.callbacks) == len(callbacks) + 1
        program = parse_program(
            "Program Traced (x);\nMPI_Scan (x, y, mul);\n"
            "MPI_Reduce (y, z, add);\n").to_program({"mul": MUL,
                                                      "add": ADD})
        cache = PlanCache()
        for _ in range(2):
            optimize(program, SMALL, FULL_RULES, strategy="beam",
                     cache=cache)
        with ServingManager(ServingConfig(substrate="cooperative")) as mgr:
            handle = mgr.submit(program, [1, 2, 3, 4], SMALL)
            handle.result(timeout=60.0)
    finally:
        tracer.enabled = False
    assert gc.callbacks == callbacks
    spans = tracer.spans[first:]
    del tracer.spans[first:]
    assert [s.name for s in spans] == [
        "lang.parse", "lang.to_program", "plancache.miss", "planner.search",
        "plancache.put", "plancache.hit", "serving.submit",
        "machine.resident"]
    assert spans[-2].request == handle.job_id
    assert spans[-1].outcome == "miss"  # on the worker: no parent here


def test_an_inline_hit_reads_from_its_spans(tmp_path):
    """One queued miss and one resident hit: from the written spans alone,
    the miss's ``machine.resident`` ran on the worker (no parent) and the
    hit's inside its own ``serving.submit``."""
    clear_caches()
    program = Program([ScanStage(ADD)], name="inline")
    tracer = obs.TRACER
    first = len(tracer.spans)
    tracer.enabled = True
    try:
        with ServingManager(ServingConfig(substrate="cooperative")) as mgr:
            miss = mgr.submit(program, [1, 2, 3, 4], SMALL)
            miss.result(timeout=60.0)
            hit = mgr.submit(program, [5, 6, 7, 8], SMALL)
            assert hit.done()
    finally:
        tracer.enabled = False
    path = tmp_path / "spans.jsonl"
    obs.write_jsonl(tracer.spans[first:], path)
    del tracer.spans[first:]
    docs = list(obs.read_jsonl(path))
    submits = {d["request"]: d["id"] for d in docs
               if d["name"] == "serving.submit"}
    resident = [d for d in docs if d["name"] == "machine.resident"]
    assert [(d["outcome"], d["parent"], d["request"]) for d in resident] == [
        ("miss", None, None), ("hit", submits[hit.job_id], hit.job_id)]
    assert "outcome" not in docs[0]  # a seam that answers nothing


def test_a_collection_is_booked_on_the_innermost_span_of_its_thread():
    tracer = obs.Tracer(enabled=True)
    gc.disable()  # only the explicit collections below run
    try:
        with tracer.span("outer"):
            with tracer.span("x"):
                gc.collect()
            with tracer.span("y"):
                pass
        with tracer.span("main"):
            worker = threading.Thread(target=lambda: _collect_in(tracer))
            worker.start()
            worker.join()
    finally:
        gc.enable()
        tracer.enabled = False
    runs = {s.name: s.gc_runs for s in tracer.spans}
    assert runs == {"outer": 0, "x": runs["x"], "y": 0, "main": 0,
                    "worker": runs["worker"]}
    assert runs["x"] >= 1 and runs["worker"] >= 1
    timed = {s.name for s in tracer.spans if s.gc_us > 0}
    assert timed == {"x", "worker"}
    worker_span = tracer.spans[-1]
    assert worker_span.name == "worker" and worker_span.parent is None


def test_threads_nest_spans_on_their_own_stacks():
    """Many threads recording at once, switching every few bytecodes:
    every id is drawn once and every parent is a span of the same
    thread, opened around its child."""
    tracer = obs.Tracer(enabled=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def record(k: int) -> None:
        for _ in range(200):
            with tracer.span(f"outer{k}"):
                with tracer.span(f"inner{k}"):
                    pass

    workers = [threading.Thread(target=record, args=(k,)) for k in range(6)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        tracer.enabled = False
    assert not any(worker.is_alive() for worker in workers)
    spans = {s.id: s for s in tracer.spans}
    assert len(spans) == len(tracer.spans) == 6 * 200 * 2
    for span in spans.values():
        if span.name.startswith("outer"):
            assert span.parent is None
        else:
            parent = spans[span.parent]
            assert parent.name == "outer" + span.name[len("inner"):]
            assert parent.start <= span.start <= span.end <= parent.end


def _collect_in(tracer: obs.Tracer) -> None:
    with tracer.span("worker"):
        gc.collect()


def test_a_tracer_and_its_spans_are_freed_by_their_counts():
    tracer = obs.Tracer(enabled=True)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    tracer.enabled = False
    gc.collect()
    gc.disable()
    try:
        del tracer
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_trace_command_prints_the_table(tmp_path, capsys, monkeypatch):
    spans = _tree(obs_trace, monkeypatch)
    spans[3].gc_runs, spans[3].gc_us = 2, 1500.0
    path = tmp_path / "spans.jsonl"
    obs.write_jsonl(spans, path)
    assert main(["trace", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["span", "count", "total_ms", "self_ms",
                                "gc_runs", "gc_ms"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert set(rows) == {"request", "lang.parse", "planner.search",
                         "plancache.hit", "plancache.put", "outside",
                         "serving.submit"}
    assert rows["request"][0] == "1" and rows["lang.parse"][0] == "1"
    assert rows[spans[3].name][3:] == ["2", "1.500"]
    # a tick is a second: the root runs 13 ticks and its children cover 7
    assert rows["request"][1:3] == ["13000.000", "6000.000"]


def test_the_trace_command_reads_a_benchmark_file(tmp_path, capsys,
                                                  monkeypatch):
    """A file without the collector fields still reads (as zero)."""
    path = tmp_path / "bench.jsonl"
    bench_trace.write_jsonl(_tree(bench_trace, monkeypatch), path)
    assert "gc_runs" not in json.loads(path.read_text().splitlines()[0])
    assert main(["trace", str(path)]) == 0
    assert "planner.search" in capsys.readouterr().out


@pytest.mark.parametrize("on", [False, True])
def test_the_null_span_takes_a_rename_and_a_request(on):
    tracer = obs.Tracer(enabled=on)
    with tracer.span("plancache.miss") as span:
        span.name = "plancache.hit"
        span.request = "job-1"
    tracer.enabled = False
    assert [(s.name, s.request) for s in tracer.spans] == (
        [("plancache.hit", "job-1")] if on else [])
