"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------

``optimize FILE``
    Parse an MPI-like program (repro.lang syntax), optimize it for the
    given machine parameters, print the derivation and the optimized
    program in MPI-like notation.
``table1``
    Regenerate the paper's Table 1 (symbolic, or numeric with machine
    parameters).
``advice``
    Per-machine rule recommendations with thresholds.
``catalogue``
    Print the full rule catalogue (schemata, conditions, costs).
``figures``
    Re-run the Figure 7/8 sweeps on the simulator and render ASCII
    charts.
``breakdown FILE``
    Simulate a program and print the per-stage timing breakdown.
``report FILE``
    Optimize a program and write a markdown derivation report.
``codegen FILE``
    Optimize a program and emit a runnable mpi4py script.
``conformance``
    Randomized multi-backend conformance run: differential testing of
    all execution backends, rule-soundness, cost-monotonicity and
    planner-agreement checks (see ``docs/TESTING.md``).  With
    ``--chaos``, replay generated programs under sampled fault plans
    instead (see ``docs/FAULTS.md``).
``plan ACTION [FILE]``
    The persistent plan cache: ``optimize`` plans a program (serving
    from the cache when the shape is known), ``lookup`` replays a
    cached plan without planning on a miss, ``stats`` prints the
    hit/miss counters, ``clear`` empties the store (default store:
    ``.repro-plancache.json``).
``jit ACTION [FILE]``
    The whole-program JIT tier: ``stats`` prints compile-cache and
    kernel-dispatch counters (with a program file, compiles and
    demo-runs it first — as written and as the planner would serve it,
    ``optimize(rules=FULL_RULES, strategy="beam")`` at the given
    machine — showing for each which steps run as raw fused kernels,
    which rung of the engine ladder ``simulate_program(jit=True)``
    would take for it, and why, and whether a served hit on int blocks
    computes with the exact tier's generated function or why not),
    ``clear`` drops the compile cache and resets the counters.
``bench summary``
    Print the headline table of ``benchmarks/results/BENCH_*.json`` —
    the in-repo perf trajectory, kept in that one directory.
``faults demo``
    Deterministic walkthrough of the fault-injection layer: retry
    recovery, dead-link timeouts, crash degradation, engine agreement.
``recover``
    Deterministic walkthrough of the checkpoint/restart recovery
    runtime: fault-free supervision, link quarantine with relay
    rerouting, shrink-recovery after a crash, typed exhaustion.
    ``--log PATH`` writes the quarantine scenario's structured JSON
    event log (the artifact CI uploads).
``serve demo``
    Walkthrough of the multi-tenant job-service runtime: a worker pool
    serving a stream of tenant jobs with admission control, quotas,
    deadlines and the retry/quarantine ladder; prints each job's
    simulated time (``sim_time``, from its handle) and the manager's
    resident-schedule hits and bypasses.  ``--chaos`` runs the
    SIGKILL roulette instead (workers killed mid-job; surviving tenants
    must stay bit-identical).  ``--log PATH`` writes the job-lifecycle
    event log.  Long-running commands (``serve``, ``conformance
    --chaos``) shut down gracefully on SIGINT/SIGTERM: in-flight jobs
    drain, the event log is flushed, and the exit code is 130.
``trace FILE``
    Read a span file written by :func:`repro.obs.write_jsonl` and print,
    per span name, the count, the total and self time, and the time of
    the collections booked on it.

Machine parameters are given as ``--p/--ts/--tw/--m``; operator names in
program files resolve against a built-in environment (``add mul max min
concat`` plus ``f/g/h`` demo local functions, extendable with
``--modulus N`` for ``modadd``/``modmul``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.analysis import machine_advice, render_table1, render_table1_numeric, rule_catalogue
from repro.analysis.asciiplot import line_chart
from repro.core.cost import MachineParams
from repro.core.operators import ADD, CONCAT, MAX, MIN, MUL, mod_add, mod_mul
from repro.core.optimizer import optimize
from repro.core.rules import ALL_RULES, FULL_RULES
from repro.lang import ParseError, parse_program, to_mpi_text
from repro.machine import ENGINES

__all__ = ["main", "build_parser", "default_env"]


def default_env(modulus: int | None = None) -> dict[str, Any]:
    """Name environment for CLI-parsed programs."""
    env: dict[str, Any] = {
        "add": ADD, "mul": MUL, "max": MAX, "min": MIN, "concat": CONCAT,
        # the paper's op1/op2 convention
        "op1": MUL, "op2": ADD,
        # demo local functions
        "f": (lambda x: 2 * x, 1),
        "g": (lambda x: x + 1, 1),
        "h": (lambda x: x - 1, 1),
        "id": (lambda x: x, 0),
    }
    if modulus:
        env["modadd"] = mod_add(modulus)
        env["modmul"] = mod_mul(modulus)
    return env


def _machine(args: argparse.Namespace) -> MachineParams:
    return MachineParams(p=args.p, ts=args.ts, tw=args.tw, m=args.m)


def _add_machine_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=64, help="processors (default 64)")
    sub.add_argument("--ts", type=float, default=600.0,
                     help="message start-up time (default 600)")
    sub.add_argument("--tw", type=float, default=2.0,
                     help="per-word transfer time (default 2)")
    sub.add_argument("--m", type=int, default=1024,
                     help="block size in elements (default 1024)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Collective-operation fusion (Gorlatch/Wedler/Lengauer, IPPS'99)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_opt = subs.add_parser("optimize", help="optimize an MPI-like program file")
    p_opt.add_argument("file", help="program file (repro.lang syntax), or - for stdin")
    _add_machine_args(p_opt)
    p_opt.add_argument("--strategy", choices=("exhaustive", "greedy", "beam"),
                       default="exhaustive")
    p_opt.add_argument("--extensions", action="store_true",
                       help="enable the extension rules (RB-Allreduce, ...)")
    p_opt.add_argument("--allow-lossy", action="store_true",
                       help="allow Local rules mid-program")
    p_opt.add_argument("--modulus", type=int, default=None,
                       help="enable modadd/modmul operators mod N")

    p_t1 = subs.add_parser("table1", help="regenerate the paper's Table 1")
    p_t1.add_argument("--numeric", action="store_true",
                      help="evaluate at machine parameters instead of symbolic")
    p_t1.add_argument("--extensions", action="store_true")
    _add_machine_args(p_t1)

    p_adv = subs.add_parser("advice", help="which rules pay off on this machine")
    _add_machine_args(p_adv)

    subs.add_parser("catalogue", help="print the rule catalogue")

    p_int = subs.add_parser("interactions",
                            help="which collective combinations fuse")
    p_int.add_argument("--no-extensions", action="store_true")

    p_fig = subs.add_parser("figures", help="re-run Figure 7/8 sweeps (ASCII)")
    _add_machine_args(p_fig)

    p_bd = subs.add_parser("breakdown", help="per-stage simulated timing")
    p_bd.add_argument("file", help="program file, or - for stdin")
    _add_machine_args(p_bd)
    p_bd.add_argument("--modulus", type=int, default=None)
    p_bd.add_argument("--gantt", action="store_true",
                      help="also draw the communication timeline")
    p_bd.add_argument("--engine",
                      choices=ENGINES, default="cooperative",
                      help="also execute on this engine and cross-check the "
                           "simulated total (per-stage rows always come from "
                           "the cooperative engine's probe timeline)")

    p_rep = subs.add_parser("report", help="markdown derivation report")
    p_rep.add_argument("file", help="program file, or - for stdin")
    p_rep.add_argument("--output", "-o", default="-",
                       help="output file (default stdout)")
    _add_machine_args(p_rep)
    p_rep.add_argument("--extensions", action="store_true")
    p_rep.add_argument("--modulus", type=int, default=None)

    p_cg = subs.add_parser("codegen", help="emit a runnable mpi4py script")
    p_cg.add_argument("file", help="program file, or - for stdin")
    p_cg.add_argument("--output", "-o", default="-",
                      help="output file (default stdout)")
    _add_machine_args(p_cg)
    p_cg.add_argument("--no-optimize", action="store_true",
                      help="emit the program as written")
    p_cg.add_argument("--modulus", type=int, default=None)

    p_cf = subs.add_parser(
        "conformance",
        help="randomized multi-backend conformance run")
    p_cf.add_argument("--seed", type=int, default=0,
                      help="base seed; every case derives from it (default 0)")
    p_cf.add_argument("--iters", type=int, default=100,
                      help="number of generated cases (default 100)")
    p_cf.add_argument("--extensions", action="store_true",
                      help="also exercise the extension rules")
    p_cf.add_argument("--max-failures", type=int, default=5,
                      help="stop after this many failures (default 5)")
    p_cf.add_argument("--chaos", action="store_true",
                      help="run cases under sampled fault plans instead "
                           "(see docs/FAULTS.md)")
    p_cf.add_argument("--plans", type=int, default=3,
                      help="fault plans per case in --chaos mode (default 3)")
    p_cf.add_argument("--recover", action="store_true",
                      help="with --chaos: run every faulted case under the "
                           "checkpoint/restart supervisor and check the "
                           "recovery contract (see docs/FAULTS.md)")
    p_cf.add_argument("--engine", action="append", dest="engines",
                      choices=(*ENGINES, "jit"),
                      metavar="ENGINE",
                      help="with --chaos: add an engine to the comparison "
                           "deck (repeatable; default cooperative+threaded; "
                           "'cooperative' is always included as the "
                           "reference; 'jit' is the cooperative engine "
                           "under jit=True)")

    p_pl = subs.add_parser(
        "plan",
        help="beam-planner plan cache (optimize/lookup/stats/clear)")
    p_pl.add_argument("action", choices=("optimize", "lookup", "stats",
                                         "clear"),
                      help="'optimize': plan a program through the cache; "
                           "'lookup': replay a cached plan without planning "
                           "on a miss; 'stats': print cache counters; "
                           "'clear': empty the store")
    p_pl.add_argument("file", nargs="?", default=None,
                      help="program file (repro.lang syntax), or - for "
                           "stdin; required for optimize/lookup")
    p_pl.add_argument("--store", default=".repro-plancache.json",
                      metavar="PATH",
                      help="on-disk plan store "
                           "(default .repro-plancache.json)")
    _add_machine_args(p_pl)
    p_pl.add_argument("--strategy",
                      choices=("beam", "exhaustive", "greedy"),
                      default="beam",
                      help="planner tier on a miss (default beam)")
    p_pl.add_argument("--width", type=int, default=8,
                      help="beam width (default 8)")
    p_pl.add_argument("--extensions", action="store_true",
                      help="enable the extension rules")
    p_pl.add_argument("--modulus", type=int, default=None)

    p_jt = subs.add_parser(
        "jit",
        help="whole-program JIT tier (stats/clear)")
    p_jt.add_argument("action", choices=("stats", "clear"),
                      help="'stats': print compile-cache and dispatch "
                           "counters (with FILE: compile + demo-run the "
                           "program first, as written and as planned, "
                           "show each compiled plan, the engine rung "
                           "jit=True would take and the exact tier's "
                           "verdict on int blocks); "
                           "'clear': drop compiled kernels and reset "
                           "counters")
    p_jt.add_argument("file", nargs="?", default=None,
                      help="optional program file (repro.lang syntax), "
                           "or - for stdin")
    _add_machine_args(p_jt)
    p_jt.add_argument("--modulus", type=int, default=None)

    p_bn = subs.add_parser(
        "bench",
        help="benchmark result tooling (summary)")
    p_bn.add_argument("action", choices=("summary",),
                      help="'summary': print the headline table of the "
                           "BENCH_*.json files under --results")
    p_bn.add_argument("--results", default="benchmarks/results",
                      metavar="DIR",
                      help="where the per-bench JSON files live "
                           "(default benchmarks/results)")

    p_fl = subs.add_parser("faults",
                           help="fault-injection layer utilities")
    p_fl.add_argument("action", choices=("demo",),
                      help="'demo': deterministic fault-layer walkthrough")

    p_rc = subs.add_parser("recover",
                           help="checkpoint/restart recovery walkthrough")
    p_rc.add_argument("--log", default=None, metavar="PATH",
                      help="also write the quarantine scenario's JSON "
                           "recovery event log to PATH")
    p_rc.add_argument("--engine",
                      choices=ENGINES, default="cooperative",
                      help="execution engine for the walkthrough; 'process' "
                           "adds a real SIGKILL/respawn scenario on forked "
                           "workers (default cooperative)")

    p_sv = subs.add_parser(
        "serve",
        help="multi-tenant job-service runtime (demo)")
    p_sv.add_argument("action", choices=("demo",),
                      help="'demo': self-contained serving walkthrough "
                           "(admission, quotas, deadlines, retry ladder)")
    p_sv.add_argument("--chaos", action="store_true",
                      help="run the SIGKILL roulette instead: workers "
                           "killed mid-job, surviving tenants must stay "
                           "bit-identical (needs the process backend)")
    p_sv.add_argument("--seed", type=int, default=0,
                      help="chaos seed (default 0)")
    p_sv.add_argument("--runs", type=int, default=4,
                      help="chaos roulette rounds (default 4)")
    p_sv.add_argument("--jobs", type=int, default=12,
                      help="demo jobs per tenant (default 12)")
    p_sv.add_argument("--tenants", type=int, default=3,
                      help="demo tenants (default 3)")
    p_sv.add_argument("--workers", type=int, default=2,
                      help="worker threads (default 2)")
    p_sv.add_argument("--substrate",
                      choices=ENGINES, default="cooperative",
                      help="initial execution substrate for the demo "
                           "(default cooperative; chaos always uses "
                           "process)")
    p_sv.add_argument("--log", default=None, metavar="PATH",
                      help="write the job-lifecycle RecoveryLog JSON "
                           "(flushed even on SIGINT/SIGTERM)")
    _add_machine_args(p_sv)

    p_tr = subs.add_parser("trace",
                           help="per-span-name table of a span file")
    p_tr.add_argument("file", help="JSON-lines span file (repro.obs)")

    return parser


class _GracefulStop:
    """SIGINT/SIGTERM → a polled stop flag instead of a raw traceback.

    Long-running commands install this around their main loop: the
    first signal requests an orderly drain (the command finishes its
    current unit, flushes logs, exits 130); a second signal falls back
    to the default handler, so a wedged drain can still be killed.
    """

    def __init__(self) -> None:
        import threading

        self.event = threading.Event()
        self._previous: dict[int, Any] = {}

    def stopped(self) -> bool:
        return self.event.is_set()

    def __enter__(self) -> "_GracefulStop":
        import signal

        def handler(signum, frame):
            self.event.set()
            print(f"\nstop requested ({signal.Signals(signum).name}); "
                  f"draining — signal again to force-kill",
                  file=sys.stderr, flush=True)
            signal.signal(signum, self._previous.get(signum,
                                                     signal.SIG_DFL))

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # non-main thread / platform
                pass
        return self

    def __exit__(self, *exc) -> None:
        import signal

        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass


def _cmd_optimize(args: argparse.Namespace) -> int:
    try:
        source = sys.stdin.read() if args.file == "-" else open(args.file).read()
        decl = parse_program(source)
        program = decl.to_program(default_env(args.modulus))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = _machine(args)
    rules = FULL_RULES if args.extensions else ALL_RULES
    result = optimize(program, params, rules=rules, strategy=args.strategy,
                      allow_lossy=args.allow_lossy)
    print(result.report())
    print()
    print("optimized program:")
    print(to_mpi_text(result.program))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core.rules import BS_COMCAST
    from repro.core.stages import Program
    from repro.machine import simulate_program

    lhs = Program(BS_COMCAST.exemplar)
    (comcast,) = BS_COMCAST.rewrite(lhs.stages)
    repeat = Program([comcast])
    doubling = Program([replace(comcast, impl="doubling")])

    procs = [2, 4, 8, 16, 32, 64]
    series7: dict[str, list[float]] = {"bcast;scan": [], "comcast": [],
                                       "bcast;repeat": []}
    for p in procs:
        params = MachineParams(p=p, ts=args.ts, tw=args.tw, m=args.m)
        xs = [1] * p
        series7["bcast;scan"].append(simulate_program(lhs, xs, params).time)
        series7["comcast"].append(simulate_program(doubling, xs, params).time)
        series7["bcast;repeat"].append(simulate_program(repeat, xs, params).time)
    print(line_chart(procs, series7,
                     title=f"Figure 7: time vs processors (m={args.m})",
                     x_label="processors", y_label="model time"))
    print()

    blocks = [1000, 5000, 10000, 15000, 20000, 25000, 30000, 35000]
    series8: dict[str, list[float]] = {"bcast;scan": [], "comcast": [],
                                       "bcast;repeat": []}
    xs = [1] * args.p
    for m in blocks:
        params = MachineParams(p=args.p, ts=args.ts, tw=args.tw, m=m)
        series8["bcast;scan"].append(simulate_program(lhs, xs, params).time)
        series8["comcast"].append(simulate_program(doubling, xs, params).time)
        series8["bcast;repeat"].append(simulate_program(repeat, xs, params).time)
    print(line_chart(blocks, series8,
                     title=f"Figure 8: time vs block size (p={args.p})",
                     x_label="block size", y_label="model time"))
    return 0


def _load_program(args: argparse.Namespace):
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    decl = parse_program(source)
    return decl.to_program(default_env(getattr(args, "modulus", None)))


def _cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.machine.run import stage_breakdown

    try:
        program = _load_program(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = _machine(args)
    inputs = list(range(1, params.p + 1))
    result, timings = stage_breakdown(program, inputs, params)
    print(f"program: {program.pretty()}")
    print(f"{'#':>3} {'stage':<40} {'duration':>12} {'cumulative':>12}")
    for t in timings:
        print(f"{t.index:>3} {t.pretty:<40} {t.duration:>12.1f} {t.end:>12.1f}")
    print(f"total simulated time: {result.time:.1f}")
    if args.engine != "cooperative":
        from repro.machine.run import simulate_program

        engine_result = simulate_program(program, inputs, params,
                                         engine=args.engine)
        agree = "agrees" if engine_result.time == result.time else "DISAGREES"
        print(f"{args.engine} engine total: {engine_result.time:.1f} "
              f"({agree} with the cooperative engine)")
    if args.gantt:
        from repro.analysis.gantt import comm_gantt

        print()
        print(comm_gantt(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.derivation_doc import derivation_markdown

    try:
        program = _load_program(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = _machine(args)
    rules = FULL_RULES if args.extensions else ALL_RULES
    result = optimize(program, params, rules=rules)
    md = derivation_markdown(result, inputs=list(range(1, params.p + 1)))
    if args.output == "-":
        print(md)
    else:
        with open(args.output, "w") as fh:
            fh.write(md + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen import CodegenError, generate_mpi4py

    try:
        program = _load_program(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.no_optimize:
        # only rules whose targets plain MPI can express
        from repro.core.rules import BS_COMCAST, SR2_REDUCTION, SS2_SCAN
        from repro.core.rules.extensions import EXTENSION_RULES

        rules = (SR2_REDUCTION, SS2_SCAN, BS_COMCAST) + EXTENSION_RULES
        result = optimize(program, _machine(args), rules=rules)
        program = result.program
    try:
        src = generate_mpi4py(program, p_hint=args.p)
    except CodegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "-":
        print(src)
    else:
        with open(args.output, "w") as fh:
            fh.write(src)
        print(f"wrote {args.output}")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testing import run_chaos, run_chaos_recovery, run_conformance

    rules = FULL_RULES if args.extensions else ALL_RULES
    if args.recover and not args.chaos:
        print("error: --recover requires --chaos", file=sys.stderr)
        return 2
    if args.chaos:
        engines = ["cooperative"]
        for eng in args.engines or ["threaded"]:
            if eng not in engines:
                engines.append(eng)
        with _GracefulStop() as stop:
            deck = dict(seed=args.seed, iters=args.iters,
                        plans_per_case=args.plans,
                        max_failures=args.max_failures, engines=engines,
                        should_stop=stop.stopped)
            chaos = (run_chaos_recovery(**deck) if args.recover
                     else run_chaos(rules=rules, **deck))
        print(chaos.describe())
        if chaos.aborted:
            return 130
        return 0 if chaos.ok else 1
    report = run_conformance(seed=args.seed, iters=args.iters, rules=rules,
                             max_failures=args.max_failures)
    print(report.describe())
    from repro.parallel import process_fallback_reason

    reason = process_fallback_reason(2)
    if reason is not None:
        # mirrored skip semantics: the oracle reports the process backend
        # as SKIPPED (not failed) where real rank processes cannot run
        print(f"note: process backend skipped ({reason})", file=sys.stderr)
    if not report.covered_both_ways():
        print("warning: not every paper rule was covered both ways "
              "(increase --iters)", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.plancache import PlanCache

    cache = PlanCache(path=args.store)
    if args.action == "stats":
        print(cache.describe())
        return 0
    if args.action == "clear":
        n = len(cache)
        cache.clear(disk=True)
        print(f"cleared {n} plan(s) from {args.store}")
        return 0

    if args.file is None:
        print(f"error: 'plan {args.action}' needs a program file",
              file=sys.stderr)
        return 2
    try:
        program = _load_program(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = _machine(args)
    rules = FULL_RULES if args.extensions else ALL_RULES

    if args.action == "lookup":
        hit = cache.get(program, params, rules=rules, strategy=args.strategy)
        if hit is None:
            print("miss: no cached plan for this program/machine/strategy")
            print(cache.describe())
            return 1
        print("hit: replayed cached plan")
        print(hit.report())
        print()
        print(to_mpi_text(hit.program))
        return 0

    # optimize: serve from cache, plan on a miss, write the plan through
    result = cache.get(program, params, rules=rules, strategy=args.strategy)
    if result is not None:
        print("served from cache")
    else:
        if args.strategy == "beam":
            from repro.core.planner import beam_optimize

            result = beam_optimize(program, params, rules, width=args.width)
        else:
            result = optimize(program, params, rules=rules,
                              strategy=args.strategy)
        cache.put(program, params, result, rules=rules,
                  strategy=args.strategy)
        print("planned and cached")
    print(result.report())
    print()
    print("optimized program:")
    print(to_mpi_text(result.program))
    print()
    print(cache.describe())
    return 0


def _cmd_jit(args: argparse.Namespace) -> int:
    from repro.jit import STATS, clear_jit_cache, compiled_program, \
        engine_lower, exact_verdict, reset_stats, run_jit
    from repro.kernels import KernelUnsupported

    if args.action == "clear":
        clear_jit_cache()
        reset_stats()
        print("cleared the JIT compile cache and stats")
        return 0

    failed = False
    if args.file is not None:
        import numpy as np

        try:
            program = _load_program(args)
        except (ParseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        params = _machine(args)
        rng = np.random.default_rng(0)
        xs = [rng.integers(0, 4, params.m).astype(np.int64)
              for _ in range(params.p)]
        scalars = [int(x[0]) if x.size else 0 for x in xs]
        print(f"demo run: p={params.p}, block={params.m} int64")
        planned = optimize(program, params, rules=FULL_RULES,
                           strategy="beam").program
        for form, how, prog in (("as written", "", program),
                                ("as planned", " (FULL_RULES, beam)", planned)):
            print(f"\n{form}{how}: {prog.pretty()}")
            try:
                cp = compiled_program(prog)
            except KernelUnsupported as exc:
                print(f"not JIT-compilable (static skip): {exc}")
                continue
            print("compiled plan ('jit' steps run raw fused kernels, "
                  "'kern' steps the checked fallback):")
            print(cp.pretty())
            try:  # the demo blocks may be ones the program cannot run on
                run_jit(prog, xs)
            except Exception as exc:
                print(f"error: {form}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed = True
                continue
            low = engine_lower(prog, xs, params)
            print(f"engine rung under jit=True: {low.rung}"
                  + (f" (declined the fused rung: {low.why})"
                     if low.why else ""))
            verdict = exact_verdict(prog, scalars)
            print(f"exact tier on {params.p} int blocks (a served hit): "
                  + ("covered" if verdict == "exact"
                     else f"declined: {verdict}"))
        print()
    print(STATS.describe())
    return int(failed)


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import pathlib

    results = pathlib.Path(args.results)
    files = sorted(results.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json files under {results}", file=sys.stderr)
        return 1
    rows = []
    skipped = 0
    for f in files:
        # A malformed file — truncated by a crashed run or invalid JSON —
        # must not abort the whole table: note it loudly, skip it, keep
        # going.  A schema surprise (series that isn't a list, host that
        # isn't a dict) still gets its row.
        try:
            payload = json.loads(f.read_text())
        except (OSError, ValueError) as exc:
            print(f"skipping {f.name}: malformed or unreadable ({exc})",
                  file=sys.stderr)
            skipped += 1
            continue
        headline, detail = "", "-"
        if isinstance(payload, dict):
            for key in ("speedup", "overhead", "hit_rate", "jobs_per_sec",
                        "overhead_frac"):
                if key in payload:
                    headline = f"{key}={payload[key]:.2f}" \
                        if isinstance(payload[key], float) \
                        else f"{key}={payload[key]}"
                    break
            series = payload.get("series")
            n = len(series) if isinstance(series, (list, tuple)) else 0
            host_info = payload.get("host")
            cpu = (host_info.get("cpu_count")
                   if isinstance(host_info, dict) else None)
            detail = f"series={n} host_cpus={cpu}"
        rows.append((f.name, headline, detail))
    if not rows:
        print(f"no usable BENCH_*.json files under {results} "
              f"({skipped} skipped)", file=sys.stderr)
        return 1
    width = max(len(r[0]) for r in rows)
    suffix = f" ({skipped} skipped)" if skipped else ""
    print(f"{len(rows)} benchmark file(s) under {results}/{suffix}")
    for name, headline, detail in rows:
        print(f"  {name:{width}}  {headline:16} {detail}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.demo import run_demo

    print(run_demo())
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.recovery.demo import demo_event_log, run_demo

    print(run_demo(engine=args.engine))
    if args.log is not None:
        demo_event_log(engine=args.engine).write(args.log)
        print(f"wrote recovery event log to {args.log}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.parallel import process_fallback_reason

    if args.chaos:
        from repro.testing import run_serving_chaos

        reason = process_fallback_reason(2)
        if reason is not None:
            print(f"serving chaos skipped: the process backend is "
                  f"unavailable here ({reason})")
            return 0
        with _GracefulStop() as stop:
            report = run_serving_chaos(seed=args.seed, runs=args.runs,
                                       tenants=args.tenants,
                                       should_stop=stop.stopped)
        print(report.describe())
        if args.log is not None and report.last_events:
            import json

            with open(args.log, "w", encoding="utf-8") as fh:
                json.dump({"events": list(report.last_events)}, fh, indent=2)
            print(f"wrote last run's event-kind trace to {args.log}")
        if report.aborted:
            return 130
        return 0 if report.ok else 1

    from repro.core.operators import ADD as _ADD
    from repro.core.stages import MapStage, Program, ReduceStage, ScanStage
    from repro.serving import (
        DeadlineExceededError,
        JobFailedError,
        QueueFullError,
        ServingConfig,
        ServingManager,
        TenantQuotaError,
    )

    params = MachineParams(p=4, ts=args.ts, tw=args.tw, m=args.m)
    programs = [
        Program([ScanStage(_ADD)]),
        Program([ScanStage(_ADD), ReduceStage(_ADD)]),
    ]
    mgr = ServingManager(ServingConfig(
        workers=args.workers, substrate=args.substrate,
        queue_capacity=max(8, args.jobs * args.tenants),
        tenant_quota=max(4, args.jobs)))
    interrupted = False
    lines: list[str] = []
    try:
        with _GracefulStop() as stop:
            handles = []
            for j in range(args.jobs):
                if stop.stopped():
                    interrupted = True
                    break
                for t in range(args.tenants):
                    handles.append(mgr.submit(
                        programs[j % len(programs)],
                        [r + j for r in range(4)],
                        params, tenant=f"tenant-{t}"))
            lines.append(f"submitted {len(handles)} job(s) across "
                         f"{args.tenants} tenant(s)")
            done = sum(1 for h in handles
                       if h.result(timeout=120.0) is not None)
            lines.append(f"completed {done} job(s); sample result: "
                         f"{handles[0].result()}")
            # the model's verdict rides on the handle (the process
            # substrate's runner returns values only)
            lines.extend(
                f"  {h.job_id} [{h.tenant}]: sim_time="
                + ("n/a" if h.sim is None else f"{h.sim.time:g}")
                for h in handles)
            interrupted = interrupted or stop.stopped()

            if not interrupted:
                # the typed-failure tour: each failure mode, loudly typed
                def boom(x):
                    raise RuntimeError("deterministic demo failure")

                bad = mgr.submit(Program([MapStage(boom, label="boom")]),
                                 [0.0] * 4, params)
                try:
                    bad.result(timeout=30.0)
                except JobFailedError as exc:
                    lines.append(f"deterministic failure is typed: "
                                 f"{type(exc).__name__}")
                late = mgr.submit(programs[0], [0.0] * 4, params,
                                  deadline=0.0)
                try:
                    late.result(timeout=30.0)
                except DeadlineExceededError as exc:
                    lines.append(f"deadline miss is typed: "
                                 f"{type(exc).__name__}")
                tiny = ServingManager(ServingConfig(
                    workers=1, queue_capacity=1, tenant_quota=1))
                try:
                    blocker = Program([MapStage(
                        lambda x: (__import__("time").sleep(0.2), x)[1],
                        label="slow")])
                    tiny.submit(blocker, [0.0] * 2, params, tenant="burst")
                    try:
                        tiny.submit(blocker, [0.0] * 2, params,
                                    tenant="burst")  # quota is 1
                    except TenantQuotaError as exc:
                        lines.append(f"per-tenant backpressure is typed: "
                                     f"{type(exc).__name__}")
                    try:
                        for i in range(3):  # queue capacity is 1
                            tiny.submit(blocker, [0.0] * 2, params,
                                        tenant=f"other-{i}")
                    except QueueFullError as exc:
                        lines.append(f"queue backpressure is typed: "
                                     f"{type(exc).__name__}")
                finally:
                    tiny.close(drain=True, timeout=30.0)
    finally:
        mgr.close(drain=True, timeout=60.0)
        if args.log is not None:
            mgr.events.write(args.log)
            lines.append(f"wrote job-lifecycle event log to {args.log}")
    print("\n".join(lines))
    print()
    print(mgr.describe())
    if interrupted:
        print("serve demo interrupted: drained in-flight jobs, "
              "flushed the event log", file=sys.stderr)
        return 130
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # output was piped into a consumer that closed early (e.g. head)
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "breakdown":
        return _cmd_breakdown(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "table1":
        if args.numeric:
            print(render_table1_numeric(_machine(args), args.extensions))
        else:
            print(render_table1(args.extensions))
        return 0
    if args.command == "advice":
        print(machine_advice(_machine(args)))
        return 0
    if args.command == "catalogue":
        print(rule_catalogue())
        return 0
    if args.command == "interactions":
        from repro.analysis.interactions import render_interactions

        print(render_interactions(extensions=not args.no_extensions))
        return 0
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "conformance":
        return _cmd_conformance(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "jit":
        return _cmd_jit(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        from repro.obs import Span, read_jsonl, table

        print(table(Span.from_doc(doc) for doc in read_jsonl(args.file)))
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
