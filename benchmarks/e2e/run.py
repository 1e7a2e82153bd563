"""The one command of the end-to-end benchmark.

``python3 benchmarks/e2e/run.py --seed N`` (or ``python -m
benchmarks.e2e --seed N``) runs the five workloads, each in its own
fresh interpreter, prints every end-to-end metric by name with its unit
and sample count, checks every response against the reference
semantics and writes ``benchmarks/e2e/results/e2e-seed<N>.json`` with a
host stamp.  ``--trace 1`` makes the second, span-recording run that
yields the per-layer metrics and ``results/trace-<workload>.jsonl``.
``compare A.json B.json`` judges two result files.

The driver contract of ``BENCHMARK.json`` is the single-workload form::

    run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This process only supervises: the workload runs in a child (so its
peak memory and its children's CPU are its own), and set-up is timed in
five fresh interpreters, the reported ``setup_s`` being their median.
Timing metrics are times at the reference speed of the host
(:mod:`benchmarks.e2e.hostspeed`); the values as the clocks read them
are printed and stored beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: fresh interpreters whose set-up time is measured per run
SETUP_REPEATS = 5
#: a child that is not done by then is killed (the driver allows 180 s)
CHILD_TIMEOUT_S = 170.0
QUICK_SECONDS = 2


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a checkout,
    however this file was started."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found — the "
                 f"benchmark measures the repository it sits in")
    # started as a script, this directory leads sys.path and its
    # trace.py would shadow the standard library's
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _run_seconds() -> int:
    """The run length the contract fixes (same on every commit)."""
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())
               ["run_seconds"])


def _child_env() -> dict:
    """The workload's environment: no stray ``REPRO_*`` settings, real
    rank processes allowed whatever the core count, stable hashing, and
    the bytecode cache every user has (so ``setup_s`` times imports,
    not compilation, whatever the caller's shell says)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["REPRO_PARALLEL_FORCE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(phase: str, name: str, seed: int, seconds: float, traced: bool,
           quick: bool) -> dict:
    """Run one child phase to its end and return the JSON it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--phase", phase,
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced)),
           "--t0", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # run() has already killed and reaped the child
        return {"problems": [f"{phase} child of {name} exceeded "
                             f"{CHILD_TIMEOUT_S:.0f}s and was killed"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"problems": [f"{phase} child of {name} exited with code "
                             f"{done.returncode}"]}
    return json.loads(lines[-1])


def supervise(name: str, seed: int, seconds: float, traced: bool,
              quick: bool = False) -> dict:
    """One workload, one seed: the measuring child plus, for an untraced
    run, the extra set-up-only children."""
    doc = _spawn("measure", name, seed, seconds, traced, quick)
    doc.setdefault("workload", name)
    doc.setdefault("seed", seed)
    doc.setdefault("trace", int(traced))
    if not doc.get("metrics"):
        doc.update(correct=False, metrics={})
        doc.setdefault("attempted", 1)
        doc.setdefault("failed", 1)
        return doc
    if not traced:
        setups = [doc["metrics"]["setup_s"]["value"]]
        as_read = [doc["as_read"]["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            extra = _spawn("setup", name, seed, seconds, traced, quick)
            if "setup_s" not in extra:
                doc["problems"] = doc.get("problems", []) + extra["problems"]
                doc["correct"] = False
                break
            setups.append(extra["setup_s"])
            as_read.append(extra["as_read"])
        doc["setup_samples"] = setups
        doc["metrics"]["setup_s"]["value"] = statistics.median(setups)
        doc["as_read"]["setup_s"] = statistics.median(as_read)
    return doc


def _child_main(args) -> int:
    """``--phase measure|setup``: the workload process itself."""
    from benchmarks.e2e import harness

    if args.phase == "setup":
        workload, setup_s, as_read = harness.timed_setup(
            args.workload, args.seed, args.t0)
        workload.close()
        print(json.dumps({"setup_s": setup_s, "as_read": as_read}))
        return 0
    doc = harness.run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.t0, quick=args.quick)
    print(json.dumps(doc))
    return 0


def _print_run(doc: dict) -> None:
    from benchmarks.e2e.metrics import BY_NAME

    kind = "traced" if doc.get("trace") else "untraced"
    print(f"\n== {doc['workload']}  seed={doc['seed']}  {kind}  "
          f"samples={doc.get('samples', 0)}  "
          f"attempted={doc.get('attempted', 0)}  "
          f"failed={doc.get('failed', 0)}  "
          f"failed_share={doc.get('failed', 0) / max(1, doc.get('attempted', 0)):.6f}  "
          f"sim_speedup={doc.get('sim_speedup', 0.0):.6f} x (simulated)")
    for name, m in doc.get("metrics", {}).items():
        print(f"  {name:32} {m['value']:>16.6f} {m['unit']:8} "
              f"[{BY_NAME[name].clock}]")
    as_read = doc.get("as_read")
    if as_read:
        # the timing rows above are at the reference speed (hostspeed.py)
        print("  as read at this hour: "
              + "  ".join(f"{k}={v:.4f}" for k, v in as_read.items()))
    for problem in doc.get("problems", []):
        print(f"  PROBLEM: {problem}")


def _contract_line(doc: dict) -> str:
    return json.dumps({
        "correct": bool(doc.get("correct")),
        "attempted": max(1, int(doc.get("attempted", 1))),
        "failed": int(doc.get("failed", 0)),
        "metrics": doc.get("metrics", {}),
    })


def _print_spreads(runs: list[dict]) -> None:
    """Across the seeds of one invocation: median and the distance
    between the quartiles as a share of the median."""
    from benchmarks.e2e.metrics import BY_NAME, spread

    print("\n== spread across seeds (IQR / median)")
    by_key: dict = {}
    for doc in runs:
        for name, m in doc.get("metrics", {}).items():
            by_key.setdefault((doc["workload"], name), []).append(m["value"])
    for (workload, name), xs in by_key.items():
        if len(xs) < 4:
            continue
        wide = spread(xs)
        bound = BY_NAME[name].bound
        flag = ""
        if bound is not None and name != "setup_s":
            flag = ("ok" if wide <= bound / 3 else
                    "within bound" if wide <= bound else "TOO WIDE")
        print(f"  {workload:16} {name:32} "
              f"median={statistics.median(xs):>14.6f} spread={wide:8.4f} "
              f"bound={bound if bound is not None else '-'} {flag}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _bootstrap()
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])

    from benchmarks.e2e.metrics import WORKLOAD_NAMES

    ap = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end, layer-attributed benchmark.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed run length (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics, span files)")
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_SECONDS}-second smoke run; numbers are "
                         f"not comparable")
    ap.add_argument("--runs", type=int, default=1,
                    help="seeds N, N+1, ... per workload; prints spreads")
    ap.add_argument("--out", type=Path, default=None,
                    help="results file (default: results/e2e-seed<N>.json)")
    ap.add_argument("--phase", choices=("measure", "setup"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    traced = bool(args.trace)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else _run_seconds()
    if args.phase:
        return _child_main(args)

    from benchmarks.e2e.harness import RESULTS_DIR, host_stamp

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runs = []
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            doc = supervise(name, seed, args.seconds, traced, args.quick)
            _print_run(doc)
            runs.append(doc)
    if args.runs > 1:
        _print_spreads(runs)

    if args.out is not None or not args.workload:
        out = args.out
        if out is None:
            RESULTS_DIR.mkdir(exist_ok=True)
            out = RESULTS_DIR / (f"e2e-seed{args.seed}"
                                 f"{'-traced' if traced else ''}.json")
        out.write_text(json.dumps(
            {"host": runs[0].get("host") or host_stamp(),
             "seconds": args.seconds,
             "quick": args.quick, "runs": runs}, indent=1) + "\n")
        print(f"\nresults written to {out}")
    ok = all(doc.get("correct") for doc in runs)
    if args.workload and args.runs == 1:
        sys.stdout.flush()
        print(_contract_line(runs[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
