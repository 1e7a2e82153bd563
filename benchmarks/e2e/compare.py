"""``compare A.json B.json`` — judge two result files of the benchmark.

One row per (workload, metric): both medians, the ratio B ÷ A (base:
A), the metric's bound and a verdict.

* An end-to-end metric is ``regressed`` when B's median is worse than
  A's by more than the bound.  With four or more runs a side, a metric
  whose own run-to-run spread (distance between the quartiles ÷ median)
  is wider than the bound is ``unresolved`` instead — unless every run
  of B reads better than every run of A.
* An exact metric (``sim_speedup``, the ``machine.*`` counts, the
  ``planner.*`` counts) must be equal wherever both files ran the same
  workload with the same seed; any drift is a behaviour change.
* Other per-layer metrics have no bound; their rows are informational.

Exit code 1 when any row is ``regressed`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from .metrics import BY_NAME, WORKLOAD_NAMES, spread

__all__ = ["compare", "main"]


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["runs"] if isinstance(doc, dict) and "runs" in doc else [doc]


def _values(runs: list[dict]) -> dict:
    """(workload, metric) → {seed: value} (a repeated seed keeps its
    last run)."""
    out: dict = defaultdict(dict)
    for run in runs:
        metrics = {k: m["value"] for k, m in run.get("metrics", {}).items()}
        if "sim_speedup" in run:
            metrics.setdefault("sim_speedup", run["sim_speedup"])
        for name, value in metrics.items():
            out[(run["workload"], name)][run["seed"]] = value
    return out


def _verdict(metric, a: dict, b: dict) -> str:
    if metric.exact:
        shared = sorted(set(a) & set(b))
        if not shared:
            return "no shared seed"
        return "ok" if all(a[s] == b[s] for s in shared) else "differs"
    if metric.bound is None:
        return "-"
    xs, ys = list(a.values()), list(b.values())
    base, new = statistics.median(xs), statistics.median(ys)
    lower = metric.better == "lower"
    worse = ((new - base) if lower else (base - new)) / base if base else 0.0
    if len(xs) >= 4 and len(ys) >= 4 and max(spread(xs),
                                             spread(ys)) > metric.bound:
        all_better = (max(ys) < min(xs)) if lower else (min(ys) > max(xs))
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > metric.bound else "ok"


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[dict]:
    """Rows for every (workload, metric) both sides report."""
    a, b = _values(runs_a), _values(runs_b)
    rows = []
    order = {w: k for k, w in enumerate(WORKLOAD_NAMES)}
    names = list(BY_NAME)
    for workload, name in sorted(
            set(a) & set(b),
            key=lambda key: (order.get(key[0], 99), names.index(key[1]))):
        metric = BY_NAME[name]
        xs, ys = a[(workload, name)], b[(workload, name)]
        base = statistics.median(xs.values())
        new = statistics.median(ys.values())
        rows.append({
            "workload": workload, "metric": name, "unit": metric.unit,
            "a": base, "b": new, "runs": (len(xs), len(ys)),
            "ratio": new / base if base else float("nan"),
            "bound": "exact" if metric.exact else metric.bound,
            "verdict": _verdict(metric, xs, ys),
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    rows = compare(_load(argv[0]), _load(argv[1]))
    print(f"{'workload':16} {'metric':30} {'A':>16} {'B':>16} "
          f"{'B/A (base A)':>13} {'bound':>6} {'runs':>6}  verdict")
    for r in rows:
        bound = r["bound"] if r["bound"] is not None else "-"
        print(f"{r['workload']:16} {r['metric']:30} {r['a']:>16.6f} "
              f"{r['b']:>16.6f} {r['ratio']:>13.4f} {bound!s:>6} "
              f"{r['runs'][0]}/{r['runs'][1]:<4} {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "differs")]
    print(f"\n{len(rows)} rows, {len(bad)} regressed or differing")
    return 1 if bad else 0
