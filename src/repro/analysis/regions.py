"""Improvement regions and crossover thresholds of the rules (§4.2).

The paper derives, e.g., that SS2-Scan pays off iff ``ts > 2m``.  This
module solves such conditions for any rule from its cost formulas:

* :func:`ts_threshold` — smallest start-up time above which a rule wins,
  at fixed ``tw`` and ``m`` (the paper's per-rule "Improved if" column);
* :func:`m_threshold` — largest block size below which a rule wins;
* :func:`improving_rules` — the rule set to apply on a given machine
  (the paper's performance-directed design process);
* :func:`region_grid` — a boolean win/lose grid over a (ts, m) sweep for
  plotting or tabulating crossover curves.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.cost import MachineParams
from repro.core.rules import ALL_RULES, Rule

__all__ = ["ts_threshold", "m_threshold", "improving_rules", "region_grid"]


def ts_threshold(rule: Rule, tw: float, m: int) -> float:
    """Start-up time above which ``rule`` strictly improves performance.

    Returns 0.0 if the rule improves for every ts (Table 1's "always"),
    ``inf`` if it never improves at these ``tw``/``m``.  A rule without
    Table-1 columns (the bandwidth rows) raises
    :class:`~repro.core.rules.NoTable1Form`: its crossover depends on ``p``.
    """
    margin = rule.improvement_margin()
    a = float(margin.a)
    rest = m * (float(margin.b) * tw + float(margin.c))
    if a == 0:
        return 0.0 if rest > 0 else math.inf
    if a > 0:
        # a*ts + rest > 0  <=>  ts > -rest/a
        return max(0.0, -rest / a)
    # a < 0: improves only below a threshold — no paper rule does this,
    # but keep the algebra honest.
    return math.inf if rest <= 0 else -rest / a


def m_threshold(rule: Rule, ts: float, tw: float) -> float:
    """Block size below which ``rule`` strictly improves performance.

    Returns ``inf`` when the rule wins for every block size and 0.0 when
    it never wins; raises like :func:`ts_threshold` for a rule without
    Table-1 columns.
    """
    margin = rule.improvement_margin()
    a_ts = float(margin.a) * ts
    per_m = float(margin.b) * tw + float(margin.c)
    if per_m == 0:
        return math.inf if a_ts > 0 else 0.0
    if per_m > 0:
        # improves for all m (margin grows with m) as long as base positive
        return math.inf if a_ts >= 0 else 0.0
    # per_m < 0: wins for m < a_ts / (-per_m)
    return max(0.0, a_ts / (-per_m))


def improving_rules(
    params: MachineParams, rules: Iterable[Rule] = ALL_RULES
) -> list[Rule]:
    """Rules whose Table-1 condition holds at these machine parameters."""
    return [rule for rule in rules if rule.improves(params)]


def region_grid(
    rule: Rule,
    ts_values: Sequence[float],
    m_values: Sequence[int],
    tw: float,
    p: int = 64,
) -> list[list[bool]]:
    """``grid[i][j]`` — does ``rule`` improve at ``ts_values[i]``, ``m_values[j]``?"""
    grid: list[list[bool]] = []
    for ts in ts_values:
        row = []
        for m in m_values:
            row.append(rule.improves(MachineParams(p=p, ts=ts, tw=tw, m=m)))
        grid.append(row)
    return grid
