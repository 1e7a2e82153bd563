"""Human-readable reports: rule catalogue and optimization advice.

* :func:`rule_catalogue` — every rule with its LHS → RHS schema, side
  condition and Table-1 economics (the paper's Section 3 in one page);
* :func:`machine_advice` — for a machine, which rules to enable and the
  thresholds at which the conditional ones start paying off (the
  performance-directed design process of Section 4).
"""

from __future__ import annotations

import math

from repro.analysis.regions import improving_rules, ts_threshold
from repro.core.cost import MachineParams
from repro.core.rules import ALL_RULES, Rule
from repro.core.rules.base import FOLD

__all__ = ["rule_catalogue", "machine_advice"]

#: how the rule boxes write the unit operators of a rule's exemplar
_SYMBOLS = {"mul": "⊗", "add": "⊕", "ew[add]": "⊕ew"}


def _lhs_text(rule: Rule) -> str:
    """The left-hand side in the rule boxes' notation, from the row's
    ``lhs`` and its exemplar."""
    parts = []
    for classes, stage in zip(rule.lhs, rule.exemplar):
        text = stage.pretty()
        if hasattr(stage, "op"):
            text = text.replace(stage.op.name, _SYMBOLS[stage.op.name])
        parts.append("[all]" + text if classes == FOLD else text)
    return " ; ".join(parts)


def rule_catalogue(include_extensions: bool = True) -> str:
    """All rules: schema, condition, and Table-1 economics."""
    from repro.core.rules import FULL_RULES

    rules = FULL_RULES if include_extensions else ALL_RULES
    blocks = []
    if include_extensions:
        blocks.append("== The paper's catalogue, then extensions ==")
    for rule in rules:
        if rule.exact is None:
            cost = (f"{rule.before_formula().pretty()}  ->  "
                    f"{rule.after_formula().pretty()}   (x log p)")
        else:
            cost = "exact closed forms"
        blocks.append(
            "\n".join(
                [
                    rule.name,
                    f"    {_lhs_text(rule)}",
                    f"      --{{ {rule.condition_text} }}-->",
                    f"    {rule.rhs_text}",
                    f"    cost: {cost}",
                    f"    improves: {rule.improvement_text}"
                    + ("   [destroys non-root blocks]" if rule.lossy_nonroot else "")
                    + ("   [p must be a power of two; general-p extension available]"
                       if rule.requires_power_of_two else ""),
                ]
            )
        )
    return "\n\n".join(blocks)


def machine_advice(params: MachineParams) -> str:
    """Which rules to enable on this machine, with thresholds."""
    lines = [
        f"machine: p={params.p}, ts={params.ts}, tw={params.tw}, m={params.m}",
        "",
    ]
    winners = {r.name for r in improving_rules(params)}
    for rule in ALL_RULES:
        thr = ts_threshold(rule, params.tw, params.m)
        status = "APPLY " if rule.name in winners else "skip  "
        if thr == 0.0:
            note = "improves always"
        elif math.isinf(thr):
            note = "never improves at this tw/m"
        else:
            note = f"improves for ts > {thr:.1f} (machine ts = {params.ts})"
        lines.append(f"  {status} {rule.name:<15} {note}")
    return "\n".join(lines)
