"""The paper's complete rule catalogue (Section 3).

``ALL_RULES`` lists one instance of every optimization rule, ordered so
that longer windows come first — the rewrite engine tries triple fusions
(BSS2/BSS-Comcast, BSR2/BSR-Local) before the pair rules they subsume.
"""

from repro.core.rules.base import Rule, RuleApplication
from repro.core.rules.bandwidth import (
    BANDWIDTH_RULES,
    ComposeAllReduce,
    DecomposeAllReduce,
)
from repro.core.rules.comcast import BSComcast, BSS2Comcast, BSSComcast
from repro.core.rules.extensions import (
    ABAllreduce,
    BBBcast,
    EXTENSION_RULES,
    RBAllreduce,
    SBBcast,
)
from repro.core.rules.local import BRLocal, BSR2Local, BSRLocal, CRAllLocal
from repro.core.rules.reduction import SR2Reduction, SRReduction
from repro.core.rules.scan import SS2Scan, SSScan

__all__ = [
    "Rule",
    "RuleApplication",
    "SR2Reduction",
    "SRReduction",
    "SS2Scan",
    "SSScan",
    "BSComcast",
    "BSS2Comcast",
    "BSSComcast",
    "BRLocal",
    "BSR2Local",
    "BSRLocal",
    "CRAllLocal",
    "ALL_RULES",
    "EXTENSION_RULES",
    "BANDWIDTH_RULES",
    "FULL_RULES",
    "RBAllreduce",
    "ABAllreduce",
    "SBBcast",
    "BBBcast",
    "DecomposeAllReduce",
    "ComposeAllReduce",
    "rule_by_name",
]

#: every rule, triple-window fusions first
ALL_RULES: tuple[Rule, ...] = (
    BSR2Local(),
    BSRLocal(),
    BSS2Comcast(),
    BSSComcast(),
    BRLocal(),
    CRAllLocal(),
    BSComcast(),
    SR2Reduction(),
    SRReduction(),
    SS2Scan(),
    SSScan(),
)


#: the paper's catalogue plus the extension rules (cross-program fusions)
#: and the bandwidth vocabulary (allreduce ⇄ reduce_scatter;allgatherv).
FULL_RULES: tuple[Rule, ...] = ALL_RULES + EXTENSION_RULES + BANDWIDTH_RULES


_BY_NAME = {rule.name: rule for rule in FULL_RULES}


def rule_by_name(name: str) -> Rule:
    """Look a rule up by its name (paper rules and extensions)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown rule {name!r}") from None
