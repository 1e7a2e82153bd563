"""The paper's complete rule catalogue (Section 3).

``ALL_RULES`` lists every optimization rule's row, ordered so that longer
windows come first — the rewrite engine tries triple fusions
(BSS2/BSS-Comcast, BSR2/BSR-Local) before the pair rules they subsume.
"""

from repro.core.rules.base import NoTable1Form, Rule, RuleApplication
from repro.core.rules.bandwidth import (
    BANDWIDTH_RULES,
    COMPOSE_ALLREDUCE,
    DECOMPOSE_ALLREDUCE,
)
from repro.core.rules.comcast import BS_COMCAST, BSS2_COMCAST, BSS_COMCAST
from repro.core.rules.extensions import (
    AB_ALLREDUCE,
    BB_BCAST,
    EXTENSION_RULES,
    RB_ALLREDUCE,
    SB_BCAST,
)
from repro.core.rules.local import BR_LOCAL, BSR2_LOCAL, BSR_LOCAL, CR_ALLLOCAL
from repro.core.rules.reduction import SR2_REDUCTION, SR_REDUCTION
from repro.core.rules.scan import SS2_SCAN, SS_SCAN

__all__ = [
    "Rule", "RuleApplication", "NoTable1Form",
    "SR2_REDUCTION", "SR_REDUCTION", "SS2_SCAN", "SS_SCAN",
    "BS_COMCAST", "BSS2_COMCAST", "BSS_COMCAST",
    "BR_LOCAL", "BSR2_LOCAL", "BSR_LOCAL", "CR_ALLLOCAL",
    "RB_ALLREDUCE", "AB_ALLREDUCE", "SB_BCAST", "BB_BCAST",
    "DECOMPOSE_ALLREDUCE", "COMPOSE_ALLREDUCE",
    "ALL_RULES", "EXTENSION_RULES", "BANDWIDTH_RULES", "FULL_RULES",
    "rule_by_name",
]

#: every rule, triple-window fusions first
ALL_RULES: tuple[Rule, ...] = (
    BSR2_LOCAL,
    BSR_LOCAL,
    BSS2_COMCAST,
    BSS_COMCAST,
    BR_LOCAL,
    CR_ALLLOCAL,
    BS_COMCAST,
    SR2_REDUCTION,
    SR_REDUCTION,
    SS2_SCAN,
    SS_SCAN,
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
