"""Extension rules: sound fusions beyond the paper's catalogue.

The paper's conclusions note that broadcast is one-to-all, reduction
all-to-one and scan all-to-all, and that this input/output view dismisses
some combinations as "not useful".  Four such combinations nevertheless
occur constantly in real MPI code (often across program-composition
seams, Figure 1) and admit sound always-improving fusions in exactly the
paper's rule format.  We add them as *extensions*, kept in a separate
registry (:data:`EXTENSION_RULES`) so the paper's original catalogue
stays intact:

* **RB-Allreduce**: ``reduce (⊕) ; bcast  →  allreduce (⊕)``
  — the classic identity; halves the start-ups.
* **AB-Allreduce**: ``allreduce (⊕) ; bcast  →  allreduce (⊕)``
  — the broadcast of an already-replicated value is dead code.
* **SB-Bcast**: ``scan (⊕) ; bcast  →  bcast``
  — the broadcast reads only processor 0's block, which an inclusive
  scan leaves untouched; the whole scan is dead code.
* **BB-Bcast**: ``bcast ; bcast  →  bcast`` — idempotence.

All four are unconditional (any associative operator) and improve
"always" in the Table-1 sense.  Semantics are property-tested like the
paper rules.
"""

from __future__ import annotations

from repro.core.operators import ADD
from repro.core.rules.base import ALLREDUCE, BCAST, REDUCE, SCAN, Rule
from repro.core.stages import AllReduceStage, BcastStage

__all__ = ["RB_ALLREDUCE", "AB_ALLREDUCE", "SB_BCAST", "BB_BCAST",
           "EXTENSION_RULES"]


def _to_allreduce(rule, window, general):
    return (AllReduceStage(window[0].op, origin=rule.name),)


def _to_bcast(rule, window, general):
    return (BcastStage(origin=rule.name),)


RB_ALLREDUCE = Rule(
    "RB-Allreduce", (REDUCE, BCAST), _to_allreduce,
    "allreduce (⊕)",
    "⊕ associative (no extra condition)", "always", units=(ADD,))

#: a dead broadcast
AB_ALLREDUCE = Rule(
    "AB-Allreduce", (ALLREDUCE, BCAST), _to_allreduce,
    "allreduce (⊕)",
    "none (the value is already replicated)", "always", units=(ADD,))

#: the scan's output is never read; *lossy on non-roots* in the same
#: sense as the Local rules, but the broadcast itself redefines every
#: block, so the rewrite is a strict equality
SB_BCAST = Rule(
    "SB-Bcast", (SCAN, BCAST), _to_bcast,
    "bcast",
    "none (inclusive scan fixes processor 0's block)", "always", units=(ADD,))

#: idempotence
BB_BCAST = Rule(
    "BB-Bcast", (BCAST, BCAST), _to_bcast,
    "bcast",
    "none", "always")

#: the extension catalogue; combine with ALL_RULES for the full rule set.
EXTENSION_RULES: tuple[Rule, ...] = (
    RB_ALLREDUCE, AB_ALLREDUCE, SB_BCAST, BB_BCAST)
