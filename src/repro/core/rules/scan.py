"""Class *Scan*: fusing two consecutive scans (§3.3).

* **SS2-Scan** — different operators, ⊗ distributing over ⊕::

      scan (⊗) ; scan (⊕)
      --{ ⊗ distributes over ⊕ }-->
      map pair ; scan (op_sr2) ; map π1

  Reuses the associative ``op_sr2`` of SR2-Reduction.
  Table 1: 2ts + m(2tw+4)  →  ts + m(2tw+6); improves iff **ts > 2m**
  (the worked example of §4.2).

* **SS-Scan** — same commutative operator::

      scan (⊕) ; scan (⊕)
      --{ ⊕ commutative }-->
      map quadruple ; scan_balanced (op_ss) ; map π1

  ``op_ss`` is non-associative and updates both butterfly partners at once
  (Figure 5); value sharing reduces it from twelve to eight operations.
  Table 1: 2ts + m(2tw+4)  →  ts + m(3tw+8); improves iff **ts > m(tw+4)**.
"""

from __future__ import annotations

from repro.core.derived_ops import SSButterflyOp
from repro.core.operators import ADD, MUL
from repro.core.rules.base import (
    SCAN,
    Rule,
    adjusted,
    commutative,
    distributive,
    quadruple_stage,
)
from repro.core.rules.reduction import sr2_rhs
from repro.core.stages import BalancedScanStage

__all__ = ["SS2_SCAN", "SS_SCAN"]


def _ss(rule, window, general):
    first, _second = window
    return adjusted(rule, BalancedScanStage(SSButterflyOp(first.op),
                                            origin=rule.name), quadruple_stage)


SS2_SCAN = Rule(
    "SS2-Scan", (SCAN, SCAN), sr2_rhs,
    "map pair ; scan (op_sr2) ; map π1",
    "⊗ distributes over ⊕", "ts > 2m", when=distributive, units=(MUL, ADD))

SS_SCAN = Rule(
    "SS-Scan", (SCAN, SCAN), _ss,
    "map quadruple ; scan_balanced (op_ss) ; map π1",
    "⊕ is commutative", "ts > m*(tw + 4)", when=commutative, units=(ADD, ADD))
