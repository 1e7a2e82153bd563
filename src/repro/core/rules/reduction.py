"""Class *Reduction*: fusing a scan with a subsequent reduction (§3.2).

Two rules:

* **SR2-Reduction** — different base operators, ⊗ distributing over ⊕::

      scan (⊗) ; [all]reduce (⊕)
      --{ ⊗ distributes over ⊕ }-->
      map pair ; [all]reduce (op_sr2) ; map π1

  ``op_sr2`` is associative, so the target is an ordinary reduction.
  Table 1: 2ts + m(2tw+3)  →  ts + m(2tw+3); improves **always**.

* **SR-Reduction** — same operator, which must be commutative::

      scan (⊕) ; [all]reduce (⊕)
      --{ ⊕ commutative }-->
      map pair ; [all]reduce_balanced (op_sr) ; map π1

  ``op_sr`` is *not* associative; the target needs the balanced-tree
  reduction of Figure 4.  Table 1: 2ts + m(2tw+3)  →  ts + m(2tw+4);
  improves iff **ts > m**.
"""

from __future__ import annotations

from repro.core.derived_ops import SRTreeOp, sr2_op
from repro.core.operators import ADD, MUL
from repro.core.rules.base import (
    FOLD,
    SCAN,
    Rule,
    adjusted,
    commutative,
    distributive,
    is_all,
)
from repro.core.stages import BalancedReduceStage

__all__ = ["SR2_REDUCTION", "SR_REDUCTION", "sr2_rhs"]


def sr2_rhs(rule, window, general):
    """SR2-Reduction's builder, and SS2-Scan's: the window's second
    collective over ``op_sr2`` of both operators."""
    scan, last = window
    return adjusted(rule, type(last)(sr2_op(scan.op, last.op), origin=rule.name))


def _sr(rule, window, general):
    scan, red = window
    return adjusted(rule, BalancedReduceStage(
        SRTreeOp(scan.op), to_all=is_all(red), origin=rule.name))


SR2_REDUCTION = Rule(
    "SR2-Reduction", (SCAN, FOLD), sr2_rhs,
    "map pair ; [all]reduce (op_sr2) ; map π1",
    "⊗ distributes over ⊕", "always", when=distributive, units=(MUL, ADD))

SR_REDUCTION = Rule(
    "SR-Reduction", (SCAN, FOLD), _sr,
    "map pair ; [all]reduce_balanced (op_sr) ; map π1",
    "⊕ is commutative", "ts > m", when=commutative, units=(ADD, ADD))
