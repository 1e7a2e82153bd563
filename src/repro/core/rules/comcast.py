"""Class *Comcast*: fusing a broadcast with one or two scans (§3.4).

The common target pattern is ``comcast``: if the root holds ``b``,
processor ``i`` receives ``g^i b``.  It is implemented as a broadcast of
``b`` followed by a *logarithmic* local computation per processor — the
``repeat`` digit traversal of eq. (14) with rule-specific even/odd
functions (Figure 6).

* **BS-Comcast**::

      bcast ; scan (⊕)   -->   bcast ; map# op_comp        (pair state)

  Table 1: 2ts + m(2tw+2) → ts + m(tw+2); improves **always**.

* **BSS2-Comcast** (corollary of SS2-Scan + BS-Comcast)::

      bcast ; scan (⊗) ; scan (⊕)
      --{ ⊗ distributes over ⊕ }-->  bcast ; map# op_comp  (triple state)

  Table 1: 3ts + m(3tw+4) → ts + m(tw+5); improves iff **tw + ts/m > 1/2**.

* **BSS-Comcast** — *not* derivable from SS-Scan + BS-Comcast (op_ss is not
  associative, as the paper notes), formulated separately::

      bcast ; scan (⊕) ; scan (⊕)
      --{ ⊕ commutative }-->  bcast ; map# op_comp         (quadruple state)

  Table 1: 3ts + m(3tw+4) → ts + m(tw+8); improves iff **tw + ts/m > 2**.

The rules build the ``repeat`` form of :class:`ComcastStage` (the faster
one); ``dataclasses.replace(stage, impl="doubling")`` of a rule's output
is the cost-optimal pipeline the paper shows to be slower due to shipping
tuple states.  Figures 7/8 benchmark both.
"""

from __future__ import annotations

from repro.core.derived_ops import bs_comcast_op, bss2_comcast_op, bss_comcast_op
from repro.core.operators import ADD, MUL
from repro.core.rules.base import BCAST, SCAN, Rule, commutative, distributive
from repro.core.stages import ComcastStage

__all__ = ["BS_COMCAST", "BSS2_COMCAST", "BSS_COMCAST"]


def _comcast(make_op, *scans):
    """The builder of ``comcast`` over ``make_op`` of the operators at the
    window's ``scans``."""
    def rhs(rule, window, general):
        op = make_op(*(window[i].op for i in scans))
        return (ComcastStage(op, origin=rule.name),)
    return rhs


#: Figure 6: pair states
BS_COMCAST = Rule(
    "BS-Comcast", (BCAST, SCAN), _comcast(bs_comcast_op, 1),
    "bcast ; map# op_comp",
    "⊕ associative (no extra condition)", "always", units=(ADD,))

#: triple states
BSS2_COMCAST = Rule(
    "BSS2-Comcast", (BCAST, SCAN, SCAN), _comcast(bss2_comcast_op, 1, 2),
    "bcast ; map# op_comp",
    "⊗ distributes over ⊕", "tw + ts/m > 1/2",
    when=distributive, units=(MUL, ADD))

#: quadruple states
BSS_COMCAST = Rule(
    "BSS-Comcast", (BCAST, SCAN, SCAN), _comcast(bss_comcast_op, 1),
    "bcast ; map# op_comp",
    "⊕ is commutative", "tw + ts/m > 2", when=commutative, units=(ADD, ADD))
