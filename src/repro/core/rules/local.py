"""Class *Local*: replacing collectives by purely local computation (§3.5).

When a broadcast feeds (scans and) a reduction, every processor's
contribution is a function of the *same* root block, so the root can
compute the final value alone, in ``log2 p`` doubling steps, with **no
communication at all**:

* **BR-Local**:    ``bcast; reduce(⊕)          → iter(op_br)``
  (always improves: 2ts + m(2tw+1) → m)
* **BSR2-Local**:  ``bcast; scan(⊗); reduce(⊕) → map pair; iter(op_bsr2); map π1``
  requires distributivity; always improves: 3ts + m(3tw+3) → 3m.
  (A corollary of SR2-Reduction + BR-Local.)
* **BSR-Local**:   ``bcast; scan(⊕); reduce(⊕) → map pair; iter(op_bsr); map π1``
  requires commutativity — *not* derivable from SR-Reduction + BR-Local
  because op_sr is not associative; improves iff tw + ts/m ≥ 1/3:
  3ts + m(3tw+3) → 4m.
* **CR-Alllocal**: ``bcast; allreduce(⊕)       → iter(op_br); bcast``
  (the "allreduce instead of reduce" variant: broadcast the local result).

Caveats faithfully carried over from the paper:

* The RHS leaves the non-root blocks *undefined* (the LHS's broadcast would
  have replicated data).  All Local rules are ``lossy_nonroot``.
* ``iter`` applies its operator exactly ``log2 |xs|`` times, so the rules
  require a power-of-two machine; ``rewrite(..., general=True)`` selects our
  arbitrary-``p`` extension (binary digits of ``p-1`` via the corresponding
  Comcast operator).
* The BSR2/BSR rules also accept ``allreduce`` as the final stage, adding a
  trailing broadcast exactly as CR-Alllocal does for BR.
"""

from __future__ import annotations

from repro.core.derived_ops import br_iter_op, bsr2_iter_op, bsr_iter_op
from repro.core.operators import ADD, MUL
from repro.core.rules.base import (
    ALLREDUCE,
    BCAST,
    FOLD,
    REDUCE,
    SCAN,
    Rule,
    commutative,
    distributive,
    is_all,
)
from repro.core.stages import IterStage

__all__ = ["BR_LOCAL", "BSR2_LOCAL", "BSR_LOCAL", "CR_ALLLOCAL"]


def _iter(make_op, *folds):
    """The builder of ``iter`` over ``make_op`` of the operators at the
    window's ``folds``; an ``allreduce`` keeps its trailing broadcast."""
    def rhs(rule, window, general):
        op = make_op(*(window[i].op for i in folds))
        return (IterStage(op, general=general, then_bcast=is_all(window[-1]),
                          origin=rule.name),)
    return rhs


BR_LOCAL = Rule(
    "BR-Local", (BCAST, REDUCE), _iter(br_iter_op, 1),
    "iter (op_br)",
    "⊕ associative (no extra condition)", "always",
    units=(ADD,), lossy_nonroot=True, requires_power_of_two=True)

#: the trailing bcast re-defines every block: not lossy after all
CR_ALLLOCAL = Rule(
    "CR-Alllocal", (BCAST, ALLREDUCE), _iter(br_iter_op, 1),
    "iter (op_br) ; bcast",
    "⊕ associative (no extra condition)", "always",
    units=(ADD,), requires_power_of_two=True)

BSR2_LOCAL = Rule(
    "BSR2-Local", (BCAST, SCAN, FOLD), _iter(bsr2_iter_op, 1, 2),
    "map pair ; iter (op_bsr2) ; map π1",
    "⊗ distributes over ⊕", "always", when=distributive, units=(MUL, ADD),
    lossy_nonroot=True, requires_power_of_two=True)

BSR_LOCAL = Rule(
    "BSR-Local", (BCAST, SCAN, FOLD), _iter(bsr_iter_op, 1),
    "map pair ; iter (op_bsr) ; map π1",
    "⊕ is commutative", "tw + ts/m >= 1/3", when=commutative, units=(ADD, ADD),
    lossy_nonroot=True, requires_power_of_two=True)
