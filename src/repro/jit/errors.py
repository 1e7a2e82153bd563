"""Typed failures for the JIT tier.

The JIT mirrors the vectorized tier's fallback discipline exactly
(:mod:`repro.kernels.blocks`):

* :class:`JitUnsupported` — a *static* property of the program (an op or
  map label the compiler cannot lower).  Callers skip the JIT entirely;
  in strict mode (the oracle) the program is SKIPPED, never failed.
* dynamic trouble — an input block the compiled code cannot handle, or
  unprovable overflow bounds — is **not** an error: the affected steps
  simply run through the checked kernelized plan instead, which is
  bit-identical by construction.
* :class:`~repro.kernels.blocks.KernelOverflow` raised by a checked
  fallback step propagates out and triggers an exact object-mode replay.

``JitUnsupported`` subclasses ``KernelUnsupported`` so every call site
that already skips-not-fails on the vectorized tier (the oracle, the
engines) handles the JIT tier with no new except
clauses.
"""

from __future__ import annotations

from repro.kernels.blocks import KernelUnsupported

__all__ = ["JitUnsupported"]


class JitUnsupported(KernelUnsupported):
    """The JIT compiler cannot lower this program (static skip)."""
