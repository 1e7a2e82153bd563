"""Observability counters for the JIT tier.

One process-wide :class:`JitStats` instance (:data:`STATS`) counts
compiles, cache hits, executed compiled vs. kernelized steps, and the
*reason* for every fallback — the numbers ``python -m repro jit stats``
prints.  Counters are plain ints/Counter: cheap enough to bump on the
hot path, reset via :func:`reset_stats` (wired into
``clear_planner_caches()`` together with the compile cache).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

__all__ = ["JitStats", "STATS", "reset_stats"]

#: the integer counters, in the order ``describe`` prints them
_COUNTERS = ("compiles", "cache_hits", "cache_misses", "runs", "full_jit_runs",
             "compiled_steps", "kernelized_steps", "fused_stages",
             "pool_hits", "pool_misses")

#: levels, printed after the counters and never reset: the block pool
#: writes them, and zeroing one would misstate what the pool holds
_LEVELS = ("pool_idle_bytes",)


@dataclass
class JitStats:
    """Process-wide JIT compile-cache and dispatch counters."""

    #: programs compiled (cache misses that built a CompiledProgram)
    compiles: int = 0
    #: compile-cache hits / misses
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``run_jit`` / ``engine_lower`` invocations
    runs: int = 0
    #: runs with no checked kernel: every ``run_jit`` step compiled, or an
    #: engine run lowered to its fused or raw rung (at most one per run)
    full_jit_runs: int = 0
    #: plan steps executed through a compiled kernel
    compiled_steps: int = 0
    #: plan steps executed through the checked kernelized fallback
    kernelized_steps: int = 0
    #: stages covered by compiled steps across all compiles (fusion win)
    fused_stages: int = 0
    #: block-sized output rows the compiled folds drew from the block pool
    #: (:class:`repro.kernels.blocks.BlockPool`): recycled / freshly mapped
    pool_hits: int = 0
    pool_misses: int = 0
    #: bytes idle in the pool (recounted at each draw; see the class)
    pool_idle_bytes: int = 0
    #: reason -> count for every fallback decision (static and dynamic),
    #: including each rung of the engine ladder that was declined
    fallbacks: Counter = field(default_factory=Counter)

    def snapshot(self) -> dict[str, Any]:
        snap: dict[str, Any] = {key: getattr(self, key)
                                for key in _COUNTERS + _LEVELS}
        snap["fallbacks"] = dict(sorted(self.fallbacks.items()))
        return snap

    def describe(self) -> str:
        lines = ["JIT tier stats:"]
        for key in _COUNTERS + _LEVELS:
            lines.append(f"  {key.replace('_', ' '):18}: {getattr(self, key)}")
        if self.fallbacks:
            lines.append("  fallback reasons  :")
            for reason, count in sorted(self.fallbacks.items()):
                lines.append(f"    {reason:24}: {count}")
        else:
            lines.append("  fallback reasons  : (none)")
        return "\n".join(lines)

    def reset(self) -> None:
        for key in _COUNTERS:
            setattr(self, key, 0)
        self.fallbacks.clear()


STATS = JitStats()


def reset_stats() -> None:
    """Zero every counter on the process-wide :data:`STATS` instance."""
    STATS.reset()
