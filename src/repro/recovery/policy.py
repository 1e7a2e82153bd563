"""Tunable knobs of the supervision runtime.

A :class:`RecoveryPolicy` is pure configuration — how many times a stage
may be replayed, where the backoff starts and stops, when a flaky link is
quarantined, whether a crashed rank triggers shrink-recovery — shared by
both execution engines.  Several knobs default to ``None`` meaning
*derive from the machine parameters*, so one policy object works across
machine sizes; :meth:`resolved` pins them for a concrete
:class:`~repro.core.cost.MachineParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.cost import MachineParams

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for checkpoint/restart supervision (see docs/FAULTS.md).

    The retry ladder: a failed stage attempt is replayed from the last
    checkpoint after :func:`~repro.recovery.health.backoff` (doubling from
    ``backoff_base``, capped at ``backoff_cap``) charged to every rank's
    virtual clock.  ``max_stage_attempts`` bounds total attempts
    per stage — faults that keep recurring past it (after quarantine and
    shrink have had their chance) raise ``UnrecoverableError`` with
    policy ``"retry-budget"``.  The budget is deliberately generous: the
    two engines may observe a multi-fault attempt in different orders,
    so each distinct fault may cost its own replay.
    """

    #: total attempts per stage before giving up (first try included)
    max_stage_attempts: int = 12
    #: model time charged for the first replay backoff
    #: (None: ``2 * (ts + m*tw)`` — twice a full-block message)
    backoff_base: float | None = None
    #: backoff ceiling (None: ``8 *`` resolved base)
    backoff_cap: float | None = None
    #: timeouts observed on a link before it is quarantined; 1 strike by
    #: default, because one timeout already represents an exhausted
    #: in-resolve retry budget (max_retries drops in a row)
    quarantine_after: int = 1
    #: rebuild over surviving ranks when a rank crashes
    allow_shrink: bool = True
    #: crashed ranks tolerated before giving up (None: ``p - 1``)
    max_shrinks: int | None = None
    #: after a quarantine, re-optimize the remaining stages preferring
    #: rule-fused forms (fewer rounds => fewer fault exposures)
    prefer_fused_on_quarantine: bool = True
    #: weight of the per-round resilience term used for that re-plan
    #: (None: ``ts + m*tw`` — one full-block message per avoided round)
    resilience_penalty: float | None = None
    #: model time per rank for taking one checkpoint
    #: (None: ``m / 8`` — a fraction of touching the local block)
    checkpoint_ops: float | None = None
    #: (process engine) unplanned incidents — SIGKILL, OOM, frozen
    #: heartbeat — tolerated per rank before the rank is declared
    #: permanently dead and shrink-recovery takes over
    max_respawns: int = 2
    #: (process engine) incidents on one stage before the supervisor
    #: loudly degrades the rest of the run to the threaded engine
    process_fallback_after: int = 6

    def __post_init__(self) -> None:
        if self.max_stage_attempts < 1:
            raise ValueError("need at least one stage attempt")
        if self.backoff_base is not None and self.backoff_base < 0:
            raise ValueError("negative backoff base")
        if self.backoff_cap is not None and self.backoff_cap < 0:
            raise ValueError("negative backoff cap")
        if self.quarantine_after < 1:
            raise ValueError("quarantine threshold must be >= 1")
        if self.max_shrinks is not None and self.max_shrinks < 0:
            raise ValueError("negative shrink budget")
        if self.resilience_penalty is not None and self.resilience_penalty < 0:
            raise ValueError("negative resilience penalty")
        if self.checkpoint_ops is not None and self.checkpoint_ops < 0:
            raise ValueError("negative checkpoint cost")
        if self.max_respawns < 0:
            raise ValueError("negative respawn budget")
        if self.process_fallback_after < 1:
            raise ValueError("process fallback threshold must be >= 1")

    def resolved(self, params: MachineParams) -> "RecoveryPolicy":
        """Pin every ``None`` knob against concrete machine parameters."""
        base = (2.0 * (params.ts + params.m * params.tw)
                if self.backoff_base is None else self.backoff_base)
        return replace(
            self,
            backoff_base=base,
            backoff_cap=8.0 * base if self.backoff_cap is None
            else self.backoff_cap,
            max_shrinks=max(params.p - 1, 0) if self.max_shrinks is None
            else self.max_shrinks,
            resilience_penalty=(params.ts + params.m * params.tw)
            if self.resilience_penalty is None else self.resilience_penalty,
            checkpoint_ops=params.m / 8.0 if self.checkpoint_ops is None
            else self.checkpoint_ops,
        )
