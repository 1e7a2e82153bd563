"""Checkpoint/restart recovery runtime for supervised collective programs.

The fault layer (:mod:`repro.faults`) makes failures *visible* — typed
errors, UNDEF degradation, forensics.  This package makes programs
*survive* them: :func:`supervise` executes a stage
:class:`~repro.core.stages.Program` under a supervision loop with

* deterministic stage-boundary **checkpoints** (content-hashed per-rank
  block snapshots + virtual clocks + the fault-state message cursor);
* bounded **retry with capped exponential backoff** from the last
  checkpoint for transient faults;
* per-link strikes that **quarantine** persistently failing links and
  deterministically reroute their traffic through a relay;
* **shrink-recovery** for crashed ranks — virtual ranks are re-hosted
  onto survivors and the stage replays from checkpoint state;
* **resilience-aware replanning** — after a quarantine the remaining
  stages are re-optimized with ``MachineParams.round_penalty`` armed, so
  rule-fused forms (fewer rounds, fewer fault exposures) win.

Contract: a supervised run either completes with values
``defined_equal`` to the fault-free run, or raises a typed
:class:`UnrecoverableError` naming the exhausted policy — never a hang,
never defined-but-wrong.  ``python -m repro recover`` walks through the
mechanisms; ``python -m repro conformance --chaos --recover`` checks the
contract over sampled fault plans on both engines.
"""

from repro.recovery.checkpoint import Checkpoint, digest_state, snapshot_block
from repro.recovery.errors import UnrecoverableError
from repro.recovery.events import RecoveryLog
from repro.recovery.health import Strikes, backoff
from repro.recovery.policy import RecoveryPolicy
from repro.recovery.supervisor import RecoveryResult, supervise

__all__ = [
    "Checkpoint",
    "digest_state",
    "snapshot_block",
    "UnrecoverableError",
    "RecoveryLog",
    "Strikes",
    "backoff",
    "RecoveryPolicy",
    "RecoveryResult",
    "supervise",
]
