"""Process-per-rank shared-memory execution backend.

The fourth execution engine (after the cooperative simulator, the
thread-per-rank engine, and the vectorized block-kernel layer): each rank
is a real OS process, payloads move through ``multiprocessing``
shared-memory rings with zero-copy sends for contiguous arrays and
chunk-pipelined transfers for large messages, while the *same*
generator-based collective algorithms keep the simulated clocks
bit-identical to every other engine.

Entry points:

* :func:`process_spmd_run` — blocking SPMD programs, one process/rank
  (stage ``Program`` objects run through it as
  ``simulate_program(..., engine="process")``);
* :func:`process_fallback_reason` — the platform capability probe
  (``None`` where real rank processes run; the conformance oracle
  reports SKIPPED instead of FAIL elsewhere).
"""

from repro.parallel.backend import process_fallback_reason, process_spmd_run
from repro.parallel.shm import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    RingTimeout,
    SharedArena,
)

__all__ = [
    "DEFAULT_SLOT_BYTES",
    "DEFAULT_SLOTS",
    "RingTimeout",
    "SharedArena",
    "process_fallback_reason",
    "process_spmd_run",
]
