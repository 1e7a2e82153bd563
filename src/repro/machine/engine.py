"""Discrete-event SPMD machine simulator: the cooperative engine.

Simulates the paper's machine model (§4.1): ``p`` processors, a virtual
fully connected network with bidirectional links, message cost
``ts + words*tw``, unit-cost computation.  Rank programs are generators
over the actions in :mod:`repro.machine.primitives`.

The model itself — one virtual clock per processor, matched pairs
advanced to ``max(t_sender, t_receiver) + ts + words*tw`` (synchronous
rendezvous: both sides block, which is how the paper's butterfly phase
estimates compose), the fault verdicts, deaths and deadlock forensics —
is the shared kernel's (:mod:`repro.machine.rendezvous`).  This module
adds the cooperative *store* (a blocked rank is a suspended generator,
woken by resuming it in place) and the *driver*: :func:`run_spmd`'s
deterministic sweep over the ranks.  The simulated run time of a program
is the maximum clock over all processors after every rank returns.

The simulator carries real payloads, so it checks *semantics* and
*timing* in one run; deadlocks (mismatched protocols) are detected and
reported with per-rank states through :func:`describe_ranks`.

Fault injection (:mod:`repro.faults`): passing a ``FaultPlan`` arms a
deterministic fault layer — message drops resolve to bounded retries with
backoff (or a typed ``FaultTimeoutError`` naming the dead link), rank
crashes take effect at the victim's next communication action, and
partners blocked on a crashed rank receive ``PeerDeadError`` at the
blocked primitive (so fault-tolerant collectives can degrade to ``UNDEF``
instead of deadlocking).  Without a plan the fault layer is never
consulted and clocks/statistics are bit-identical to the fault-free
model.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.core.cost import MachineParams
from repro.faults import FaultPlan, FaultState
from repro.machine.primitives import (
    Action,
    RankContext,
    Recv,
    Send,
    comm_partner,
)
from repro.machine.rendezvous import (
    DeadlockError,
    Rendezvous,
    SimResult,
    SimStats,
    describe_ranks,
    live_fault_state,
)
from repro.semantics.functional import UNDEF

__all__ = ["SimStats", "SimResult", "DeadlockError", "describe_ranks", "run_spmd"]


class _Cooperative(Rendezvous):
    """The kernel's list store; waking a rank resumes its generator in
    place, up to its next communication action."""

    def __init__(self, rank_fn, inputs, params, fstate, initial_clocks) -> None:
        p = len(inputs)
        super().__init__(p, params, fstate, initial_clocks)
        self.gens = [rank_fn(RankContext(r, p, params), inputs[r])
                     for r in range(p)]
        self.values: list[Any] = [None] * p

    def _wake(self, rank: int, value: Any = None,
              failure: BaseException | None = None) -> None:
        # a failure is thrown at the suspended yield; if the program does
        # not catch it, it propagates to the engine's caller
        gen = self.gens[rank]
        try:
            action = gen.send(value) if failure is None else gen.throw(failure)
            while self.local(rank, action):
                action = gen.send(None)
            self.pending[rank] = action
        except StopIteration as stop:
            self.values[rank] = stop.value
            self.alive[rank] = False

    def kill(self, rank: int) -> None:
        """A crashed rank abandons its program; its result is UNDEF."""
        super().kill(rank)
        self.gens[rank].close()
        self.values[rank] = UNDEF


def run_spmd(
    rank_fn: Callable[[RankContext, Any], Generator[Action, Any, Any]],
    inputs: Sequence[Any],
    params: MachineParams,
    faults: FaultPlan | None = None,
    fault_state: FaultState | None = None,
    initial_clocks: Sequence[float] | None = None,
) -> SimResult:
    """Run one SPMD program on every rank and simulate its execution.

    ``rank_fn(ctx, x)`` must be a generator function; ``inputs[i]`` is the
    initial block of processor ``i``.  Returns final values (the generator
    return values), the simulated makespan, and statistics.

    ``faults`` arms the deterministic fault-injection layer; see the
    module docstring.  A crashed rank's final value is ``UNDEF``.

    ``fault_state`` supplies an already-live :class:`FaultState` instead
    of building one from ``faults`` — the recovery runtime uses this to
    carry message cursors and crash records across stage-by-stage
    executions.  ``initial_clocks`` starts each rank's virtual clock at a
    checkpointed value rather than 0 (the two hooks together make a
    resumed stage observationally identical to the same stage inside one
    uninterrupted run).

    This function is the *driver*: a deterministic sweep deciding which
    rank initiates a match and in which order (and so the order in which
    a hierarchical machine's contention domains serialise).  Every match,
    clock advance, kill and verdict is the kernel's
    (:mod:`repro.machine.rendezvous`).
    """
    rdv = _Cooperative(rank_fn, inputs, params,
                       live_fault_state(faults, fault_state, len(inputs)),
                       initial_clocks)
    ranks, pending = range(rdv.size), rdv.pending
    for r in ranks:
        rdv._wake(r)
    faulty = rdv.fstate is not None

    while True:
        progressed = False
        if faulty:
            # scheduled crashes take effect at the victim's next
            # communication action; then every rank blocked on a dead
            # peer gets its PeerDeadError.  Crashes are re-checked before
            # anything the woken ranks posted may match.
            for r in ranks:
                if pending[r] is not None and rdv.crash_due(r):
                    rdv.kill(r)
                    progressed = True
            if rdv.wake_waiters() or progressed:
                continue

        for r in ranks:
            act = pending[r]
            # Recv is passive (completed from the Send side) and an
            # exchange is initiated by its lower rank, once per pair
            if act is None or isinstance(act, Recv):
                continue
            q = comm_partner(act)
            if not (isinstance(act, Send) or q > r):
                continue
            # A rank past its crash clock must never take part in a
            # match: it may have acquired this action mid-sweep, after an
            # earlier match advanced its clock, and a blocking engine —
            # which checks at every submission — would not deliver it.
            if faulty and (rdv.crash_due(r) or rdv.crash_due(q)):
                continue
            if rdv.try_match(r):
                progressed = True
        if not progressed:
            break

    if any(rdv.alive):
        raise rdv.deadlock_error()
    return rdv.result(rdv.values)
