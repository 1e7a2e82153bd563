"""Blocking (thread-based) MPI facade: no ``yield from`` required.

:func:`threaded_spmd_run` runs one OS thread per rank; the
:class:`ThreadedComm` methods *block* like real mpi4py calls::

    def program(comm, x):                 # a plain function!
        y = comm.scan(x, op=ADD)
        total = comm.reduce(y, op=ADD, root=0)
        return comm.bcast(total if comm.rank == 0 else None)

    result = threaded_spmd_run(program, inputs=[1, 2, 3, 4], params=params)

:class:`ThreadedComm` *is* :class:`repro.mpi.comm.Comm`: each blocking
call drives the generator method of the same name — and with it the
*same* collective algorithms as the cooperative simulator
(:mod:`repro.machine.collectives`) — executing every primitive action
through the *same* rendezvous kernel (:mod:`repro.machine.rendezvous`:
``ts + words*tw`` per matched message, unit-cost ops) — here under one
lock, each rank blocking on its own ``threading.Event``, the match made
in whichever rank posts second.  The front ends therefore agree on
results, simulated times and statistics — a fact the test suite checks.

Deadlocks (mismatched protocols) are detected — when every live rank is
blocked and no pending pair matches, all threads raise
:class:`repro.machine.engine.DeadlockError` carrying the shared
per-rank forensic report (:func:`repro.machine.engine.describe_ranks`).

Fault injection is the kernel's too: a ``FaultPlan`` is interpreted by
the same :class:`repro.faults.FaultState` at the same observable points
— crashes at the victim's next communication action, drop/retry
resolution when a rendezvous pair matches — so clocks, typed errors,
degraded results and the fault summary are identical across engines
(the chaos harness checks this).
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams
from repro.faults import (
    FaultPlan,
    FaultState,
    FaultTimeoutError,
    PeerDeadError,
    RankCrashedError,
)
from repro.machine.primitives import RankContext
from repro.machine.rendezvous import (
    Rendezvous,
    SimResult,
    live_fault_state,
    raise_root_cause,
)
from repro.mpi.comm import COMMUNICATION, Comm
from repro.semantics.functional import UNDEF

__all__ = ["ThreadedComm", "threaded_spmd_run", "blocking"]


class _Rendezvous(Rendezvous):
    """The kernel's list store under one lock; each rank blocks on its own
    ``threading.Event`` and is woken with a value or a failure."""

    def __init__(self, size: int, params: MachineParams,
                 fstate: FaultState | None = None,
                 initial_clocks: Sequence[float] | None = None) -> None:
        super().__init__(size, params, fstate, initial_clocks)
        self.lock = threading.Lock()
        self._events = [threading.Event() for _ in range(size)]
        self._inbox: list = [None] * size

    def _wake(self, rank: int, value: Any = None,
              failure: BaseException | None = None) -> None:
        self._inbox[rank] = (value, failure)
        self._events[rank].set()

    def execute(self, rank: int, action: Any) -> Any:
        """Perform one primitive action on behalf of ``rank`` (blocking)."""
        event = self._events[rank]
        with self.lock:
            if self.local(rank, action):
                return None
            event.clear()
            self.post(rank, action)
        event.wait()
        value, failure = self._inbox[rank]
        if failure is not None:
            raise failure
        return value

    def finish(self, rank: int) -> None:
        with self.lock:
            super().finish(rank)


class _ThreadContext(RankContext):
    """A :class:`RankContext` whose primitives block via the rendezvous.

    The generator collectives only call ``send``/``recv``/``sendrecv``/
    ``compute`` (as sub-generators) plus ``rank``/``size``/``params``;
    :meth:`drive` executes each action they yield synchronously.
    """

    def __init__(self, rank: int, size: int, rdv: Rendezvous) -> None:
        super().__init__(rank, size, rdv.params)
        self._rdv = rdv

    def drive(self, gen) -> Any:
        """Run a generator collective, executing each action blockingly.

        Fault errors raised at a blocked primitive are thrown *into* the
        generator (mirroring the cooperative engine's ``gen.throw``), so
        self-stabilizing collectives can catch :class:`PeerDeadError` and
        degrade; uncaught errors propagate to the rank thread.
        :class:`RankCrashedError` is never thrown inward — a crashed rank
        abandons its whole program.
        """
        try:
            action = next(gen)
            while True:
                try:
                    # a payload, tuple states included, passes by
                    # reference here as on the cooperative engine; the
                    # process rendezvous moves it through its rings
                    result = self._rdv.execute(self.rank, action)
                except (PeerDeadError, FaultTimeoutError) as exc:
                    action = gen.throw(exc)
                    continue
                action = gen.send(result)
        except StopIteration as stop:
            return stop.value


def blocking(rank_fn: Callable[[RankContext, Any], Any]
             ) -> Callable[["ThreadedComm", Any], Any]:
    """A generator rank function as the plain ``program(comm, x)`` the
    blocking engines run: each rank drives its own generator."""
    return lambda comm, x: comm._ctx.drive(rank_fn(comm._ctx, x))


def _driven(name: str):
    """``Comm.<name>`` as a blocking call: the calling rank drives the
    generator to its value."""
    method = getattr(Comm, name)

    @functools.wraps(method)
    def call(self, *args: Any, **kwargs: Any) -> Any:
        return self._ctx.drive(method(self, *args, **kwargs))

    return call


class ThreadedComm(Comm):
    """Blocking mpi4py-style communicator for thread-per-rank programs:
    :class:`Comm` with every method of :data:`COMMUNICATION` driven."""

    def compute(self, ops: float) -> None:
        """Charge local computation time (for realistic local stages)."""
        self._ctx.drive(self._ctx.compute(ops))


for _name in COMMUNICATION:
    setattr(ThreadedComm, _name, _driven(_name))


def threaded_spmd_run(
    program: Callable[[ThreadedComm, Any], Any],
    inputs: Sequence[Any],
    params: MachineParams | None = None,
    faults: FaultPlan | None = None,
    fault_state: FaultState | None = None,
    initial_clocks: Sequence[float] | None = None,
) -> SimResult:
    """Run a *blocking* SPMD program, one thread per rank.

    ``program(comm, x)`` is an ordinary function.  Returns the same
    :class:`SimResult` as the cooperative engine (values, virtual time,
    statistics).  Exceptions in any rank propagate to the caller.
    ``faults`` (optional) arms the deterministic fault layer; a crashed
    rank's final value is ``UNDEF``.

    ``fault_state``/``initial_clocks`` mirror
    :func:`repro.machine.engine.run_spmd`: they let the recovery runtime
    resume a checkpointed run — a shared live fault state and per-rank
    starting clocks — with the same observable behavior as the
    cooperative engine.
    """
    p = len(inputs)
    if params is None:
        params = MachineParams(p=p, ts=0.0, tw=0.0, m=1)
    rdv = _Rendezvous(p, params, live_fault_state(faults, fault_state, p),
                      initial_clocks)
    results: list[Any] = [None] * p
    errors: list[BaseException | None] = [None] * p

    def runner(rank: int) -> None:
        ctx = _ThreadContext(rank, p, rdv)
        try:
            results[rank] = program(ThreadedComm(ctx), inputs[rank])
        except RankCrashedError:
            results[rank] = UNDEF  # planned death, not an error
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
        finally:
            rdv.finish(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    raise_root_cause(errors)
    return rdv.result(results)
