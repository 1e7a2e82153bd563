"""Blocking (thread-based) MPI facade: no ``yield from`` required.

:func:`threaded_spmd_run` runs one OS thread per rank; the
:class:`ThreadedComm` methods *block* like real mpi4py calls::

    def program(comm, x):                 # a plain function!
        y = comm.scan(x, op=ADD)
        total = comm.reduce(y, op=ADD, root=0)
        return comm.bcast(total if comm.rank == 0 else None)

    result = threaded_spmd_run(program, inputs=[1, 2, 3, 4], params=params)

Under the hood each blocking call drives the *same* generator-based
collective algorithms as the cooperative simulator
(:mod:`repro.machine.collectives`), executing every primitive action
through a thread rendezvous engine that keeps the identical virtual
clocks (``ts + words*tw`` per matched message, unit-cost ops).  The two
front ends therefore agree on results *and* on simulated times — a fact
the test suite checks.

Deadlocks (mismatched protocols) are detected — when every live rank is
blocked and no pending pair matches, all threads raise
:class:`repro.machine.engine.DeadlockError` carrying the shared
per-rank forensic report (:func:`repro.machine.engine.describe_ranks`).

Fault injection mirrors the cooperative engine exactly: a ``FaultPlan``
is interpreted by the same :class:`repro.faults.FaultState` at the same
observable points — crashes at the victim's next communication action,
drop/retry resolution when a rendezvous pair matches — so clocks, typed
errors, and degraded results are identical across engines (the chaos
harness checks this).
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams
from repro.core.operators import BinOp
from repro.faults import (
    FaultPlan,
    FaultState,
    FaultTimeoutError,
    PeerDeadError,
    RankCrashedError,
)
from repro.machine.collectives import (
    allgather_ring,
    alltoall_pairwise,
    allreduce_butterfly,
    bcast_binomial,
    gather_binomial,
    reduce_binomial,
    scan_butterfly,
    scatter_binomial,
)
from repro.machine.engine import DeadlockError, SimResult, SimStats, describe_ranks
from repro.kernels.messages import PackedBlock, pack_block, unpack_block
from repro.machine.primitives import (
    Compute,
    Probe,
    Recv,
    Send,
    SendRecv,
    comm_partner,
)
from repro.semantics.functional import UNDEF

__all__ = ["ThreadedComm", "threaded_spmd_run", "simulate_program_threaded"]


@dataclass
class _RankSlot:
    action: Any = None           # pending communication action
    result: Any = None
    event: threading.Event = field(default_factory=threading.Event)
    clock: float = 0.0
    waiting: bool = False
    alive: bool = True
    fail_exc: BaseException | None = None  # raised by the woken thread


class _Rendezvous:
    """Thread-safe matcher implementing the paper's timing model."""

    def __init__(self, size: int, params: MachineParams,
                 fstate: FaultState | None = None) -> None:
        self.size = size
        self.params = params
        self.fstate = fstate
        self.lock = threading.Lock()
        self.slots = [_RankSlot() for _ in range(size)]
        self.stats = SimStats()
        self._domain_free: dict = {}

    # -- matching ----------------------------------------------------------

    def _comm_complete(self, r: int, q: int, words: float,
                       extra: float = 0.0) -> float:
        ts, tw = self.params.link(r, q)
        keys = self.params.contention_domains(r, q)
        start = max(self.slots[r].clock, self.slots[q].clock,
                    *(self._domain_free.get(k, 0.0) for k in keys)) \
            if keys else max(self.slots[r].clock, self.slots[q].clock)
        t = start + ts + tw * words + extra
        for k in keys:
            self._domain_free[k] = t
        return t

    def _describe(self) -> str:
        return describe_ranks(
            (i, s.action if s.waiting else None, s.clock, not s.alive)
            for i, s in enumerate(self.slots)
        )

    def _fault_resolve(self, src: int, dst: int, words: float,
                       exchange: bool) -> float | None:
        """Under the lock: match-time fault resolution (mirrors engine.py).

        Returns the extra delay to charge, or None when the message timed
        out — in which case both endpoints have been woken with a
        :class:`FaultTimeoutError` and the match must be abandoned.
        """
        ts, tw = self.params.link(src, dst)
        outcome = self.fstate.resolve(src, dst, ts + tw * words,
                                      exchange=exchange)
        if not outcome.timed_out:
            return outcome.extra_delay
        t = max(self.slots[src].clock, self.slots[dst].clock) \
            + outcome.extra_delay
        self.slots[src].clock = self.slots[dst].clock = t
        for i in (src, dst):
            slot = self.slots[i]
            slot.action = None
            slot.waiting = False
        detail = self._describe()
        for i in (src, dst):
            slot = self.slots[i]
            slot.fail_exc = FaultTimeoutError(src, dst, words,
                                              outcome.drops, t, detail)
            slot.event.set()
        return None

    def _try_match(self, rank: int) -> bool:
        """Under the lock: match ``rank``'s pending action if possible."""
        me = self.slots[rank]
        act = me.action

        if isinstance(act, SendRecv):
            q = act.partner
            other = self.slots[q]
            if other.waiting and isinstance(other.action, SendRecv) \
                    and other.action.partner == rank:
                words = max(act.words, other.action.words)
                extra = 0.0
                if self.fstate is not None:
                    lo, hi = (rank, q) if rank < q else (q, rank)
                    delay = self._fault_resolve(lo, hi, words, exchange=True)
                    if delay is None:
                        return True
                    extra = delay
                t = self._comm_complete(rank, q, words, extra)
                me.result, other.result = other.action.payload, act.payload
                me.clock = other.clock = t
                self.stats.messages += 2
                self.stats.words += act.words + other.action.words
                self._release(rank)
                self._release(q)
                return True
        elif isinstance(act, Send):
            q = act.dst
            other = self.slots[q]
            if other.waiting and isinstance(other.action, Recv) \
                    and other.action.src == rank:
                extra = 0.0
                if self.fstate is not None:
                    delay = self._fault_resolve(rank, q, act.words,
                                                exchange=False)
                    if delay is None:
                        return True
                    extra = delay
                t = self._comm_complete(rank, q, act.words, extra)
                other.result, me.result = act.payload, None
                me.clock = other.clock = t
                self.stats.messages += 1
                self.stats.words += act.words
                self._release(rank)
                self._release(q)
                return True
        elif isinstance(act, Recv):
            q = act.src
            other = self.slots[q]
            if other.waiting and isinstance(other.action, Send) \
                    and other.action.dst == rank:
                extra = 0.0
                if self.fstate is not None:
                    delay = self._fault_resolve(q, rank, other.action.words,
                                                exchange=False)
                    if delay is None:
                        return True
                    extra = delay
                t = self._comm_complete(rank, q, other.action.words, extra)
                me.result, other.result = other.action.payload, None
                me.clock = other.clock = t
                self.stats.messages += 1
                self.stats.words += other.action.words
                self._release(rank)
                self._release(q)
                return True
        return False

    def _release(self, rank: int) -> None:
        slot = self.slots[rank]
        slot.action = None
        slot.waiting = False
        slot.event.set()

    def _deadlocked(self) -> bool:
        """Under the lock: every live rank waiting and nothing matches."""
        live = [s for s in self.slots if s.alive]
        return bool(live) and all(s.waiting for s in live)

    def _fail_all(self) -> None:
        detail = self._describe()
        for slot in self.slots:
            if slot.waiting:
                slot.fail_exc = DeadlockError(
                    f"no progress possible (protocol mismatch)\n{detail}"
                )
                slot.waiting = False
                slot.action = None
                slot.event.set()

    def _wake_waiters_on(self, rank: int) -> None:
        """Under the lock: fail every slot blocked on the dead ``rank``."""
        death = self.fstate.death_clock(rank)
        for i, slot in enumerate(self.slots):
            if slot.waiting and comm_partner(slot.action) == rank:
                slot.fail_exc = PeerDeadError(i, rank, death,
                                              repr(slot.action))
                slot.waiting = False
                slot.action = None
                slot.event.set()

    # -- public API used by ThreadedComm ------------------------------------

    def execute(self, rank: int, action: Any) -> Any:
        """Perform one primitive action on behalf of ``rank`` (blocking)."""
        slot = self.slots[rank]
        if isinstance(action, Probe):
            with self.lock:
                self.stats.timeline.append((rank, action.tag, slot.clock))
            return None
        if isinstance(action, Compute):
            if action.ops < 0:
                raise ValueError("negative computation cost")
            with self.lock:
                slot.clock += action.ops
                self.stats.compute_ops += action.ops
            return None

        with self.lock:
            if self.fstate is not None:
                # Crashes take effect at the next communication action —
                # the same observable point as the cooperative engine.
                if self.fstate.should_crash(rank, slot.clock):
                    self.fstate.record_death(rank, slot.clock)
                    self._wake_waiters_on(rank)
                    raise RankCrashedError(rank, slot.clock)
                peer = comm_partner(action)
                if peer is not None and self.fstate.is_dead(peer):
                    raise PeerDeadError(rank, peer,
                                        self.fstate.death_clock(peer),
                                        repr(action))
            slot.action = action
            slot.waiting = True
            slot.fail_exc = None
            slot.event.clear()
            matched = self._try_match(rank)
            if not matched and self._deadlocked():
                self._fail_all()
        slot.event.wait()
        if slot.fail_exc is not None:
            exc = slot.fail_exc
            slot.fail_exc = None
            raise exc
        return slot.result

    def finish(self, rank: int) -> None:
        with self.lock:
            self.slots[rank].alive = False
            if self._deadlocked():
                self._fail_all()


class _ThreadContext:
    """Duck-typed RankContext whose primitives block via the rendezvous.

    The generator collectives only call ``send``/``recv``/``sendrecv``/
    ``compute`` (as sub-generators) plus ``rank``/``size``/``params`` —
    this class satisfies the same protocol while executing each yielded
    action synchronously.
    """

    def __init__(self, rank: int, size: int, rdv: _Rendezvous) -> None:
        self.rank = rank
        self.size = size
        self.params = rdv.params
        self._rdv = rdv

    def _run(self, action):
        # Vectorized tuple states (op_sr2 pairs, comcast triples, ...) are
        # flattened into one contiguous buffer per message instead of a
        # tuple of separately-handled arrays; object-mode payloads are
        # never tuples of same-shape arrays, so they pass through intact.
        if isinstance(action, (Send, SendRecv)):
            packed = pack_block(action.payload)
            if packed is not None:
                action = dataclasses.replace(action, payload=packed)
        result = self._rdv.execute(self.rank, action)
        if isinstance(result, PackedBlock):
            return unpack_block(result)
        return result

    # generator-protocol shims (driven by _drive below)
    def send(self, dst: int, payload: Any, words: float):
        if not (0 <= dst < self.size) or dst == self.rank:
            raise ValueError(f"rank {self.rank}: invalid send destination {dst}")
        yield Send(dst, payload, words)

    def recv(self, src: int):
        if not (0 <= src < self.size) or src == self.rank:
            raise ValueError(f"rank {self.rank}: invalid receive source {src}")
        result = yield Recv(src)
        return result

    def sendrecv(self, partner: int, payload: Any, words: float):
        if not (0 <= partner < self.size) or partner == self.rank:
            raise ValueError(f"rank {self.rank}: invalid exchange partner {partner}")
        result = yield SendRecv(partner, payload, words)
        return result

    def compute(self, ops: float):
        yield Compute(ops)

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
                    result = self._run(action)
                except (PeerDeadError, FaultTimeoutError) as exc:
                    action = gen.throw(exc)
                    continue
                action = gen.send(result)
        except StopIteration as stop:
            return stop.value


class ThreadedComm:
    """Blocking mpi4py-style communicator for thread-per-rank programs."""

    def __init__(self, ctx: _ThreadContext) -> None:
        self._ctx = ctx

    @property
    def rank(self) -> int:
        return self._ctx.rank

    @property
    def size(self) -> int:
        return self._ctx.size

    # -- point to point ------------------------------------------------------

    def send(self, obj: Any, dest: int, words: float | None = None) -> None:
        """Blocking synchronous send (cost ``ts + words*tw``)."""
        w = self._ctx.params.m if words is None else words
        self._ctx.drive(self._ctx.send(dest, obj, w))

    def recv(self, source: int) -> Any:
        """Blocking receive; returns the payload."""
        return self._ctx.drive(self._ctx.recv(source))

    def sendrecv(self, obj: Any, dest: int, words: float | None = None) -> Any:
        """Simultaneous exchange with ``dest``; returns its payload."""
        w = self._ctx.params.m if words is None else words
        return self._ctx.drive(self._ctx.sendrecv(dest, obj, w))

    def compute(self, ops: float) -> None:
        """Charge local computation time (for realistic local stages)."""
        self._ctx.drive(self._ctx.compute(ops))

    # -- collectives (reusing the simulator's algorithms) ----------------------

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """MPI_Bcast: replicate the root's object to every rank."""
        return self._ctx.drive(bcast_binomial(self._ctx, obj, root=root))

    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """MPI_Scatter: deal the root's list out, one element per rank."""
        return self._ctx.drive(scatter_binomial(self._ctx, sendobj, root=root))

    def gather(self, sendobj: Any, root: int = 0) -> Any:
        """MPI_Gather: rank-ordered list on the root; ``None`` elsewhere."""
        out = self._ctx.drive(gather_binomial(self._ctx, sendobj, root=root))
        return None if out is UNDEF else out

    def allgather(self, sendobj: Any) -> list:
        """MPI_Allgather: the full rank-ordered list on every rank."""
        return self._ctx.drive(allgather_ring(self._ctx, sendobj))

    def alltoall(self, sendobjs: Sequence[Any]) -> list:
        """Personalized exchange: ``sendobjs[i]`` goes to rank ``i``."""
        return self._ctx.drive(alltoall_pairwise(self._ctx, sendobjs))

    def reduce(self, sendobj: Any, op: BinOp, root: int = 0) -> Any:
        """MPI_Reduce: combined value on the root, ``None`` elsewhere.

        Any root works: commutative operators rotate the binomial
        schedule; merely associative ones fold at rank 0 and relay.
        """
        out = self._ctx.drive(reduce_binomial(self._ctx, sendobj, op, root=root))
        return None if out is UNDEF else out

    def allreduce(self, sendobj: Any, op: BinOp) -> Any:
        """MPI_Allreduce: the ⊕-combination of all blocks, everywhere."""
        return self._ctx.drive(allreduce_butterfly(self._ctx, sendobj, op))

    def scan(self, sendobj: Any, op: BinOp) -> Any:
        """MPI_Scan: inclusive prefix over ranks."""
        return self._ctx.drive(scan_butterfly(self._ctx, sendobj, op))

    def split(self, color: Any, key: int | None = None) -> "ThreadedComm | None":
        """``MPI_Comm_split`` (blocking): a sub-communicator per color."""
        from repro.mpi.groups import split_context

        group_ctx = self._ctx.drive(split_context(self._ctx, color, key))
        return None if group_ctx is None else ThreadedComm(group_ctx)

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self.allreduce(0, BinOp("barrier", lambda a, b: 0, commutative=True))


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
    if p == 0:
        raise ValueError("cannot run an empty machine")
    if params is None:
        params = MachineParams(p=p, ts=0.0, tw=0.0, m=1)

    if fault_state is not None:
        fstate: FaultState | None = fault_state
    else:
        fstate = (FaultState(faults)
                  if faults is not None and not faults.is_empty else None)
    rdv = _Rendezvous(p, params, fstate)
    if initial_clocks is not None:
        for slot, clock in zip(rdv.slots, initial_clocks):
            slot.clock = clock
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

    # surface root causes before secondary deadlocks (a rank that died
    # with a user exception makes its partners' waits fail too)
    real = [e for e in errors if e is not None and not isinstance(e, DeadlockError)]
    dead = [e for e in errors if isinstance(e, DeadlockError)]
    if real:
        raise real[0]
    if dead:
        raise dead[0]

    rdv.stats.clocks = tuple(slot.clock for slot in rdv.slots)
    return SimResult(values=tuple(results), time=rdv.stats.makespan,
                     stats=rdv.stats,
                     faults=fstate.summary() if fstate is not None else None)


def simulate_program_threaded(program, inputs, params=None, faults=None,
                              vectorize=False, jit=False) -> SimResult:
    """Run a stage :class:`~repro.core.stages.Program` on the threaded engine.

    The blocking counterpart of :func:`repro.machine.run.simulate_program`:
    every rank executes the same per-stage collective algorithms, driven
    through the thread rendezvous.  Results and virtual times match the
    cooperative engine (property-tested), with or without a fault plan.

    ``vectorize=True`` lowers the program and blocks to NumPy kernels
    (:mod:`repro.kernels`); every rank then sends whole array buffers —
    tuple states travel as one contiguous packed message — instead of
    boxed Python values.  Results are devectorized; programs, inputs, or
    runs the kernels cannot handle exactly fall back to object mode.

    ``jit=True`` takes the same ladder as the cooperative engine
    (:func:`repro.jit.run_engine_ladder`): fused kernels for the values
    while the rank threads exchange definedness tokens, else raw
    kernels, else checked ones.  Simulated clocks are bit-identical to
    ``vectorize=True`` — only wall-clock changes.
    """
    from repro.machine.run import execute_stage

    if params is None:
        params = MachineParams(p=len(inputs), ts=0.0, tw=0.0, m=1)

    if jit or vectorize:
        from repro.jit import run_engine_ladder

        result = run_engine_ladder(
            lambda prog, xs: simulate_program_threaded(prog, xs, params,
                                                       faults=faults),
            program, inputs, params, faults, jit)
        if result is not None:
            return result
        # no kernel rung applies: the exact object-mode run below

    def rank_program(comm: ThreadedComm, x: Any) -> Any:
        ctx = comm._ctx
        for stage in program.stages:
            x = ctx.drive(execute_stage(ctx, stage, x))
        return x

    return threaded_spmd_run(rank_program, inputs, params, faults=faults)
