"""Process-per-rank SPMD backend over POSIX shared memory.

:func:`process_spmd_run` is the true-parallel sibling of
:func:`repro.mpi.threaded.threaded_spmd_run`: one **OS process** per rank
(forked, so programs, closures and operator lambdas need no pickling),
every payload moving through a :class:`repro.parallel.shm.SharedArena`
ring instead of by object reference, and the *same* generator-based
collective algorithms (:mod:`repro.machine.collectives`) driven through
the same blocking context as the threaded engine — which is what keeps
the simulated clocks bit-identical across all engines (property-tested).

The cross-process rendezvous is the shared kernel
(:mod:`repro.machine.rendezvous`) over a different store: pending
actions, virtual clocks, liveness and counters live in shared arrays;
matching happens under one ``multiprocessing`` lock in whichever rank
posts second; completion times are the kernel's ``max(clocks) + ts +
words*tw`` (including the contention-domain serialization of
hierarchical machines, via a pre-enumerated shared domain table).
Payload bytes then stream outside the lock through the
sender's outbox ring, chunked per the Lowery & Langou crossover
(:func:`repro.core.cost.pipeline_chunk_count`) so a large transfer's
sender-side writes overlap the receiver-side reads.

**Fault injection runs on real processes.**  The parent's fault
interpreter is opened on the arena's cells
(:meth:`repro.faults.FaultState.on_cells`), so match-time
verdict resolution — drops, retries, delays, duplicates, jitter,
timeouts — happens under the rendezvous lock in whichever child arrives
second, exactly as in the threaded engine.  A planned *crash* is
realized as an **actual child exit**: the dying rank does its protocol
bookkeeping under the lock (death record, waking of blocked peers),
then ``os._exit``\\ s with a reserved code the parent maps back to the
``UNDEF`` result the other engines produce.

**Unplanned faults are detected, never waited out.**  Every child beats
a per-rank heartbeat in the arena on each primitive action and every
ring-spin iteration; the parent's watchdog flags a child that exited
without its result handshake (``SIGKILL``, OOM) or whose heartbeat froze
while runnable (``SIGSTOP``, livelock) within a bounded interval, kills
the remaining children of the attempt and raises a typed
:class:`~repro.parallel.errors.ProcessIncidentError` carrying the
rendezvous forensics.  The arena's **epoch** counter makes respawns
safe: a straggler from a killed generation exits the moment a tick
observes the bumped epoch, so it can never corrupt the next attempt.
One fork generation — fresh lock/events, fault-cell seeding, fork,
``spawn_hook``, start gate, watchdog, join, fault-store adoption — is
:func:`_run_generation`, shared by the
plain run, the recovery supervisor's :class:`ProcessStageRunner` (which
bumps the epoch per attempt) and the serving tier's
:class:`ProcessJobRunner` (which pools arenas and batches jobs).

Graceful degradation, never a crash: platforms without ``fork`` or
``multiprocessing.shared_memory``, single-core hosts (where real
processes only time-slice and lose to threads — override with
``REPRO_PARALLEL_FORCE=1``), rank counts beyond the oversubscription
cap, and a ``/dev/shm`` that refuses an arena all step one rung down
:data:`SUBSTRATES` to the threaded engine through :meth:`Ladder.demote`
— the one warning (``repro.parallel`` logger) and, where the caller
keeps an event log, the one ``fallback`` event.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import os
import sys
import threading
import time
from typing import Any, Callable, Sequence

from repro.core.cost import MachineParams, pipeline_chunk_count
from repro.faults import FaultState, RankCrashedError
from repro.machine.primitives import Recv, Send, SendRecv, comm_partner
from repro.machine.rendezvous import (
    ENGINES,
    Rendezvous,
    SimResult,
    SimStats,
    live_fault_state,
    raise_root_cause,
)
from repro.parallel import payload as _payload
from repro.parallel.errors import (
    ProcessIncidentError,
    WorkerCrashError,
    WorkerDeadlineError,
    WorkerHangError,
)
from repro.parallel.shm import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    SPIN_TIMEOUT,
    RingTimeout,
    SharedArena,
    duplex,
)
from repro.semantics.functional import UNDEF

__all__ = [
    "SUBSTRATES",
    "Ladder",
    "open_arena",
    "process_fallback_reason",
    "process_spmd_run",
    "ProcessStageRunner",
    "ProcessJobRunner",
]

log = logging.getLogger("repro.parallel")

#: ``arena.kind`` codes of a pending action (0: the rank is not waiting)
_KINDS = {Send: 1, Recv: 2, SendRecv: 3}
_ACTIONS = {code: cls for cls, code in _KINDS.items()}
_MIN_CHUNK_BYTES = 4096
_WORD_BYTES = 8.0

#: a planned (fault-schedule) crash: parent maps this exit to UNDEF
_EXIT_CRASHED = 77
#: a straggler from a dead arena epoch noticed the bump and left
_EXIT_STALE = 78
#: watchdog interval (seconds): how long a *runnable* rank may go silent
#: unless ``hb_timeout`` says otherwise.  Generous — heartbeats tick on
#: every primitive action and every ring-spin iteration, so only a
#: genuinely stopped or livelocked child ever approaches it.
HB_TIMEOUT = 30.0


# ---------------------------------------------------------------------------
# The substrate ladder
# ---------------------------------------------------------------------------

#: the degradation ladder: the engines, most parallel first
SUBSTRATES = ("process", "threaded", "cooperative")
assert sorted(SUBSTRATES) == sorted(ENGINES)


def _max_ranks() -> int:
    """Oversubscription cap: beyond this, processes degrade to threads.

    Default ``max(8, 4 * cpu_count)`` — small machines may still run the
    canonical p≤8 configurations as real processes (they merely
    time-slice), while absurd rank counts on small hosts degrade
    gracefully.  Override with ``REPRO_PARALLEL_MAX_RANKS``.
    """
    env = os.environ.get("REPRO_PARALLEL_MAX_RANKS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            log.warning("ignoring malformed REPRO_PARALLEL_MAX_RANKS=%r", env)
    return max(8, 4 * (os.cpu_count() or 1))


def process_fallback_reason(p: int) -> str | None:
    """Why ``process_spmd_run`` would degrade to the threaded engine.

    ``None`` means the process backend will genuinely run — fault plans
    (crashes included) do too, through the shared-arena fault cells.
    """
    if sys.platform == "win32":
        return "no fork start method on this platform"
    try:
        if "fork" not in multiprocessing.get_all_start_methods():
            return "no fork start method on this platform"
    except Exception:  # pragma: no cover - broken multiprocessing
        return "multiprocessing unavailable"
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - pre-3.8 / stripped stdlib
        return "multiprocessing.shared_memory unavailable"
    if not os.environ.get("REPRO_PARALLEL_FORCE"):
        cores = os.cpu_count() or 1
        if cores < 2:
            return ("single-core host: process ranks only time-slice, so "
                    "the threaded engine wins (see BENCH_parallel.json); "
                    "set REPRO_PARALLEL_FORCE=1 to run real processes anyway")
    cap = _max_ranks()
    if p > cap:
        return (f"p={p} exceeds the oversubscription cap {cap} "
                f"(cpu_count={os.cpu_count()}, REPRO_PARALLEL_MAX_RANKS to "
                f"override)")
    return None


class Ladder:
    """A rung of :data:`SUBSTRATES` that only ever moves down, loudly.

    :meth:`demote` is the one place a substrate is given up: one warning
    on the ``repro.parallel`` logger and, given an event ``log`` (a
    :class:`~repro.recovery.events.RecoveryLog` or the serving bus), one
    ``fallback`` event ``{**where, source, target, reason}``.  It steps
    only from ``source`` — a caller that saw an older rung finds the
    ladder already moved — and never below the last rung.  :meth:`gate`
    is the one reader of :func:`process_fallback_reason`.
    ``where`` fields given here go into every event.
    """

    def __init__(self, rung: str = SUBSTRATES[0], log=None, **where) -> None:
        self.rung = rung
        self.demotions = 0
        self._log = log
        self._where = where
        self._lock = threading.Lock()

    def demote(self, source: str, reason: str, **where) -> str:
        """Step down from ``source`` because of ``reason``; the rung now."""
        with self._lock:
            if self.rung != source or source == SUBSTRATES[-1]:
                return self.rung
            self.rung = target = SUBSTRATES[SUBSTRATES.index(source) + 1]
            self.demotions += 1
        log.warning("%s engine demoted (%s); falling back to the %s engine",
                    source, reason, target)
        if self._log is not None:
            self._log.emit("fallback", **self._where, **where, source=source,
                           target=target, reason=reason)
        return target

    def gate(self, p: int, **where) -> str:
        """The rung a ``p``-rank run takes: the current one, after the
        platform check when that is the process engine."""
        rung = self.rung
        if rung == "process":
            reason = process_fallback_reason(p)
            if reason is not None:
                return self.demote(rung, reason, **where)
        return rung


def open_arena(ladder: Ladder, p: int, params: MachineParams, pool=None,
               slot_bytes: int = DEFAULT_SLOT_BYTES,
               slots: int = DEFAULT_SLOTS, **where) -> SharedArena | None:
    """A shared arena for a ``p``-rank run on ``params`` (from ``pool``
    when given), or ``None`` once ``/dev/shm`` refused one and ``ladder``
    stepped below the process engine.

    The process substrate's one ``OSError`` catch: any other — a
    :class:`~repro.faults.FaultTimeoutError` is one — belongs to the run.
    """
    n_domains = len(_domain_keys(params, p))
    try:
        if pool is not None:
            return pool.acquire(p, n_domains)
        return SharedArena(p, n_domains=n_domains, slot_bytes=slot_bytes,
                           slots=slots)
    except OSError as exc:
        ladder.demote("process", f"shared-memory setup failed ({exc})",
                      **where)
        return None


# ---------------------------------------------------------------------------
# Cross-process rendezvous
# ---------------------------------------------------------------------------


def _domain_keys(params: MachineParams, p: int) -> list:
    """Every contention domain of a ``p``-rank machine, enumerated pre-fork
    so all processes agree on the shared ``domain_free`` indices."""
    return sorted({k for a in range(p) for b in range(a + 1, p)
                   for k in params.contention_domains(a, b)}, key=repr)


@functools.lru_cache(maxsize=1024)
def _decode(kind: int, partner: int, words: float):
    """A pending action from its cells.  Memoised: every deadlock check
    reads all ranks' cells under the cross-process lock, and a run posts
    few distinct ``(kind, partner, words)``."""
    cls = _ACTIONS[kind]
    return Recv(partner) if cls is Recv else cls(partner, "<shm>", words)


class _PendingCells:
    """``arena.waiting`` / ``kind`` / ``partner`` / ``words`` as the
    kernel's ``pending`` store: a rank's cells read back as the action it
    posted (the payload is staged beside them, never through the kernel)."""

    def __init__(self, arena: SharedArena) -> None:
        self._arena = arena

    def __getitem__(self, rank: int):
        a = self._arena
        if not a.waiting[rank]:
            return None
        return _decode(int(a.kind[rank]), int(a.partner[rank]),
                       float(a.words[rank]))

    def __setitem__(self, rank: int, action: Any) -> None:
        a = self._arena
        if action is not None:
            a.kind[rank] = _KINDS[type(action)]
            a.partner[rank] = comm_partner(action)
            a.words[rank] = 0.0 if isinstance(action, Recv) else action.words
        a.waiting[rank] = action is not None


class _Cells:
    """One arena array as a kernel store, read back as Python numbers.

    The array is looked up per access — a closed arena has dropped its
    views — and ``index`` maps the kernel's keys onto cell positions
    (ranks index their cells directly).
    """

    def __init__(self, arena: SharedArena, name: str,
                 index: dict | None = None) -> None:
        self._arena, self._name, self._index = arena, name, index

    def _at(self, key: Any) -> int:
        return key if self._index is None else self._index[key]

    def __getitem__(self, key: Any):
        return getattr(self._arena, self._name)[self._at(key)].item()

    def __setitem__(self, key: Any, value) -> None:
        getattr(self._arena, self._name)[self._at(key)] = value


class _ProcessRendezvous(Rendezvous):
    """The rendezvous kernel over shared-memory cells.

    Pending actions, clocks, liveness, contention-domain free times and
    the counters live in the :class:`SharedArena`, under one
    ``multiprocessing`` lock; a rank is woken through its
    ``multiprocessing`` event, with a failure parked in its fail cell.
    Payloads never pass through the kernel: a delivered message pins the
    sender's transfer descriptor onto the receiver, and the bytes stream
    outside the lock (:meth:`_transfer`).

    **Tallies this store does not keep:** ``SimStats.events`` and
    ``SimStats.timeline`` — a per-message record in shared memory would
    need an unbounded cell; ``messages``, ``words``, ``compute_ops`` and
    the clocks are kept and equal the other engines'.
    """

    def __init__(self, size: int, params: MachineParams,
                 arena: SharedArena, lock, events,
                 fstate: FaultState | None = None,
                 initial_clocks: Sequence[float] | None = None) -> None:
        self.arena = arena
        self.lock = lock
        self.events = events
        #: per-process liveness hook (heartbeat + epoch check in children);
        #: each forked child installs its own after the fork
        self._tick: Callable[[], None] | None = None
        super().__init__(size, params, fstate, initial_clocks)

    # -- storage primitives on arena cells (lock held) ---------------------

    def _open_store(self, initial_clocks: Sequence[float] | None) -> None:
        a = self.arena
        if initial_clocks is not None:
            a.clock[:self.size] = initial_clocks
        self.clock = _Cells(a, "clock")
        self.pending = _PendingCells(a)
        self.alive = _Cells(a, "alive")
        domains = _domain_keys(self.params, self.size)
        self.domain_free = _Cells(a, "domain_free",
                                  {k: i for i, k in enumerate(domains)})

    def _count(self, messages: int, words: float) -> None:
        self.arena.messages[0] += messages
        self.arena.stat_words[0] += words

    def _deliver(self, src: int, dst: int, t: float, words: float) -> None:
        """Pin the sender's payload descriptor onto the receiver's slot.

        The sender may post (and re-stage) its *next* message the moment
        it wakes; copying under the matching lock, before the wake-up,
        gives the receiver a stable descriptor regardless of scheduling.
        """
        a = self.arena
        a.xfer_out[src] = dst
        a.xfer_in[dst] = src
        a.xfer_base[dst] = int(a.wseq[src])
        a.in_kind[dst] = a.meta_kind[src]
        a.in_nbytes[dst] = a.meta_nbytes[src]
        a.in_k[dst] = a.meta_k[src]
        a.in_ndim[dst] = a.meta_ndim[src]
        a.in_shape[dst, :] = a.meta_shape[src, :]
        a.in_dtype[dst, :] = a.meta_dtype[src, :]

    def _tally_compute(self, ops: float) -> None:
        self.arena.compute_ops[0] += ops

    def _tally_probe(self, rank: int, tag: Any, clock: float) -> None:
        pass

    def _wake(self, rank: int, value: Any = None,
              failure: BaseException | None = None) -> None:
        if failure is not None:
            self.arena.deliver_failure(rank, failure)
        self.events[rank].set()

    def result(self, values, fstate: FaultState | None = None) -> SimResult:
        a = self.arena
        self.stats = SimStats(int(a.messages[0]), float(a.stat_words[0]),
                              float(a.compute_ops[0]))
        return super().result(values, fstate)

    def describe_safely(self) -> str:
        """Rendezvous forensics from inside a live generation (a child).

        A killed sibling may have died holding the lock; a bounded acquire
        attempt keeps the diagnosis lock-consistent when possible and
        merely racy (never hanging) when not.  The parent never waits
        here: it reads :meth:`describe` after :func:`_kill_all`.
        """
        got = self.lock.acquire(timeout=1.0)
        try:
            return self.describe()
        finally:
            if got:
                self.lock.release()

    # -- payload movement (lock NOT held) ----------------------------------

    def _chunk_bytes(self, nbytes: int) -> int:
        """Wire chunk size for an ``nbytes`` transfer (both sides agree).

        The chunk *count* comes from the machine parameters via the
        Lowery & Langou crossover (sender write + receiver read form a
        two-stage pipeline); the byte size is then clamped to the arena's
        physical slot size and a protocol-overhead floor.
        """
        if nbytes <= _MIN_CHUNK_BYTES:
            return _MIN_CHUNK_BYTES
        chunks = pipeline_chunk_count(self.params, nbytes / _WORD_BYTES,
                                      depth=2)
        per = -(-nbytes // chunks)
        return max(_MIN_CHUNK_BYTES, min(per, self.arena.slot_bytes))

    def _transfer(self, rank: int, staged) -> Any:
        a = self.arena
        out_dst = int(a.xfer_out[rank])
        in_src = int(a.xfer_in[rank])
        writer = reader = None
        in_kind = dest_obj = None
        in_nbytes = 0
        if out_dst >= 0:
            nbytes, buffers = staged
            writer = a.write_stream(rank, buffers, nbytes,
                                    self._chunk_bytes(nbytes))
        if in_src >= 0:
            in_kind = int(a.in_kind[rank])
            in_nbytes = int(a.in_nbytes[rank])
            in_k = int(a.in_k[rank])
            ndim = int(a.in_ndim[rank])
            shape = tuple(int(s) for s in a.in_shape[rank, :ndim])
            dtype = bytes(a.in_dtype[rank]).rstrip(b"\x00").decode("ascii")
            dest_obj, dest_view = _payload.alloc_destination(
                in_kind, in_nbytes, in_k, shape, dtype)
            reader = a.read_stream(in_src, int(a.xfer_base[rank]), dest_view,
                                   in_nbytes, self._chunk_bytes(in_nbytes))
        try:
            if writer is not None and reader is not None:
                duplex(writer, reader, tick=self._tick)
            elif writer is not None:
                writer.run(tick=self._tick)
            elif reader is not None:
                reader.run(tick=self._tick)
        except RingTimeout as exc:
            # the matched peer stopped moving bytes without dying loudly:
            # surface a typed incident with the pending-transfer forensics
            # instead of the bare ring watchdog
            peer = out_dst if out_dst >= 0 else in_src
            detail = (f"rank {rank}: transfer with rank {peer} stalled "
                      f"(out->{out_dst}, in<-{in_src}, "
                      f"out_bytes={staged[0] if staged else 0}, "
                      f"in_bytes={in_nbytes})\n" + self.describe_safely())
            raise WorkerHangError(peer, SPIN_TIMEOUT, detail) from exc
        a.xfer_out[rank] = -1
        a.xfer_in[rank] = -1
        if reader is not None:
            return _payload.finish_destination(in_kind, dest_obj)
        return None

    # -- public API (same protocol as the threaded rendezvous) --------------

    def execute(self, rank: int, action: Any) -> Any:
        if self._tick is not None:
            self._tick()
        a = self.arena
        meta = staged = None
        if isinstance(action, (Send, SendRecv)):  # stages its bytes
            *meta, buffers = _payload.encode_payload(action.payload)
            staged = (meta[1], buffers)
        event = self.events[rank]
        with self.lock:
            if self.local(rank, action):
                return None
            event.clear()
            if meta is not None:
                _payload.stage_meta(a, rank, *meta)
            # a crash's bookkeeping happens in post(), under the lock: the
            # dying child exits the interpreter without unwinding
            # (os._exit skips finally blocks)
            self.post(rank, action)
        event.wait()
        if a.fail_len[rank]:
            raise a.take_failure(rank)
        return self._transfer(rank, staged)

    def finish(self, rank: int) -> None:
        with self.lock:
            super().finish(rank)


# ---------------------------------------------------------------------------
# Rank process and parent orchestration
# ---------------------------------------------------------------------------


def _child_main(rdv: _ProcessRendezvous, program, inputs, rank: int,
                epoch: int = 0) -> None:
    """One rank: drive the program, then stream the result to the parent."""
    from repro.mpi.threaded import ThreadedComm, _ThreadContext

    arena = rdv.arena
    # start gate: park until the parent has run its spawn_hook and released
    # this epoch.  A parked rank beats no heartbeat, touches no lock and
    # publishes nothing, so one killed "at spawn" has provably done nothing.
    while int(arena.go[0]) != epoch:
        if int(arena.epoch[0]) != epoch:
            os._exit(_EXIT_STALE)
        time.sleep(1e-4)

    def tick() -> None:
        # liveness beat (watchdog food) + stale-epoch self-destruct: a
        # straggler from a killed generation must never publish into the
        # respawned one
        arena.hb[rank] += 1
        if int(arena.epoch[0]) != epoch:
            os._exit(_EXIT_STALE)

    rdv._tick = tick
    state = 1
    try:
        ctx = _ThreadContext(rank, rdv.size, rdv)
        result = program(ThreadedComm(ctx), inputs[rank])
    except RankCrashedError:
        # a *planned* crash, realized as a real process death: protocol
        # bookkeeping (death record, waking of peers) already happened
        # under the lock in execute(); finish() marks this rank gone so
        # the deadlock detector stays exact, then the process truly dies.
        rdv.finish(rank)
        os._exit(_EXIT_CRASHED)
    except BaseException as exc:  # noqa: BLE001 - transported to the parent
        state, result = 2, exc
    finally:
        rdv.finish(rank)
    try:
        wk, nbytes, k, ndim, shape, dtype, buffers = \
            _payload.encode_payload(result)
    except Exception as exc:  # unpicklable result/exception
        state = 2
        wk, nbytes, k, ndim, shape, dtype, buffers = _payload.encode_payload(
            RuntimeError(f"rank {rank} result not transportable: {exc!r}"))
    with rdv.lock:
        _payload.stage_meta(arena, rank, wk, nbytes, k, ndim, shape, dtype)
        arena.result_base[rank] = int(arena.wseq[rank])
        arena.result_state[rank] = state
    arena.write_stream(rank, buffers, nbytes,
                       rdv._chunk_bytes(nbytes)).run(tick=rdv._tick)


def _kill_all(procs) -> None:
    """Hard-stop every remaining child of an attempt (idempotent)."""
    for proc in procs:
        if proc is not None and proc.is_alive():
            proc.kill()
    for proc in procs:
        if proc is not None:
            proc.join(timeout=5.0)


def _read_result(rdv: _ProcessRendezvous, rank: int, proc,
                 liveness_tick=None) -> tuple[int, Any]:
    """Parent side: stream in ``rank``'s published result.

    ``liveness_tick`` (from :func:`_watch_ranks`) keeps watching *every*
    child while this read blocks: the reader may legitimately wait on a
    different live rank (the ring's rseq hand-off serializes consumers),
    and that rank dying must surface as its own typed incident, not as a
    five-minute ring stall.
    """
    a = rdv.arena
    state = int(a.result_state[rank])
    in_kind = int(a.meta_kind[rank])
    in_nbytes = int(a.meta_nbytes[rank])
    in_k = int(a.meta_k[rank])
    ndim = int(a.meta_ndim[rank])
    shape = tuple(int(s) for s in a.meta_shape[rank, :ndim])
    dtype = bytes(a.meta_dtype[rank]).rstrip(b"\x00").decode("ascii")
    dest_obj, dest_view = _payload.alloc_destination(
        in_kind, in_nbytes, in_k, shape, dtype)
    reader = a.read_stream(rank, int(a.result_base[rank]), dest_view,
                           in_nbytes, rdv._chunk_bytes(in_nbytes))
    dead_seen = False

    def tick() -> None:
        nonlocal dead_seen
        if liveness_tick is not None:
            liveness_tick()
        if proc is None or proc.is_alive() \
                or proc.exitcode == _EXIT_CRASHED:
            return
        if int(a.wseq[rank]) > reader._next:
            # the chunk we need IS published; we are waiting for an
            # earlier (live) consumer's rseq hand-off, not for the writer
            dead_seen = False
            return
        # Raise only on the second silent iteration after observing the
        # death: the child's final ring publishes land in shared memory
        # before its exit is observable, so one more readiness check
        # after death separates "exited having published everything"
        # from "died mid-stream".
        if dead_seen:
            raise WorkerCrashError(rank, proc.exitcode,
                                   "died while streaming its result")
        dead_seen = True

    try:
        reader.run(tick=tick)
    except RingTimeout as exc:
        raise WorkerHangError(rank, SPIN_TIMEOUT,
                              f"result stream stalled ({exc})") from exc
    return state, _payload.finish_destination(in_kind, dest_obj)


def _watch_ranks(rdv: _ProcessRendezvous, procs,
                 hb_timeout: float) -> tuple[list[int], list[Any]]:
    """Parent watchdog: drain every rank's result or raise a typed incident.

    Monitors all ranks concurrently (a sequential per-rank drain would
    hang forever on rank 0 if rank 2 was SIGKILLed).  Detection rules:

    * a process that exited without its result handshake is a
      :class:`WorkerCrashError` — unless it left with the reserved
      planned-crash code, which maps to the ``UNDEF`` result the other
      engines produce for a scheduled crash;
    * a heartbeat frozen for ``hb_timeout`` while the rank is *runnable*
      (``waiting == 0``) is a :class:`WorkerHangError`.  Ranks blocked in
      a rendezvous wait legitimately do not beat — the matcher or the
      deadlock detector owns waking them, and once a lost peer is
      detected their waits are failed explicitly.

    On any incident every remaining child of the attempt is killed
    before the error propagates: recovery happens by respawning into a
    fresh arena epoch, never by surgical repair of a half-dead ring.
    The forensics are read after the kill: with no child alive nobody
    can hold, take or release the lock or move a cell, so the report is
    consistent without the lock its victim may have died holding.
    """
    a = rdv.arena
    p = rdv.size
    states = [0] * p
    values: list[Any] = [None] * p
    pending = set(range(p))
    now = time.monotonic()
    hb_seen = {r: (int(a.hb[r]), now) for r in range(p)}

    def check_rank(rank: int) -> None:
        """Raise a typed incident if ``rank`` crashed or went silent."""
        proc = procs[rank]
        if proc is not None and not proc.is_alive():
            # result_state is re-read *after* observing the death: the
            # child publishes it before exiting, so a normal finish can
            # never be mistaken for a crash
            if a.result_state[rank] or proc.exitcode == _EXIT_CRASHED:
                return
            raise WorkerCrashError(rank, proc.exitcode)
        if a.result_state[rank]:
            return  # protocol done; only its result stream remains
        hb = int(a.hb[rank])
        now = time.monotonic()
        last, since = hb_seen[rank]
        if hb != last:
            hb_seen[rank] = (hb, now)
        elif not a.waiting[rank] and now - since > hb_timeout:
            raise WorkerHangError(rank, now - since)

    def liveness_tick() -> None:
        for rank in range(p):
            check_rank(rank)

    delay = 0.0
    try:
        while pending:
            progressed = False
            for rank in sorted(pending):
                proc = procs[rank]
                if a.result_state[rank]:
                    states[rank], values[rank] = _read_result(
                        rdv, rank, proc, liveness_tick)
                    pending.discard(rank)
                    progressed = True
                    continue
                if proc is not None and not proc.is_alive() \
                        and proc.exitcode == _EXIT_CRASHED \
                        and not a.result_state[rank]:
                    states[rank] = 3  # planned crash -> UNDEF result
                    pending.discard(rank)
                    progressed = True
                    continue
                check_rank(rank)
            if progressed:
                delay = 0.0
            else:
                time.sleep(delay)
                delay = min(delay * 2 or 1e-6, 1e-3)
    except ProcessIncidentError as exc:
        _kill_all(procs)
        # the incident again, the report appended to its detail (the last
        # constructor argument of every incident type)
        cls, (*fields, detail) = exc.__reduce__()
        report = rdv.describe()
        raise cls(*fields, f"{detail}\n{report}" if detail else report) \
            from exc
    return states, values


def _rank_values(states: Sequence[int], values: Sequence[Any]) -> list:
    """Per-rank results of drained states (a planned crash is ``UNDEF``);
    raises what a rank raised, with the threaded engine's precedence."""
    raise_root_cause(v for st, v in zip(states, values) if st == 2)
    return [UNDEF if st == 3 else v for st, v in zip(states, values)]


def _run_generation(arena: SharedArena, params: MachineParams, program,
                    inputs: Sequence[Any], hb_timeout: float | None,
                    spawn_hook, meta: dict,
                    master: FaultState | None = None,
                    initial_clocks: Sequence[float] | None = None,
                    deadline: float | None = None):
    """One fork generation in ``arena``'s current epoch: fork a child per
    rank → ``spawn_hook`` → open the start gate → watchdog → join.
    The forked ranks park on the arena's ``go`` cell until the hook has
    returned: what it does to a child precedes that child's first action.

    Fresh lock and events every time (a SIGKILLed child may have died
    holding the old lock).  ``master``'s stores are opened on the
    arena's fault cells, and adopted back whether the generation
    succeeds or raises — the supervisor reads them to decide
    quarantine/shrink.  ``deadline`` (absolute ``time.monotonic()``)
    arms a timer that kills the generation.  No child survives the call.
    Returns ``(rendezvous, states, values)`` as drained by
    :func:`_watch_ranks`.
    """
    p = len(inputs)
    ctx = multiprocessing.get_context("fork")
    view = None if master is None else master.on_cells(arena.fault_cell)
    rdv = _ProcessRendezvous(p, params, arena, ctx.Lock(),
                             [ctx.Event() for _ in range(p)], view,
                             initial_clocks)
    epoch = int(arena.epoch[0])
    procs = [ctx.Process(target=_child_main,
                         args=(rdv, program, inputs, rank, epoch), daemon=True)
             for rank in range(p)]
    deadline_hit = threading.Event()
    timer = None
    if deadline is not None:
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise WorkerDeadlineError(0.0, "expired before start")

        def _expire() -> None:
            deadline_hit.set()
            _kill_all(procs)

        timer = threading.Timer(budget, _expire)
        timer.daemon = True
    for proc in procs:
        proc.start()
    if timer is not None:
        timer.start()
    try:
        if spawn_hook is not None:
            spawn_hook(procs, {"epoch": epoch, **meta})
        arena.go[0] = epoch
        states, values = _watch_ranks(
            rdv, procs,
            hb_timeout if hb_timeout is not None else HB_TIMEOUT)
        for proc in procs:  # results drained: let the ranks exit cleanly
            proc.join(timeout=5.0)
    except ProcessIncidentError as exc:
        if deadline_hit.is_set():
            raise WorkerDeadlineError(budget, rdv.describe()) from exc
        raise
    finally:
        if timer is not None:
            timer.cancel()
        _kill_all(procs)  # parked, running or already gone
        if view is not None:
            master.adopt(view)
    return rdv, states, values


def process_spmd_run(
    program: Callable[[Any, Any], Any],
    inputs: Sequence[Any],
    params: MachineParams | None = None,
    faults=None,
    fault_state=None,
    initial_clocks: Sequence[float] | None = None,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
    slots: int = DEFAULT_SLOTS,
    hb_timeout: float | None = None,
    spawn_hook: Callable[[list, dict], None] | None = None,
) -> SimResult:
    """Run a blocking SPMD program with one OS process per rank.

    Same contract as :func:`repro.mpi.threaded.threaded_spmd_run` —
    ``program(comm, x)`` is an ordinary function over the blocking
    mpi4py-style communicator; the returned :class:`SimResult` carries
    per-rank values, the simulated makespan and communication statistics
    (bit-identical to the other engines).  Payloads move through shared
    memory; rank-local state (programs, closures, operators) is inherited
    by forking and never serialized.

    Fault plans run on the real processes: verdicts resolve in shared
    arena cells at match time, planned crashes become actual child exits
    mapped back to ``UNDEF`` results, and a passed ``fault_state`` is
    mutated in place (deaths, cursors, tallies) exactly as the threaded
    engine would, even when the run raises.  ``spawn_hook(procs, meta)``
    is called once the children are forked and before any of them runs
    (they park on the arena's start gate until it returns) — the chaos
    harness uses it to SIGKILL real ranks at spawn or, from a timer it
    arms, mid-run.  ``hb_timeout`` bounds how long a
    runnable rank may go silent before the watchdog raises a typed
    :class:`~repro.parallel.errors.ProcessIncidentError`.

    Degrades to :func:`threaded_spmd_run` — with one logged notice, never
    an error — when the platform lacks ``fork``/``shared_memory``, on
    single-core hosts (processes only time-slice there; force with
    ``REPRO_PARALLEL_FORCE=1``), when ``len(inputs)`` exceeds the
    oversubscription cap (see :func:`process_fallback_reason`), or when
    no shared arena can be set up.  Anything the run itself raises —
    a fault plan's ``FaultTimeoutError`` included — is raised.
    """
    p = len(inputs)
    if p == 0:
        raise ValueError("cannot run an empty machine")
    if params is None:
        params = MachineParams(p=p, ts=0.0, tw=0.0, m=1)

    ladder = Ladder()
    arena = None
    if ladder.gate(p) == "process":
        arena = open_arena(ladder, p, params, slot_bytes=slot_bytes,
                           slots=slots)
    if arena is None:
        from repro.mpi.threaded import threaded_spmd_run

        return threaded_spmd_run(program, inputs, params, faults=faults,
                                 fault_state=fault_state,
                                 initial_clocks=initial_clocks)
    try:
        master = live_fault_state(faults, fault_state, p)
        rdv, states, values = _run_generation(
            arena, params, program, inputs, hb_timeout, spawn_hook,
            {"stage": None, "attempt": 1}, master, initial_clocks)
        return rdv.result(_rank_values(states, values), master)
    finally:
        arena.close()


class ProcessStageRunner:
    """Per-attempt process-backend lifecycle for the recovery supervisor.

    Owns one :class:`SharedArena` (from :func:`open_arena`) reused across
    every stage attempt of a supervised run.  Each :meth:`run_stage` call
    starts a fresh **arena epoch** (so stragglers of a killed previous
    attempt self-destruct),
    builds fresh lock/events (a SIGKILLed child may have died holding
    the old lock), opens the supervisor's fault state on the shared
    fault cells, forks one child per rank resuming the checkpointed
    clocks, and watches them — adopting the cells back into the fault
    state whether the attempt succeeds or raises.
    """

    def __init__(self, arena: SharedArena, params: MachineParams,
                 hb_timeout: float | None = None,
                 spawn_hook: Callable[[list, dict], None] | None = None) -> None:
        self.arena = arena
        self.params = params
        self.hb_timeout = hb_timeout
        self.spawn_hook = spawn_hook

    def run_stage(self, stage, blocks: Sequence[Any],
                  clocks: Sequence[float], fstate,
                  stage_index: int, attempt: int, log=None) -> SimResult:
        """Execute one stage on real processes from checkpointed state."""
        from repro.machine.run import rank_program
        from repro.mpi.threaded import blocking

        epoch = self.arena.reset_for_epoch()
        if log is not None:
            log.emit("epoch_bump", stage=stage_index, attempt=attempt,
                     epoch=epoch)
        rdv, states, values = _run_generation(
            self.arena, self.params, blocking(rank_program([stage])), blocks,
            self.hb_timeout, self.spawn_hook,
            {"stage": stage_index, "attempt": attempt,
             "hosts": list(fstate.hosts)}, fstate, clocks)
        return rdv.result(_rank_values(states, values), fstate)

    def close(self) -> None:
        self.arena.close()


class ProcessJobRunner:
    """Serving-side process substrate: pooled arenas, batched jobs.

    The multi-tenant serving runtime (:mod:`repro.serving`) runs every
    job of its ``"process"`` substrate through one of these.  Two costs
    dominate small-job serving on real processes — shared-memory segment
    creation and forking — and the runner amortizes both:

    * **arena reuse** — segments come from a shared
      :class:`~repro.parallel.shm.ArenaPool`; each :meth:`run_jobs` call
      acquires a compatible arena in a *fresh epoch* (stragglers of a
      previous job's killed attempt self-destruct the moment a tick
      observes the bump, so no state — and no tenant's data — ever leaks
      between jobs) and releases it afterwards;
    * **batching** — ``run_jobs`` executes a whole list of jobs sharing
      ``(p, params)`` in **one fork generation**: every rank process
      drives the jobs back-to-back over the same rendezvous, so the fork
      cost is paid once per batch, not once per job.

    Robustness mirrors the supervised stage runner: the PR 7 heartbeat
    watchdog and epoch fencing guard every batch; a SIGKILLed or hung
    child surfaces as a typed :class:`~repro.parallel.errors.\
ProcessIncidentError` (after the remaining children of the attempt are
    killed); an optional wall-clock ``deadline`` arms a timer that kills
    the attempt and raises :class:`~repro.parallel.errors.\
WorkerDeadlineError`.  On any failure the whole batch is abandoned — the
    serving worker retries the jobs individually, which is what isolates
    a poison job from its batch-mates.
    """

    def __init__(self, pool, ladder: Ladder, hb_timeout: float | None = None,
                 spawn_hook: Callable[[list, dict], None] | None = None) -> None:
        self.pool = pool
        self.ladder = ladder
        self.hb_timeout = hb_timeout
        self.spawn_hook = spawn_hook

    def run_jobs(self, entries: Sequence[tuple], params: MachineParams,
                 deadline: float | None = None,
                 meta: dict | None = None) -> list[tuple] | None:
        """Run ``entries`` (a batch of ``(program, inputs)``) to completion.

        All entries must agree on ``len(inputs)``; returns one per-rank
        value tuple per entry, in order — or ``None`` when no arena could
        be set up and ``ladder`` stepped below the process engine.
        ``deadline`` is an absolute ``time.monotonic()`` instant.
        ``meta`` is forwarded to the ``spawn_hook`` (the chaos harness
        samples kill offsets from it).
        """
        from repro.machine.run import rank_program

        if not entries:
            return []
        p = len(entries[0][1])
        if any(len(inputs) != p for _prog, inputs in entries):
            raise ValueError("batched jobs must agree on the rank count")
        rank_fns = [rank_program(prog.stages) for prog, _inputs in entries]

        def batch(comm, xs: Any) -> Any:
            c = comm._ctx
            return [c.drive(fn(c, x)) for fn, x in zip(rank_fns, xs)]

        binputs = [tuple(inputs[rank] for _prog, inputs in entries)
                   for rank in range(p)]
        arena = open_arena(self.ladder, p, params, pool=self.pool)
        if arena is None:
            return None
        try:
            _rdv, states, values = _run_generation(
                arena, params, batch, binputs, self.hb_timeout,
                self.spawn_hook, {"jobs": len(entries), **(meta or {})},
                deadline=deadline)
            values = _rank_values(states, values)
            # transpose per-rank job lists into per-job rank tuples
            return [tuple(values[rank][j] for rank in range(p))
                    for j in range(len(entries))]
        finally:
            self.pool.release(arena)
