"""Shared-memory layout and ring streaming for the process backend.

One :class:`SharedArena` holds everything the rank processes share:

* a **control block** of small per-rank arrays (pending action, virtual
  clock, liveness, transfer descriptors) plus global statistics and the
  contention-domain free times — the state the cross-process rendezvous
  matcher (:mod:`repro.parallel.backend`) mutates under one lock;
* one fixed-size **outbox ring** per rank through which all payload bytes
  move.  A ring is ``slots`` fixed-size chunk slots addressed by two
  monotonic sequence numbers (``wseq``/``rseq``); the sender copies (or,
  for arrays, streams directly out of the source buffer — no intermediate
  serialization) chunk ``i`` into slot ``i % slots`` once the reader has
  drained slot ``i - slots``, so arbitrarily large messages flow through
  a bounded arena with the sender's writes overlapping the receiver's
  reads — the wall-clock realization of the Lowery & Langou chunk
  pipeline whose chunk count :func:`repro.core.cost.pipeline_chunk_count`
  picks from the machine parameters;
* a per-rank **fail cell** where the rendezvous parks a pickled exception
  for a blocked rank it is waking with bad news (deadlock, dead peer).

Everything is created by the parent *before* forking, so the children
inherit the mappings (and the NumPy views over them) directly — there is
no name-based re-attach, no pickling of any program state, and the parent
remains the single owner responsible for ``close()``/``unlink()``.

Synchronization of the rings is by bounded spinning with exponential
micro-sleeps on the sequence counters (plain int64 stores; the x86 total
store order plus the interpreter's own synchronization make the data
writes visible before the published sequence number).  Spins carry a
generous watchdog so a lost peer turns into a diagnosed error, never a
silent hang.

The arena also carries the **liveness layer** the parent's watchdog
reads: a per-rank heartbeat counter (``hb``, beaten by every rank on
each primitive action and every ring-spin iteration via the ``tick``
hooks below) and an **epoch** generation counter.  Between supervision
attempts the parent calls :meth:`SharedArena.reset_for_epoch`, which
zeroes all control state and bumps the epoch; a straggler child from a
killed generation notices the mismatch on its next tick and exits
immediately, so a stale writer can never corrupt a respawned run.
The **start gate** (``go``) holds the epoch the parent has released:
forked ranks park until it equals theirs, which the parent arranges only
after its ``spawn_hook`` returned.  It is never reset — an older epoch's
value cannot equal a newer epoch.
The fault interpreter's stores (message cursors, death records, tallies)
live here too, one array per row of :data:`repro.faults.state.CELLS` —
see :meth:`SharedArena.fault_cell`.
"""

from __future__ import annotations

import pickle
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from repro.faults.state import cell_layout

__all__ = ["SharedArena", "ArenaPool", "RingTimeout",
           "DEFAULT_SLOT_BYTES", "DEFAULT_SLOTS"]

#: default chunk-slot size (bytes); one ring is ``slots * slot_bytes``
DEFAULT_SLOT_BYTES = 1 << 18
#: default number of chunk slots per ring (in-flight pipeline depth)
DEFAULT_SLOTS = 4
#: capacity of one per-rank fail cell (pickled exception)
FAIL_BYTES = 1 << 16
#: watchdog for ring spins (seconds); generous — only a lost peer hits it
SPIN_TIMEOUT = 300.0


class RingTimeout(RuntimeError):
    """A ring spin exceeded the watchdog (peer lost without notice)."""


def _spin(cond, what: str, timeout: float = SPIN_TIMEOUT, tick=None) -> None:
    """Spin until ``cond()`` with exponential micro-sleep backoff.

    ``tick`` (optional) is invoked once per iteration — the liveness
    hook: a child beats its heartbeat and checks the arena epoch, the
    parent checks whether the peer process is still alive.  A tick may
    raise to abort the spin with a typed, diagnosed error instead of
    waiting out the full watchdog.
    """
    delay = 0.0
    deadline = time.monotonic() + timeout
    while not cond():
        if tick is not None:
            tick()
        if time.monotonic() > deadline:
            raise RingTimeout(f"shared-memory ring stalled: {what}")
        time.sleep(delay)
        delay = min(delay * 2 or 1e-6, 5e-4)


class SharedArena:
    """All shared state of one process-backend run (created pre-fork)."""

    def __init__(self, p: int, n_domains: int = 0,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 slots: int = DEFAULT_SLOTS) -> None:
        self.p = p
        self.slot_bytes = int(slot_bytes)
        self.slots = int(slots)
        self.ring_bytes = self.slot_bytes * self.slots

        i64, f64 = np.dtype(np.int64), np.dtype(np.float64)
        fields = [
            # -- rendezvous store (machine.rendezvous storage primitives) ---
            ("kind", i64, p),        # 0 none, 1 send, 2 recv, 3 sendrecv
            ("partner", i64, p),
            ("words", f64, p),
            ("waiting", i64, p),
            ("alive", i64, p),
            ("clock", f64, p),
            # -- transfer descriptors set by the matcher -------------------
            ("xfer_out", i64, p),    # stream my outbox to this rank (-1 none)
            ("xfer_in", i64, p),     # consume this rank's outbox (-1 none)
            ("xfer_base", i64, p),   # my incoming stream starts at this wseq
            # -- outbox metadata (payload descriptor) ----------------------
            ("meta_kind", i64, p),   # payload.Kind of the staged message
            ("meta_nbytes", i64, p),
            ("meta_k", i64, p),
            ("meta_ndim", i64, p),
            ("meta_shape", i64, (p, 8)),
            ("meta_dtype", np.dtype(np.uint8), (p, 16)),
            # -- incoming metadata, pinned by the matcher under the lock ----
            # (the sender may re-stage its outbox meta for its *next* send
            # the moment it wakes; the matcher copies the descriptor to the
            # receiver's incoming slot at match time so it stays stable)
            ("in_kind", i64, p),
            ("in_nbytes", i64, p),
            ("in_k", i64, p),
            ("in_ndim", i64, p),
            ("in_shape", i64, (p, 8)),
            ("in_dtype", np.dtype(np.uint8), (p, 16)),
            # -- ring sequence numbers -------------------------------------
            ("wseq", i64, p),
            ("rseq", i64, p),
            # -- failure delivery and result handshake ---------------------
            ("fail_len", i64, p),
            ("result_state", i64, p),  # 0 pending, 1 value, 2 error
            ("result_base", i64, p),
            # -- global statistics and contention domains ------------------
            ("messages", i64, 1),
            ("stat_words", f64, 1),
            ("compute_ops", f64, 1),
            ("domain_free", f64, max(n_domains, 1)),
            # -- liveness layer (parent watchdog) --------------------------
            ("epoch", i64, 1),       # arena generation; bumped per attempt
            ("go", i64, 1),          # start gate: the epoch released to run
            ("hb", i64, p),          # per-rank heartbeat counters
            # -- the fault interpreter's stores (repro.faults.state.CELLS) --
            *((f"fault_{name}", np.dtype(dtype), shape)
              for name, dtype, shape in cell_layout(p)),
        ]
        offset = 0
        layout = []
        for name, dtype, shape in fields:
            count = int(np.prod(shape))
            offset = -(-offset // dtype.itemsize) * dtype.itemsize  # align
            layout.append((name, dtype, shape, offset))
            offset += count * dtype.itemsize
        ctrl_bytes = offset
        self._fail_off = ctrl_bytes
        self._ring_off = ctrl_bytes + p * FAIL_BYTES
        total = self._ring_off + p * self.ring_bytes

        self._shm = shared_memory.SharedMemory(create=True, size=total)
        buf = self._shm.buf
        for name, dtype, shape, off in layout:
            count = int(np.prod(shape))
            arr = np.frombuffer(buf, dtype=dtype, count=count,
                                offset=off).reshape(shape)
            setattr(self, name, arr)
        self.kind[:] = 0
        self.partner[:] = -1
        self.alive[:] = 1
        self.xfer_out[:] = -1
        self.xfer_in[:] = -1
        self.go[0] = -1  # no epoch released yet (epochs count up from 0)
        self._fail_views = [
            np.frombuffer(buf, dtype=np.uint8, count=FAIL_BYTES,
                          offset=self._fail_off + r * FAIL_BYTES)
            for r in range(p)
        ]
        self._ring_views = [
            np.frombuffer(buf, dtype=np.uint8, count=self.ring_bytes,
                          offset=self._ring_off + r * self.ring_bytes)
            for r in range(p)
        ]

    # -- lifecycle (parent only) -------------------------------------------

    def reset_for_epoch(self) -> int:
        """Zero all control state and start a fresh arena generation.

        Called by the parent between supervision attempts, strictly
        *after* every child of the previous generation has been killed
        and joined.  Returns the new epoch number; children of the new
        generation are told it at fork time and ``os._exit`` the moment
        a tick observes a mismatch, so a straggler from a dead epoch can
        never publish into a live one.  Fault-interpreter cells are not
        touched here — :meth:`FaultState.on_cells
        <repro.faults.state.FaultState.on_cells>` re-seeds them from the
        parent's fault state per attempt.
        """
        self.kind[:] = 0
        self.partner[:] = -1
        self.words[:] = 0.0
        self.waiting[:] = 0
        self.alive[:] = 1
        self.clock[:] = 0.0
        self.xfer_out[:] = -1
        self.xfer_in[:] = -1
        self.xfer_base[:] = 0
        for name in ("meta_kind", "meta_nbytes", "meta_k", "meta_ndim",
                     "meta_shape", "meta_dtype", "in_kind", "in_nbytes",
                     "in_k", "in_ndim", "in_shape", "in_dtype"):
            getattr(self, name)[:] = 0
        self.wseq[:] = 0
        self.rseq[:] = 0
        self.fail_len[:] = 0
        self.result_state[:] = 0
        self.result_base[:] = 0
        self.messages[:] = 0
        self.stat_words[:] = 0.0
        self.compute_ops[:] = 0.0
        self.domain_free[:] = 0.0
        self.hb[:] = 0
        self.epoch[0] += 1
        return int(self.epoch[0])

    def close(self) -> None:
        """Release the mapping and unlink the segment (parent; idempotent)."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        # drop every numpy view first: SharedMemory.close() refuses while
        # exported buffers are alive
        for name in list(self.__dict__):
            if isinstance(self.__dict__[name], np.ndarray):
                del self.__dict__[name]
        self._fail_views = []
        self._ring_views = []
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - best effort
            pass

    def fault_cell(self, name: str) -> np.ndarray:
        """The array holding the fault store ``name``
        (:data:`repro.faults.state.CELLS`)."""
        return getattr(self, f"fault_{name}")

    # -- failure delivery ----------------------------------------------------

    def deliver_failure(self, rank: int, exc: BaseException) -> None:
        """Park a pickled exception for ``rank`` (rendezvous lock held)."""
        try:
            blob = pickle.dumps(exc)
        except Exception:  # pragma: no cover - unpicklable exception detail
            blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        if len(blob) > FAIL_BYTES:  # pragma: no cover - forensics too large
            blob = pickle.dumps(RuntimeError(
                f"{type(exc).__name__} (detail truncated)"))
        cell = self._fail_views[rank]
        cell[: len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        self.fail_len[rank] = len(blob)

    def take_failure(self, rank: int) -> BaseException:
        """Read and clear the pickled exception parked for ``rank``."""
        n = int(self.fail_len[rank])
        blob = bytes(self._fail_views[rank][:n])
        self.fail_len[rank] = 0
        return pickle.loads(blob)

    # -- ring streaming ------------------------------------------------------

    def chunk_layout(self, nbytes: int, chunk_bytes: int) -> tuple[int, int]:
        """(chunk size, chunk count) actually used on the wire."""
        chunk = max(1, min(int(chunk_bytes), self.slot_bytes))
        count = max(1, -(-nbytes // chunk)) if nbytes else 1
        return chunk, count

    def write_stream(self, rank: int, buffers, nbytes: int,
                     chunk_bytes: int) -> "_Writer":
        """An incremental writer streaming ``buffers`` into my outbox."""
        return _Writer(self, rank, buffers, nbytes, chunk_bytes)

    def read_stream(self, src: int, base: int, dest: memoryview, nbytes: int,
                    chunk_bytes: int) -> "_Reader":
        """An incremental reader draining ``src``'s outbox into ``dest``."""
        return _Reader(self, src, base, dest, nbytes, chunk_bytes)


class _Writer:
    """Chunk-at-a-time producer onto one rank's outbox ring."""

    def __init__(self, arena: SharedArena, rank: int, buffers, nbytes: int,
                 chunk_bytes: int) -> None:
        self.arena = arena
        self.rank = rank
        self.chunk, self.count = arena.chunk_layout(nbytes, chunk_bytes)
        self.nbytes = nbytes
        # flatten the source buffers into one virtual byte sequence
        self._bufs = [np.frombuffer(b, dtype=np.uint8) for b in buffers]
        self._buf_idx = 0
        self._buf_off = 0
        self._sent = 0
        self.done = nbytes == 0

    def ready(self) -> bool:
        a = self.arena
        return int(a.wseq[self.rank]) - int(a.rseq[self.rank]) < a.slots

    def step(self) -> None:
        """Write the next chunk (caller checked :meth:`ready`)."""
        a, r = self.arena, self.rank
        seq = int(a.wseq[r])
        slot = a._ring_views[r][(seq % a.slots) * a.slot_bytes:]
        want = min(self.chunk, self.nbytes - self._sent)
        filled = 0
        while filled < want:
            src = self._bufs[self._buf_idx]
            take = min(len(src) - self._buf_off, want - filled)
            slot[filled: filled + take] = src[self._buf_off:
                                             self._buf_off + take]
            filled += take
            self._buf_off += take
            if self._buf_off == len(src):
                self._buf_idx += 1
                self._buf_off = 0
        self._sent += filled
        a.wseq[r] = seq + 1  # publish after the slot bytes are in place
        if self._sent >= self.nbytes:
            self.done = True

    def run(self, tick=None) -> None:
        while not self.done:
            _spin(self.ready, f"rank {self.rank} outbox full", tick=tick)
            self.step()


class _Reader:
    """Chunk-at-a-time consumer of one rank's outbox ring."""

    def __init__(self, arena: SharedArena, src: int, base: int,
                 dest: memoryview, nbytes: int, chunk_bytes: int) -> None:
        self.arena = arena
        self.src = src
        self.chunk, self.count = arena.chunk_layout(nbytes, chunk_bytes)
        self.nbytes = nbytes
        self._dest = np.frombuffer(dest, dtype=np.uint8) if nbytes else None
        self._next = base
        self._got = 0
        self.done = nbytes == 0

    def ready(self) -> bool:
        a = self.arena
        # my chunk is published and every earlier consumer has drained up
        # to it (rseq hand-off keeps concurrent readers strictly ordered)
        return int(a.wseq[self.src]) > self._next \
            and int(a.rseq[self.src]) == self._next

    def step(self) -> None:
        a, s = self.arena, self.src
        slot = a._ring_views[s][(self._next % a.slots) * a.slot_bytes:]
        take = min(self.chunk, self.nbytes - self._got)
        self._dest[self._got: self._got + take] = slot[:take]
        self._got += take
        a.rseq[s] = self._next + 1  # free the slot for the writer
        self._next += 1
        if self._got >= self.nbytes:
            self.done = True

    def run(self, tick=None) -> None:
        while not self.done:
            _spin(self.ready, f"rank {self.src} outbox empty", tick=tick)
            self.step()


class ArenaPool:
    """Reuse :class:`SharedArena` segments across serving jobs.

    Creating a shared-memory segment is a syscall-heavy operation (shm
    create + map + unlink on close); a serving worker running thousands
    of small jobs must not pay it per job.  The pool keeps closed-over
    arenas keyed by their physical signature ``(p, n_domains, slot_bytes,
    slots)``: :meth:`acquire` hands back a compatible arena (after
    :meth:`SharedArena.reset_for_epoch`, so stragglers of the previous
    job's generation self-destruct and no state leaks between jobs or
    tenants) or creates one; :meth:`release` returns it for the next job.

    ``n_domains`` participates in the key via a *capacity* match — an
    arena allocated for ``d`` contention domains serves any job needing
    ``<= d`` (the rendezvous indexes only the first ``d'`` entries and
    ``reset_for_epoch`` zeroes them all), so machines with differing
    hierarchical shapes still share segments.

    Thread-safe: serving workers may share one pool.  ``max_idle`` bounds
    how many arenas idle per key (excess ones are closed eagerly —
    shared-memory is a bounded host resource).
    """

    def __init__(self, max_idle: int = 2,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 slots: int = DEFAULT_SLOTS) -> None:
        self.max_idle = max(1, int(max_idle))
        self.slot_bytes = int(slot_bytes)
        self.slots = int(slots)
        self._lock = threading.Lock()
        self._idle: dict[tuple[int, int], list[SharedArena]] = {}
        self._closed = False
        self.created = 0
        self.reused = 0

    def _key(self, p: int, n_domains: int) -> tuple[int, int]:
        # round the domain capacity up to a small set of size classes so
        # near-miss machines share arenas instead of fragmenting the pool
        cap = 1
        while cap < max(n_domains, 1):
            cap *= 2
        return (p, cap)

    def acquire(self, p: int, n_domains: int = 0) -> SharedArena:
        """A fresh-epoch arena for a ``p``-rank job (reused when possible)."""
        key = self._key(p, n_domains)
        with self._lock:
            if self._closed:
                raise RuntimeError("arena pool is closed")
            idle = self._idle.get(key)
            if idle:
                arena = idle.pop()
                self.reused += 1
                arena.reset_for_epoch()
                return arena
        arena = SharedArena(p, n_domains=key[1], slot_bytes=self.slot_bytes,
                            slots=self.slots)
        arena._pool_key = key
        with self._lock:
            self.created += 1
        return arena

    def release(self, arena: SharedArena) -> None:
        """Return ``arena`` to the pool (closed if the pool is full/closed)."""
        key = getattr(arena, "_pool_key", None)
        with self._lock:
            if not self._closed and key is not None:
                idle = self._idle.setdefault(key, [])
                if len(idle) < self.max_idle:
                    idle.append(arena)
                    return
        arena.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "created": self.created,
                "reused": self.reused,
                "idle": sum(len(v) for v in self._idle.values()),
            }

    def close(self) -> None:
        """Unlink every pooled segment (idempotent; pool unusable after)."""
        with self._lock:
            self._closed = True
            arenas = [a for idle in self._idle.values() for a in idle]
            self._idle.clear()
        for arena in arenas:
            arena.close()


def duplex(writer: _Writer, reader: _Reader, tick=None) -> None:
    """Drive a SendRecv's outgoing and incoming streams concurrently.

    Strict alternation would deadlock once both directions exceed the
    ring capacity with both sides blocked writing; interleaving any ready
    step keeps both pipelines moving.
    """
    delay = 0.0
    deadline = time.monotonic() + SPIN_TIMEOUT
    while not (writer.done and reader.done):
        progressed = False
        if not writer.done and writer.ready():
            writer.step()
            progressed = True
        if not reader.done and reader.ready():
            reader.step()
            progressed = True
        if progressed:
            delay = 0.0
            deadline = time.monotonic() + SPIN_TIMEOUT
            continue
        if tick is not None:
            tick()
        if time.monotonic() > deadline:
            raise RingTimeout("duplex exchange stalled")
        time.sleep(delay)
        delay = min(delay * 2 or 1e-6, 5e-4)
