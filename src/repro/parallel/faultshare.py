"""Shared-memory fault interpreter for the process backend.

:class:`ArenaFaultState` is a
:class:`~repro.recovery.state.SupervisedFaultState` whose mutable storage
— per-directed-link message cursors, death records, forensic tallies —
lives in :class:`~repro.parallel.shm.SharedArena` cells instead of Python
dicts.  Any rank process may perform a rendezvous match (matches happen
under the arena lock in whichever child arrives second), so the verdict
cursor it advances and the death it records must be visible to every
other address space immediately; plain int64/float64 stores under the
single rendezvous lock give exactly that.

The host mapping, quarantine set and the immutable plan stay ordinary
Python state: they only change between attempts, in the parent, and are
re-pickled into the children at fork time.

Lifecycle per supervision attempt::

    afs = ArenaFaultState.from_master(master, arena)   # parent, pre-fork
    ... fork children, run the attempt, join/kill ...
    afs.merge_into(master)                             # parent, post-join

``from_master`` seeds the arena cells from the parent's *master* state
(cursors and deaths are permanent across attempts; tallies start at zero
so each attempt records deltas), and ``merge_into`` folds the deltas
back.  The master stays a pure-Python state, so checkpoint cursors,
``reset_for_replay`` epochs and the final forensic summary keep the
exact semantics the threaded engine produces.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.faults.state import FaultState
from repro.parallel.shm import SharedArena
from repro.recovery.state import SupervisedFaultState

__all__ = ["ArenaFaultState"]


class ArenaFaultState(SupervisedFaultState):
    """Fault state whose mutable cells live in a shared arena."""

    def __init__(self, plan: FaultPlan, p: int, arena: SharedArena) -> None:
        super().__init__(plan, p)
        self._arena = arena

    @classmethod
    def from_master(cls, master: FaultState, arena: SharedArena,
                    p: int | None = None) -> "ArenaFaultState":
        """Seed an arena-backed view of ``master`` for one attempt.

        Permanent state (cursors, deaths) is copied in, and so are the
        per-pair extra-delay sums (each pair's running sum must see its
        charges in one order across stage attempts); the other tallies
        are zeroed so the attempt accumulates deltas for
        :meth:`merge_into`.
        """
        if p is None:
            p = getattr(master, "nphys", arena.p)
        state = cls(master.plan, p, arena)
        if isinstance(master, SupervisedFaultState):
            state.hosts = list(master.hosts)
            state.quarantined = set(master.quarantined)
        a = arena
        a.f_cursor[:] = 0
        for (x, y), n in master._msg_idx.items():
            a.f_cursor[x, y] = n
        a.f_drops[:] = 0
        a.f_timeouts[:] = 0
        a.f_retries[0] = 0
        a.f_dups[0] = 0
        a.f_rerouted[0] = 0
        a.f_extra[:] = 0.0
        for pair, extra in master._extra.items():
            a.f_extra[pair] = extra
        a.f_dead[:] = 0
        a.f_death_clock[:] = 0.0
        for rank, clock in master.dead.items():
            a.f_dead[rank] = 1
            a.f_death_clock[rank] = clock
        a.f_dead_virtual[:] = 0
        for v in getattr(master, "_dead_virtual", ()):
            a.f_dead_virtual[v] = 1
        return state

    def merge_into(self, master: FaultState) -> None:
        """Fold this attempt's outcome back into the parent's master state.

        Cursors, deaths and per-pair extra-delay sums overwrite (they
        are absolute); the other tallies add (they are per-attempt
        deltas, zeroed by :meth:`from_master`, so replay attempts never
        double-count).
        """
        a = self._arena
        p = a.p
        for x in range(p):
            for y in range(p):
                n = int(a.f_cursor[x, y])
                if n:
                    master._msg_idx[(x, y)] = n
        for r in range(p):
            if a.f_dead[r]:
                master.dead.setdefault(r, float(a.f_death_clock[r]))
        if isinstance(master, SupervisedFaultState):
            for v in range(p):
                if a.f_dead_virtual[v]:
                    master._dead_virtual.add(v)
        for x in range(p):
            for y in range(p):
                n = int(a.f_drops[x, y])
                if n:
                    master.drops[(x, y)] += n
                t = int(a.f_timeouts[x, y])
                if t:
                    master.timeouts.extend([(x, y)] * t)
                extra = float(a.f_extra[x, y])
                if extra:
                    master._extra[(x, y)] = extra
        master.retries += int(a.f_retries[0])
        master.duplicates += int(a.f_dups[0])
        master.rerouted += int(a.f_rerouted[0])

    # -- storage primitives on arena cells -----------------------------------
    # All callers hold the single rendezvous lock, so plain read-modify-
    # write on the shared arrays is race-free.

    def _advance_cursor(self, link: tuple[int, int]) -> int:
        a = self._arena
        n = int(a.f_cursor[link])
        a.f_cursor[link] = n + 1
        return n

    def _note_drop(self, link: tuple[int, int]) -> None:
        self._arena.f_drops[link] += 1

    def _note_timeout(self, link: tuple[int, int]) -> None:
        self._arena.f_timeouts[link] += 1

    def _note_retry(self) -> None:
        self._arena.f_retries[0] += 1

    def _note_dup(self) -> None:
        self._arena.f_dups[0] += 1

    def _note_reroute(self, n: int) -> None:
        self._arena.f_rerouted[0] += n

    def _charge_extra(self, pair: tuple[int, int], extra: float) -> None:
        self._arena.f_extra[pair] += extra

    def _host_dead(self, rank: int) -> bool:
        return bool(self._arena.f_dead[rank])

    def _host_death_clock(self, rank: int) -> float:
        return float(self._arena.f_death_clock[rank])

    def _record_host_death(self, rank: int, clock: float) -> None:
        a = self._arena
        if not a.f_dead[rank]:
            a.f_dead[rank] = 1
            a.f_death_clock[rank] = clock

    def _virt_dead(self, rank: int) -> bool:
        return bool(self._arena.f_dead_virtual[rank])

    def _record_virt_death(self, rank: int) -> None:
        self._arena.f_dead_virtual[rank] = 1
