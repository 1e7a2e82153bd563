"""Process-per-rank shared-memory backend (repro.parallel).

Every test compares against the threaded engine — the backend's contract
is *bit-identical* observable behavior (values, simulated clocks, message
statistics) with payloads genuinely crossing address-space boundaries
through the shared-memory rings.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro.core.cost import MachineParams, pipeline_chunk_count
from repro.core.operators import ADD, BinOp, CONCAT, EW_ADD, MUL
from repro.faults import FaultPlan, FaultState, FaultSummary, LinkFault
from repro.machine.engine import DeadlockError
from repro.machine.hierarchical import TwoLevelParams
from repro.machine.run import simulate_program
from repro.mpi.threaded import threaded_spmd_run
from repro.parallel import process_fallback_reason, process_spmd_run
from repro.parallel.shm import SharedArena

needs_processes = pytest.mark.skipif(
    process_fallback_reason(4) is not None,
    reason=process_fallback_reason(4) or "",
)

PARAMS4 = MachineParams(p=4, ts=2.0, tw=0.5, m=1)


def both(program, inputs, params=None, **kw):
    """(process result, threaded result) with identical-clock assertion."""
    rp = process_spmd_run(program, inputs, params, **kw)
    rt = threaded_spmd_run(program, inputs, params, **kw)
    assert rp.stats.clocks == rt.stats.clocks
    assert rp.stats.messages == rt.stats.messages
    assert rp.stats.words == rt.stats.words
    assert rp.time == rt.time
    return rp, rt


@needs_processes
class TestCollectiveParity:
    def test_scan_reduce_bcast_pipeline(self):
        def program(comm, x):
            y = comm.scan(x, op=MUL)
            total = comm.reduce(y, op=ADD, root=0)
            return comm.bcast(total if comm.rank == 0 else None)

        rp, rt = both(program, [1, 2, 3, 4], PARAMS4)
        assert rp.values == rt.values == (33, 33, 33, 33)

    def test_allreduce_allgather_alltoall(self):
        def program(comm, x):
            s = comm.allreduce(x, op=ADD)
            g = comm.allgather(x * 10)
            t = comm.alltoall([x * 100 + i for i in range(comm.size)])
            return (s, tuple(g), tuple(t))

        rp, rt = both(program, [5, 6, 7, 8], PARAMS4)
        assert rp.values == rt.values

    def test_noncommutative_scan(self):
        def program(comm, x):
            return comm.scan(x, op=CONCAT)

        rp, rt = both(program, [(1,), (2,), (3,), (4,)], PARAMS4)
        assert rp.values == rt.values
        assert rp.values[3] == (1, 2, 3, 4)

    def test_scatter_gather_roundtrip(self):
        def program(comm, x):
            mine = comm.scatter(x if comm.rank == 0 else None, root=0)
            back = comm.gather(mine * 2, root=0)
            return tuple(back) if comm.rank == 0 else back

        inputs = [[10, 20, 30, 40], None, None, None]
        rp, rt = both(program, inputs, PARAMS4)
        assert rp.values == rt.values == ((20, 40, 60, 80), None, None, None)

    def test_point_to_point_and_barrier(self):
        def program(comm, x):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            got = comm.sendrecv(x, nxt) if comm.rank % 2 == 0 else None
            if comm.rank % 2 == 1:
                got = comm.sendrecv(x, prv)
            comm.barrier()
            return got

        rp, rt = both(program, [0, 1, 2, 3], PARAMS4)
        assert rp.values == rt.values

    def test_p1_degenerate(self):
        def program(comm, x):
            return comm.allreduce(x, op=ADD) + comm.scan(x, op=ADD)

        rp, rt = both(program, [21], MachineParams(p=1, ts=0.0, tw=0.0, m=1))
        assert rp.values == rt.values == (42,)

    def test_initial_clocks_respected(self):
        def program(comm, x):
            return comm.allreduce(x, op=ADD)

        clocks = [10.0, 0.0, 5.0, 0.0]
        rp, rt = both(program, [1, 2, 3, 4], PARAMS4, initial_clocks=clocks)
        assert rp.values == rt.values
        assert min(rp.stats.clocks) >= 10.0  # the straggler gates everyone


@needs_processes
class TestPayloadKinds:
    def test_array_payload_allreduce(self):
        vadd = BinOp("vadd", lambda a, b: a + b, commutative=True)

        def program(comm, x):
            return comm.allreduce(x, op=vadd)

        arrs = [np.arange(1000, dtype=np.int64) + r for r in range(4)]
        rp, rt = both(program, arrs, PARAMS4)
        for a, b in zip(rp.values, rt.values):
            assert np.array_equal(a, b)

    def test_empty_array_blocks(self):
        vadd = BinOp("vadd", lambda a, b: a + b, commutative=True)

        def program(comm, x):
            return comm.allreduce(x, op=vadd)

        arrs = [np.zeros(0, dtype=np.float64) for _ in range(4)]
        rp, rt = both(program, arrs, PARAMS4)
        for a, b in zip(rp.values, rt.values):
            assert a.shape == b.shape == (0,)

    def test_tuple_state_travels_packed(self):
        # op_sr2-style pair states: tuples of same-shape arrays travel as
        # one contiguous PackedBlock stream and unpack to views
        pair = BinOp("pair", lambda a, b: (a[0] + b[0], a[1] * b[1]),
                     commutative=True)

        def program(comm, x):
            return comm.allreduce(x, op=pair)

        inputs = [(np.full(64, r + 1.0), np.full(64, 1.0 + r / 10))
                  for r in range(4)]
        rp, rt = both(program, inputs, PARAMS4)
        for (a0, a1), (b0, b1) in zip(rp.values, rt.values):
            assert np.array_equal(a0, b0) and np.array_equal(a1, b1)

    def test_large_message_chunked_through_small_ring(self):
        # 1 MB messages through a 64 KiB ring: forces the chunk pipeline
        vadd = BinOp("vadd", lambda a, b: a + b, commutative=True)

        def program(comm, x):
            return comm.allreduce(x, op=vadd)

        arrs = [np.arange(1 << 17, dtype=np.int64) * (r + 1) for r in range(4)]
        rp = process_spmd_run(program, arrs, PARAMS4,
                              slot_bytes=1 << 14, slots=4)
        rt = threaded_spmd_run(program, arrs, PARAMS4)
        assert rp.stats.clocks == rt.stats.clocks
        for a, b in zip(rp.values, rt.values):
            assert np.array_equal(a, b)

    def test_object_payloads_cross_intact(self):
        def program(comm, x):
            return comm.allgather(x)

        inputs = [{"rank": 0}, (1, [2, 3]), "four", None]
        rp, rt = both(program, inputs, PARAMS4)
        assert rp.values == rt.values

    def test_undef_identity_preserved_across_processes(self):
        from repro.semantics.functional import UNDEF

        def program(comm, x):
            got = comm.allgather(x)
            # identity (not just equality) must survive the pickle hop
            return tuple(g is UNDEF for g in got)

        rp, _rt = both(program, [UNDEF, 1, UNDEF, 2], PARAMS4)
        assert rp.values[0] == (True, False, True, False)


@needs_processes
class TestFailureModes:
    def test_deadlock_detected(self):
        def program(comm, x):
            return comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError):
            process_spmd_run(program, [0, 1], MachineParams(p=2, ts=1, tw=0, m=1))

    def test_user_exception_propagates(self):
        def program(comm, x):
            if comm.rank == 1:
                raise ValueError("kaboom")
            return comm.recv(1)

        with pytest.raises(ValueError, match="kaboom"):
            process_spmd_run(program, [0, 1], MachineParams(p=2, ts=1, tw=0, m=1))

    def test_real_error_beats_secondary_deadlock(self):
        # rank 1 dies with a real error; rank 0's resulting deadlock is
        # secondary and must not mask it (same precedence as threaded)
        def program(comm, x):
            if comm.rank == 1:
                raise RuntimeError("root cause")
            return comm.recv(1)

        with pytest.raises(RuntimeError, match="root cause"):
            process_spmd_run(program, [0, 1, 2],
                             MachineParams(p=3, ts=1, tw=0, m=1))

    def test_empty_machine_rejected(self):
        with pytest.raises(ValueError):
            process_spmd_run(lambda comm, x: x, [])


class TestFallback:
    def test_oversubscription_cap_falls_back(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_PARALLEL_MAX_RANKS", "2")

        def program(comm, x):
            return comm.bcast(x if comm.rank == 0 else None)

        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            result = process_spmd_run(program, [7, None, None],
                                      MachineParams(p=3, ts=0, tw=0, m=1))
        assert result.values == (7, 7, 7)
        assert any("falling back to the threaded engine" in r.message
                   for r in caplog.records)

    def test_fault_plans_no_longer_fall_back(self, caplog):
        # fault injection used to be engine-local state; it now runs on
        # real processes through the shared-arena fault cells
        if process_fallback_reason(2) is not None:
            pytest.skip("process backend unavailable here")
        plan = FaultPlan(link_faults=(LinkFault(src=0, dst=1),))
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            result = process_spmd_run(lambda comm, x: comm.bcast(x), [7, None],
                                      MachineParams(p=2, ts=0, tw=0, m=1),
                                      faults=plan)
        assert result.values == (7, 7) and result.faults.retries == 1
        assert not caplog.records

    def test_a_dead_link_is_the_runs_own_error(self, monkeypatch, caplog):
        """A ``FaultTimeoutError`` is an ``OSError``; it used to be taken
        for a failed shared-memory set-up and the job rerun on threads.
        Only the arena's construction may demote the run."""
        if process_fallback_reason(2) is not None:
            pytest.skip("process backend unavailable here")
        import repro.mpi.threaded

        def no_rerun(*args, **kwargs):
            raise AssertionError("the run was repeated on the threaded engine")

        monkeypatch.setattr(repro.mpi.threaded, "threaded_spmd_run", no_rerun)
        from repro.core.stages import BcastStage, Program
        from repro.faults import FaultTimeoutError

        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", 0, None),))
        with caplog.at_level(logging.WARNING, logger="repro.parallel"), \
                pytest.raises(FaultTimeoutError) as exc_info:
            simulate_program(Program([BcastStage()]), [1, 2],
                             MachineParams(p=2, ts=1, tw=1, m=1),
                             engine="process", faults=plan)
        err = exc_info.value
        assert (err.src, err.dst) == (0, 1)
        assert type(err.words) is int and "(1 words)" in str(err)
        assert not caplog.records

    def test_single_core_host_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        reason = process_fallback_reason(2)
        assert reason is not None and "single-core" in reason

    def test_single_core_force_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert process_fallback_reason(2) is None

    def test_fallback_reason_none_when_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        monkeypatch.delenv("REPRO_PARALLEL_MAX_RANKS", raising=False)
        if hasattr(os, "fork"):
            assert process_fallback_reason(2) is None

    def test_env_cap_override_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MAX_RANKS", "64")
        if process_fallback_reason(1) is None:
            assert process_fallback_reason(32) is None


@needs_processes
class TestEngineSelection:
    def test_simulate_program_engine_process(self):
        from repro.core.stages import MapStage, Program, ReduceStage, ScanStage

        program = Program([
            MapStage(lambda v: 2 * v, label="dbl", ops_per_element=1),
            ScanStage(ADD),
            ReduceStage(ADD),
        ])
        inputs = [1, 2, 3, 4]
        rc = simulate_program(program, inputs, PARAMS4)
        rp = simulate_program(program, inputs, PARAMS4, engine="process")
        rt = simulate_program(program, inputs, PARAMS4, engine="threaded")
        assert rc.values == rp.values == rt.values
        assert rc.stats.clocks == rp.stats.clocks == rt.stats.clocks

    def test_unknown_engine_rejected(self):
        from repro.core.stages import Program, ScanStage

        with pytest.raises(ValueError, match="unknown engine"):
            simulate_program(Program([ScanStage(ADD)]), [1, 2], PARAMS4,
                             engine="quantum")

    def test_vectorized_process_run(self):
        from repro.core.stages import Program, ReduceStage, ScanStage

        program = Program([ScanStage(MUL), ReduceStage(ADD)])
        inputs = [1, 2, 1, 2]
        rc = simulate_program(program, inputs, PARAMS4)
        rp = simulate_program(program, inputs, PARAMS4, vectorize=True,
                              engine="process")
        assert rc.values == rp.values
        assert rc.stats.clocks == rp.stats.clocks

    def test_hierarchical_contention_domains(self):
        # Under NIC contention, WHICH inter-node pair pays the busy-domain
        # wait depends on match order — OS scheduling — in both engines, so
        # the clock vector is only determined up to the symmetry of the
        # program.  Values, message counts, and the multiset of clocks are
        # order-independent and must agree exactly.
        hp = TwoLevelParams(p=4, ts=5.0, tw=0.5, m=4, nodes=2, cores=2,
                            ts_intra=1.0, tw_intra=0.1)

        def program(comm, x):
            return comm.allgather(x)

        rp = process_spmd_run(program, [10, 20, 30, 40], hp)
        rt = threaded_spmd_run(program, [10, 20, 30, 40], hp)
        assert rp.values == rt.values
        assert sorted(rp.stats.clocks) == sorted(rt.stats.clocks)
        assert rp.stats.messages == rt.stats.messages
        assert rp.stats.words == rt.stats.words
        assert rp.time == rt.time


class TestArenaAndChunks:
    def test_chunk_count_matches_cost_model(self):
        params = MachineParams(p=4, ts=600.0, tw=2.0, m=1)
        n = pipeline_chunk_count(params, words=1 << 17, depth=2)
        assert n >= 2  # big message on a high-latency link: worth chunking
        cheap = MachineParams(p=4, ts=0.0, tw=2.0, m=1)
        assert pipeline_chunk_count(cheap, words=8.0, depth=2) >= 1

    @needs_processes
    def test_arena_lifecycle_and_failure_cells(self):
        arena = SharedArena(2, n_domains=1)
        try:
            arena.deliver_failure(0, RuntimeError("stored"))
            exc = arena.take_failure(0)
            assert isinstance(exc, RuntimeError) and "stored" in str(exc)
            assert int(arena.fail_len[0]) == 0
        finally:
            arena.close()

    @needs_processes
    def test_ring_roundtrip_in_one_process(self):
        arena = SharedArena(1, slot_bytes=1 << 12, slots=4)
        try:
            src = np.arange(5000, dtype=np.uint8).astype(np.uint8)
            writer = arena.write_stream(0, [src], src.nbytes, 1 << 12)
            dest = np.empty(src.nbytes, dtype=np.uint8)
            reader = arena.read_stream(0, 0, dest.data, src.nbytes, 1 << 12)
            while not (writer.done and reader.done):
                if not writer.done and writer.ready():
                    writer.step()
                if not reader.done and reader.ready():
                    reader.step()
            assert np.array_equal(src, dest)
        finally:
            arena.close()

    @needs_processes
    def test_fault_stores_open_on_cells_and_come_back(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", first=0,
                                                count=1),))
        state = FaultState(plan, 2)
        state.resolve(0, 1, 10.0)  # one drop, one retry, then delivered
        state.record_death(1, 4.5)
        arena = SharedArena(2)
        try:
            view = state.on_cells(arena.fault_cell)
            # seeded from the parent
            assert arena.fault_cell("next_msg")[0, 1] == 2
            assert arena.fault_cell("drops")[0, 1] == 1
            assert arena.fault_cell("died_at")[1] == 4.5
            # the view's writes land in the cells, not in the parent
            view.resolve(1, 0, 10.0)
            assert arena.fault_cell("next_msg")[1, 0] == 1
            assert state.next_msg[1, 0] == 0
            state.adopt(view)
            assert state.next_msg == {(0, 1): 2, (1, 0): 1}
            assert state.cursor() == (((0, 1), 2), ((1, 0), 1))
            assert all(type(n) is int for n in state.next_msg.values())
            assert type(state.died_at[1]) is float
            assert state.summary() == FaultSummary(
                deaths=((1, 4.5),), drops=(((0, 1), 1),), retries=1,
                extra_delay=state.extra_delay)
            # the view let go of the arrays: the segment can close
            arena.close()
        finally:
            arena.close()


@needs_processes
class TestStartGate:
    """Forked ranks park until ``spawn_hook`` has returned, so what a
    hook does to a child happens before that child has done anything."""

    P = 4
    BLOCKS = [[1, 2, 3, 4]] * 4

    @staticmethod
    def scan(comm, x):
        return comm.scan(x, op=EW_ADD)

    def generation(self, arena, hook):
        from repro.parallel.backend import _run_generation

        return _run_generation(arena, PARAMS4, self.scan, self.BLOCKS,
                               None, hook, {})

    def test_no_rank_moves_before_the_hook_returns(self):
        import time

        arena = SharedArena(self.P)
        seen = []

        def hook(procs, meta):
            # a p = 4 scan of a 4-element block is over in far less
            time.sleep(0.05)
            seen.append((arena.hb[:].tolist(),
                         arena.result_state[:].tolist()))

        try:
            _rdv, states, values = self.generation(arena, hook)
        finally:
            arena.close()
        assert seen == [([0] * self.P, [0] * self.P)]
        assert states == [1] * self.P
        assert values[-1] == [4, 8, 12, 16]

    def test_parked_ranks_of_a_stale_epoch_leave_without_a_trace(self):
        from repro.parallel.backend import _EXIT_STALE
        from repro.parallel.errors import WorkerCrashError

        arena = SharedArena(self.P)
        exits = []

        def hook(procs, meta):
            arena.epoch[0] += 1
            for proc in procs:
                proc.join(timeout=10.0)
            exits.extend(proc.exitcode for proc in procs)

        try:
            with pytest.raises(WorkerCrashError) as caught:
                self.generation(arena, hook)
            assert exits == [_EXIT_STALE] * self.P
            assert caught.value.exitcode == _EXIT_STALE
            assert not arena.hb.any() and not arena.result_state.any()
            assert not arena.waiting.any()
        finally:
            arena.close()
