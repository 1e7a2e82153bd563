"""Who owns a block's memory: the compiled folds' recycling pool.

``repro.kernels.blocks.BlockPool`` hands the JIT's fold closures their
block-sized output rows; a row's buffer returns to the pool when the
last array over it dies.  Under test: nothing a caller still holds is
ever recycled (slices, ``memoryview`` s, single rows, outputs fed back
as inputs, four threads at once), forked rank processes never write
through to the parent, small blocks stay ``np.empty``, retention
follows demand — and the cause the pool removes, the kernel zero-filling
every reply row, stays removed (a gate on minor page faults, not on the
clock).
"""

from __future__ import annotations

import gc
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD, FADD, MUL
from repro.core.optimizer import clear_planner_caches
from repro.core.stages import AllReduceStage, Program, ScanStage
from repro.jit import STATS, JitStats, clear_jit_cache, reset_stats, run_jit
from repro.jit.compiler import _BLOCKS
from repro.kernels import run_vectorized
from repro.kernels.blocks import _POOL_FLOOR, _POOL_WINDOW, BlockPool
from repro.kernels.messages import pack_block
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason

P = 8
#: the smallest pooled int64 block
SMALL = _POOL_FLOOR // 8
#: the fault gate's block: ``exec_block``'s, or CI's shrunk bench block
GATE_BLOCK = int(os.environ.get("REPRO_BENCH_JIT_BLOCK", "131072"))

SCAN_SCAN = Program([ScanStage(MUL), ScanStage(ADD)], name="scan;scan")


def _arrays(block, p=P, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, 4, block).astype(np.int64) for _ in range(p)]


def _params(block, p=P):
    return MachineParams(p=p, ts=10.0, tw=1.0, m=block)


def _simulate(block, seed=0, p=P, **kwargs):
    kwargs.setdefault("jit", True)
    return simulate_program(SCAN_SCAN, _arrays(block, p, seed),
                            _params(block, p), **kwargs)


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.fixture(autouse=True)
def _fresh():
    clear_jit_cache()
    reset_stats()
    yield
    clear_jit_cache()
    reset_stats()


class TestLifetime:
    def test_a_kept_slice_memoryview_or_row_is_never_recycled(self):
        res = _simulate(SMALL)
        piece = res.values[3][10:20]
        view = memoryview(res.values[5])
        row = res.values[7]
        want = piece.copy(), bytes(view), row.copy()
        del res
        for seed in range(1, 51):
            _simulate(SMALL, seed)
        assert STATS.pool_hits > 0  # the rows not kept did come back
        assert np.array_equal(piece, want[0])
        assert bytes(view) == want[1]
        assert np.array_equal(row, want[2])

    def test_outputs_fed_back_as_inputs(self):
        prog = Program([ScanStage(ADD)], name="scan")
        got = want = _arrays(SMALL, p=4)
        for _ in range(50):
            got = run_jit(prog, got, strict=True)
            want = prog.run(list(want))
            _same(got, want)
        assert STATS.pool_hits > 0 and not STATS.fallbacks

    def test_four_threads_each_get_their_own_reply(self):
        runs, failures = 200, []
        refs = {t: SCAN_SCAN.run(_arrays(SMALL, 4, seed=t)) for t in range(4)}

        def work(t):
            xs = _arrays(SMALL, 4, seed=t)
            try:
                for _ in range(runs):
                    _same(run_jit(SCAN_SCAN, xs, strict=True), refs[t])
            except Exception as exc:  # reported by the assert below
                failures.append((t, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not failures
        # every draw counted once, under the pool's lock
        assert STATS.pool_hits + STATS.pool_misses == 4 * runs * 2 * 4

    def test_a_buffer_dying_inside_a_collection_comes_back(self):
        # an array in a reference cycle dies whenever the collector runs —
        # possibly inside a draw, which is why giving back takes no lock
        pool = BlockPool(JitStats())
        block = pool.empty((SMALL,), np.int64)
        cycle = [block]
        cycle.append(cycle)
        del block, cycle
        gc.collect()
        pool.empty((SMALL,), np.int64)
        assert pool._stats.pool_hits == 1

    def test_pooled_components_still_pack(self):
        # kernels.messages looks at ``.base`` to spot an unpacked block;
        # a pooled block's base is its mapping
        pool = BlockPool(JitStats())
        parts = tuple(pool.empty((SMALL,), np.int64) for _ in range(2))
        for i, part in enumerate(parts):
            part[:] = i
        packed = pack_block(parts)
        assert np.array_equal(packed.buffer, np.stack(parts))


class TestEngines:
    def _primed(self):
        """The cooperative reference, its reply dropped: idle buffers."""
        ref = _simulate(SMALL, p=2)
        values = [v.copy() for v in ref.values]
        clocks, time = ref.stats.clocks, ref.time
        del ref
        _simulate(SMALL, seed=1, p=2)  # reuses them, and leaves its own
        assert STATS.pool_hits > 0 and STATS.pool_idle_bytes > 0
        return values, clocks, time

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_engines_agree_after_the_parent_pooled(self, engine):
        if engine == "process" and process_fallback_reason(2):
            pytest.skip(process_fallback_reason(2))
        values, clocks, time = self._primed()
        res = _simulate(SMALL, p=2, engine=engine)
        _same(res.values, values)
        assert (res.stats.clocks, res.time) == (clocks, time)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_a_forked_childs_writes_stay_in_the_child(self):
        stats = JitStats()
        pool = BlockPool(stats)
        block = pool.empty((SMALL,), np.int64)
        block[:] = 7
        del block  # idle, and inherited by the child below
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                mine = pool.empty((SMALL,), np.int64)
                mine[:] = 9
                code = 0 if stats.pool_hits == 1 else 3
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        again = pool.empty((SMALL,), np.int64)
        assert stats.pool_hits == 1  # the parent's own idle buffer
        assert (again == 7).all()


class TestSmallBlocks:
    @pytest.mark.parametrize("shape", [(), (0,), (SMALL - 1,)])
    def test_below_the_floor_is_np_empty(self, shape):
        pool = BlockPool(JitStats())
        block = pool.empty(shape, np.int64)
        assert block.base is None and block.flags.owndata
        assert block.shape == shape and block.dtype == np.int64
        assert pool._stats.pool_hits == pool._stats.pool_misses == 0

    @pytest.mark.parametrize("block", [None, 0, 17, SMALL - 1, SMALL])
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_every_size_and_dtype_equals_the_reference(self, block, kind):
        rng = np.random.default_rng(3)
        if kind == "int":
            prog = SCAN_SCAN
            xs = [rng.integers(1, 4, block) for _ in range(4)]
            xs = [np.asarray(x, dtype=np.int64) for x in xs]
        else:
            prog = Program([ScanStage(FADD), AllReduceStage(FADD)])
            xs = [np.asarray(rng.random(block)) for _ in range(4)]
        want = run_vectorized(prog, xs, strict=True)
        for _ in range(3):  # the third run writes recycled buffers
            _same(run_jit(prog, xs, strict=True), want)
        assert not STATS.fallbacks
        pooled = block == SMALL
        assert (STATS.pool_hits + STATS.pool_misses > 0) == pooled


class TestRetention:
    BIG = 131_072

    def test_idle_bytes_follow_recent_demand(self):
        footprint = 2 * P * self.BIG * 8  # two scans' rows
        _simulate(self.BIG)  # reply dropped
        assert STATS.pool_idle_bytes == footprint
        runs = 20
        assert runs * 2 * P > _POOL_WINDOW  # the big draws leave the window
        for seed in range(runs):
            _simulate(SMALL, seed)
        assert STATS.pool_idle_bytes == 2 * P * SMALL * 8 < footprint
        clear_planner_caches()
        assert STATS.pool_idle_bytes == 0
        misses = STATS.pool_misses
        _BLOCKS.empty((SMALL,), np.int64)
        assert STATS.pool_misses == misses + 1  # nothing was left to reuse

    def test_a_shelf_holds_no_more_than_the_window_drew(self):
        stats = JitStats()
        pool = BlockPool(stats)
        size = SMALL * 8
        held = [pool.empty((SMALL,), np.int64) for _ in range(10)]
        for _ in range(_POOL_WINDOW - 4):  # one buffer, drawn and dropped
            pool.empty((2 * SMALL,), np.int64)
        del held
        pool.empty((2 * SMALL,), np.int64)
        # three of the ten draws are still in the window: seven are
        # unmapped (the double just dropped is idle too)
        assert stats.pool_idle_bytes == 3 * size + 2 * size
        for _ in range(3):
            pool.empty((2 * SMALL,), np.int64)
        assert stats.pool_idle_bytes == 2 * size  # no draw recalls `size`
        assert stats.pool_misses == 11


class TestFaultGate:
    def test_steady_state_runs_do_not_fault_their_rows_in(self):
        """The cause, not the clock: a compiled run's rows are recycled,
        so the kernel has no fresh pages to zero (HEAD before the pool:
        one fault per page of every row, ~4 000 a run at 131 072)."""
        resource = pytest.importorskip("resource")
        # below the floor the rows are np.empty and the gate tests nothing
        assert GATE_BLOCK * 8 >= _POOL_FLOOR
        who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
        xs, params = _arrays(GATE_BLOCK), _params(GATE_BLOCK)
        for _ in range(3):
            simulate_program(SCAN_SCAN, xs, params, jit=True)
        runs = 10
        misses = STATS.pool_misses
        before = resource.getrusage(who).ru_minflt
        for _ in range(runs):
            simulate_program(SCAN_SCAN, xs, params, jit=True)
        faults = (resource.getrusage(who).ru_minflt - before) / runs
        assert STATS.pool_misses == misses
        assert not STATS.fallbacks
        assert faults < 64, f"{faults:.0f} minor faults per run"
