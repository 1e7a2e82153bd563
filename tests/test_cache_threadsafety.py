"""Optimizer caches under thread contention: the serving-tier hammer.

The serving worker pool calls ``optimize`` from many threads at once,
which makes the process-global window-match memo and any shared
:class:`PlanCache` instance concurrency hot spots.  OrderedDicts
corrupt silently under unlocked concurrent mutation (lost entries,
``KeyError`` during ``move_to_end``, broken links), so both caches
serialize mutations behind a lock (the match memo's hits only read).
These tests hammer each cache from 8 threads and assert nothing
corrupts, no exception escapes, and the results stay bit-identical to
single-threaded optimization.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MUL
from repro.core.optimizer import clear_match_cache, optimize
from repro.core.plancache import PlanCache
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)

THREADS = 8
ROUNDS = 40

PARAMS = [MachineParams(p=p, ts=ts, tw=tw, m=1)
          for p in (2, 4, 8) for ts, tw in ((5.0, 0.5), (600.0, 2.0))]

PROGRAMS = [
    Program([ScanStage(ADD), ReduceStage(ADD)], name="scan-red"),
    Program([BcastStage(), ScanStage(ADD)], name="bcast-scan"),
    Program([MapStage(lambda x: x + 1.0, label="inc"),
             AllReduceStage(MUL)], name="map-allred"),
    Program([ScanStage(ADD), ScanStage(MUL)], name="scan-scan"),
]


def _fresh(prog):
    """A value-equal program made of new objects, as a front end that
    parses every request's text would bring."""
    return Program([dataclasses.replace(s) for s in prog.stages],
                   name=prog.name)


def _hammer(work, threads=THREADS):
    """Run ``work(tid)`` on ``threads`` threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def body(tid):
        try:
            barrier.wait(timeout=30.0)
            work(tid)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    ts = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in ts), "hammer thread hung"
    if errors:
        raise errors[0]


def test_match_cache_hammer_is_bit_identical():
    """8 threads optimizing the same corpus concurrently produce the
    exact plans (canonical rendering) single-threaded optimization does — the shared match
    LRU never corrupts or cross-wires entries."""
    clear_match_cache()
    expected = {(prog.name, params): optimize(prog, params).program.pretty()
                for prog in PROGRAMS for params in PARAMS}
    results: dict[int, dict] = {}

    def work(tid):
        mine = {}
        for round_no in range(ROUNDS):
            for prog in PROGRAMS:
                for params in PARAMS:
                    res = optimize(prog, params)
                    mine[(prog.name, params)] = res.program.pretty()
        results[tid] = mine

    _hammer(work)
    for tid in range(THREADS):
        assert results[tid] == expected, f"thread {tid} diverged"


def test_match_cache_hammer_with_concurrent_clears(monkeypatch):
    """clear_match_cache racing 8 optimizing threads: clears are a
    legal (if unhelpful) concurrent operation and must never corrupt
    the memo or crash an optimize in flight.  The bound is squeezed
    below the working set so inserts evict under contention too, and
    the memo never outgrows it."""
    from repro.core import search as search_mod

    monkeypatch.setattr(search_mod._MATCH_CACHE, "bound", 6)
    clear_match_cache()
    expected = {prog.name: optimize(prog, PARAMS[0]).program.pretty()
                for prog in PROGRAMS}
    stop = threading.Event()
    sizes = []

    def work(tid):
        if tid == 0:
            while not stop.is_set():
                clear_match_cache()
                sizes.append(len(search_mod._MATCH_CACHE))
        else:
            try:
                for _ in range(ROUNDS):
                    for prog in PROGRAMS:
                        res = optimize(prog, PARAMS[0])
                        assert res.program.pretty() == expected[prog.name]
                        sizes.append(len(search_mod._MATCH_CACHE))
            finally:
                if tid == 1:
                    stop.set()

    _hammer(work)
    assert max(sizes) <= 6
    clear_match_cache()


def test_plancache_hammer_counters_and_entries_consistent(tmp_path):
    """8 threads hitting one PlanCache: every get/put survives, the LRU
    length respects capacity, and hits + misses add up.  Odd threads
    bring a fresh value-equal program per request, so resident hits,
    replayed hits and puts (which rebind the record and so retire the
    resident plan) interleave on the same keys."""
    cache = PlanCache(tmp_path / "plans.json", capacity=16)
    params = PARAMS[0]
    expected = {prog.name: optimize(prog, params).program.pretty()
                for prog in PROGRAMS}

    def work(tid):
        for round_no in range(ROUNDS):
            for prog in PROGRAMS:
                mine = _fresh(prog) if tid % 2 else prog
                plan = cache.get(mine, params)
                if plan is None:
                    res = optimize(mine, params)
                    cache.put(mine, params, res)
                else:
                    assert plan.derivation.initial == mine
                    assert plan.program.pretty() == expected[prog.name]

    _hammer(work)
    stats = cache.stats()
    assert stats["memory_entries"] <= 16
    assert stats["resident_entries"] <= stats["memory_entries"]
    assert stats["hits"] + stats["misses"] == THREADS * ROUNDS * len(PROGRAMS)
    assert 0 < stats["resident_hits"] <= stats["hits"]
    # after the stampede settles, every program is served from cache
    for prog in PROGRAMS:
        assert cache.get(prog, params) is not None


def test_plancache_hammer_with_eviction_pressure(tmp_path):
    """Capacity far below the working set: constant eviction churn from
    8 threads must not corrupt the LRU's internal order — nor let the
    resident tier (odd threads bring fresh value-equal programs) serve a
    plan whose record was evicted, or outgrow the capacity."""
    cache = PlanCache(tmp_path / "plans.json", capacity=3)
    expected = {(prog.name, params): optimize(prog, params).program.pretty()
                for prog in PROGRAMS for params in PARAMS[:4]}

    def work(tid):
        for round_no in range(ROUNDS // 2):
            for prog in PROGRAMS:
                for params in PARAMS[:4]:
                    mine = _fresh(prog) if tid % 2 else prog
                    plan = cache.get(mine, params)
                    if plan is None:
                        cache.put(mine, params, optimize(mine, params))
                    else:
                        assert plan.params == params
                        assert (plan.program.pretty()
                                == expected[prog.name, params])
                    assert len(cache._resident) <= 3

    _hammer(work)
    stats = cache.stats()
    assert stats["memory_entries"] <= 3
    assert stats["resident_entries"] <= 3
    assert stats["evictions"] > 0  # the pressure was real


def test_resident_schedule_hammer_one_key_and_evictions(monkeypatch):
    """8 threads on one (program, machine, definedness), each with its
    own values, while another thread's stream of machines evicts under a
    squeezed bound: every result is a fresh engine run's, nobody's
    mutation of a returned result reaches anybody else, and the store
    never outgrows its bound.  The switch interval is shortened so
    lookups and inserts interleave mid-operation."""
    import sys

    from repro.machine import run as machine_run
    from repro.machine.run import (
        clear_resident_schedules,
        resident_run,
        simulate_program,
    )

    monkeypatch.setattr(machine_run._SCHEDULES, "bound", 4)
    clear_resident_schedules()
    prog = Program([ScanStage(ADD), ReduceStage(ADD), BcastStage()],
                   name="one-key")
    params = PARAMS[4]  # p = 8
    churn = [MachineParams(p=2, ts=float(k), tw=1.0, m=1) for k in range(12)]
    outcomes: dict[int, list] = {}
    sizes = []

    def work(tid):
        mine = outcomes.setdefault(tid, [])
        for round_no in range(ROUNDS * 4):
            if tid == 0:
                machine = churn[round_no % len(churn)]
                xs = [round_no, 1]
            else:
                machine = params
                xs = [tid * 100 + round_no + r for r in range(8)]
            ref = simulate_program(prog, xs, machine)
            got, outcome = resident_run(prog, xs, machine,
                                        lambda: prog.run(xs))
            assert outcome in ("hit", "miss")
            assert got.values == ref.values
            assert got.time == ref.time
            assert got.stats == ref.stats
            got.stats.events.clear()
            got.stats.timeline.append(tid)
            mine.append(outcome)
            sizes.append(len(machine_run._SCHEDULES))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _hammer(work)
    finally:
        sys.setswitchinterval(old)
        clear_resident_schedules()
    assert max(sizes) <= 4
    assert sum(o.count("hit") for o in outcomes.values()) > 0
    assert outcomes[0].count("miss") > len(churn)  # the churn evicted


def test_compile_cache_hammer_hits_and_evictions(monkeypatch):
    """8 threads compiling 40 programs through a compile cache squeezed
    to 8 entries: hits on one thread race evictions on another (the
    cache was an ``OrderedDict`` read without a lock and re-ordered by
    ``move_to_end`` on every hit — a ``KeyError`` whenever the key was
    evicted in between).  Every call returns a plan of its own program,
    and the store never outgrows its bound."""
    import sys

    from repro.jit import clear_jit_cache, compiled_program
    from repro.jit import compiler as jit_compiler

    monkeypatch.setattr(jit_compiler._COMPILE_CACHE, "bound", 8)
    clear_jit_cache()
    programs = [Program([MapStage(lambda x: x + 1, label="inc")] * (k % 5)
                        + [ScanStage(ADD if k % 2 else MUL)]
                        + [BcastStage()] * (k // 10), name=f"prog-{k}")
                for k in range(40)]
    assert len(set(programs)) == 40
    sizes = []

    def work(tid):
        for round_no in range(ROUNDS * 75):
            # eight sweeps out of phase: one thread's hit is on the entry
            # another's miss is about to evict
            k = (tid * 7 + round_no) % 40
            plan = compiled_program(programs[k])
            assert plan.plan.program.name == programs[k].name
            sizes.append(len(jit_compiler._COMPILE_CACHE))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _hammer(work)
    finally:
        sys.setswitchinterval(old)
        clear_jit_cache()
    assert max(sizes) <= 8
