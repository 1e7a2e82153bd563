"""Optimizer caches under thread contention: the serving-tier hammer.

The serving worker pool calls ``optimize`` from many threads at once,
which makes the process-global stores of the search core and the parser
(shape tables, kept rewrites, key pieces, interned stages, statement
store, the stages' cost stashes) and any shared :class:`PlanCache`
instance concurrency hot spots.  OrderedDicts corrupt silently under unlocked concurrent mutation
(lost entries, ``KeyError`` during ``move_to_end``, broken links), so
every store serializes mutations behind a lock (the stores' hits only
read).
These tests hammer each cache from 8 threads and assert nothing
corrupts, no exception escapes, and the results stay bit-identical to
single-threaded optimization.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MUL
from repro.core.optimizer import optimize
from repro.core.plancache import PlanCache
from repro.core.planner import cache_key, trace_of
from repro.core.rules import ALL_RULES, FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.core.store import clear_caches
from repro.semantics.functional import inc

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


def _shape_table_size(rules) -> list[int]:
    """The size of ``rules``' shape table, if a search has made it (read
    without a lock, as a search reads it)."""
    from repro.core import search as search_mod

    entry = search_mod._SHAPES.get(tuple(rules))
    return [] if entry is None else [len(entry[1])]


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
    exact plans (canonical rendering) single-threaded optimization does — the shared
    shape table and rewrite store never corrupt or cross-wire entries."""
    clear_caches()
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
    """clear_caches racing 8 optimizing threads: clears are a
    legal (if unhelpful) concurrent operation and must never corrupt
    the shape tables or the rewrite store or crash an optimize in flight.
    Both bounds are squeezed below the working set (a rule set's shape
    table takes the rewrite store's) so inserts evict under contention
    too, and neither store nor the shape table outgrows its bound."""
    from repro.core import search as search_mod

    stores = (search_mod._SHAPES, search_mod._REWRITES)
    for store in stores:
        monkeypatch.setattr(store, "bound", 6)
    clear_caches()
    expected = {prog.name: optimize(prog, PARAMS[0]).program.pretty()
                for prog in PROGRAMS}
    stop = threading.Event()
    sizes = []

    def work(tid):
        if tid == 0:
            while not stop.is_set():
                clear_caches()
                sizes.extend(map(len, stores))
                sizes.extend(_shape_table_size(ALL_RULES))
        else:
            try:
                for _ in range(ROUNDS):
                    for prog in PROGRAMS:
                        res = optimize(prog, PARAMS[0])
                        assert res.program.pretty() == expected[prog.name]
                        sizes.extend(map(len, stores))
                        sizes.extend(_shape_table_size(ALL_RULES))
            finally:
                if tid == 1:
                    stop.set()

    _hammer(work)
    assert max(sizes) <= 6
    clear_caches()


def test_cost_stash_hammer_keeps_its_bound_and_its_costs():
    """8 threads cost one stage object, each on 100 machines of its own,
    each machine brought by two equal-valued objects, under a shortened
    switch interval: every search's cost is ``stage_cost`` bit for bit,
    no eviction raises, and the stage keeps at most ``_STASH_MACHINES``
    machines (800 were costed)."""
    import dataclasses
    import sys

    from repro.core import search as search_mod
    from repro.core.cost import stage_cost
    from repro.core.search import Search

    stage = ScanStage(ADD)
    machines = [[MachineParams(p=8, ts=float(100 * tid + k), tw=0.5, m=1)
                 for k in range(100)] for tid in range(THREADS)]
    wrong = []

    def work(tid):
        for params in machines[tid]:
            for copy in (params, dataclasses.replace(params)):
                search = Search(Program([stage]), copy, FULL_RULES)
                if search.root.costs != (stage_cost(stage, params),):
                    wrong.append(params)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(work)
    finally:
        sys.setswitchinterval(switch)
    assert not wrong
    stash = stage.__dict__["_search_costs"]
    assert 0 < len(stash) <= search_mod._STASH_MACHINES
    costed = {search_mod._machine_key(params): stage_cost(stage, params)
              for mine in machines for params in mine}
    assert all(cost == costed[key] for key, cost in stash.items())


#: statement bodies of the re-parsed texts: shared statements, so the
#: interned stages and the kept rewrites are shared across texts
BODIES = [
    "MPI_Scan (x, y, op_mul);\nMPI_Reduce (y, z, op_add);\n",
    "MPI_Scan (x, y, op_add);\nMPI_Scan (y, z, op_add);\nMPI_Bcast (z);\n",
    "MPI_Allreduce (x, y, op_add);\nMPI_Scan (y, z, op_mul);\n"
    "MPI_Scan (z, u, op_add);\n",
    "MPI_Bcast (x);\nMPI_Scan (x, y, op_mul);\nMPI_Scan (y, z, op_add);\n",
]
TEXT_ENV = {"op_add": ADD, "op_mul": MUL}
#: with machines off the powers of two, where a Local rule's rewrite
#: takes its general form
TEXT_PARAMS = PARAMS + [MachineParams(p=p, ts=600.0, tw=2.0, m=1)
                        for p in (3, 6)]


def test_interned_stages_and_kept_rewrites_with_concurrent_clears(
        monkeypatch):
    """Threads plan texts parsed afresh for every request (a new name
    each time, so every statement resolves through the interned-stage
    store and every search through the process-wide rewrite store) while
    another thread clears the stores.  Every plan equals the serial one
    (trace, ``cost_after``, plan-cache key), and no store outgrows its
    bound — squeezed below the working set, so puts evict under contention
    too."""
    from repro.core import search as search_mod
    from repro.lang import parse_program
    from repro.lang import parser as parser_mod

    stores = (search_mod._SHAPES, search_mod._REWRITES, search_mod._KEY_PARTS,
              parser_mod._STAGES, parser_mod._STATEMENTS)
    for k, store in enumerate(stores):
        monkeypatch.setattr(store, "bound", 3 + k)
    clear_caches()

    def plan(name, k, params):
        text = f"Program {name} (x);\n" + BODIES[k]
        program = parse_program(text).to_program(TEXT_ENV)
        result = optimize(program, params, FULL_RULES, strategy="beam")
        key = cache_key(program, params, FULL_RULES, "beam", False)
        return trace_of(result), result.cost_after, key

    expected = {(k, params): plan("serial", k, params)
                for k in range(len(BODIES)) for params in TEXT_PARAMS}
    stop = threading.Event()
    oversized = []

    def work(tid):
        if tid == 0:
            while not stop.is_set():
                clear_caches()
                oversized.extend(s for s in stores if len(s) > s.bound)
            return
        try:
            n = 0
            for _ in range(ROUNDS // 4):
                for k in range(len(BODIES)):
                    for params in TEXT_PARAMS:
                        n += 1
                        assert (plan(f"t{tid}_{n}", k, params)
                                == expected[k, params])
                        oversized.extend(
                            s for s in stores if len(s) > s.bound)
                        oversized.extend(  # the table takes _REWRITES'
                            n for n in _shape_table_size(FULL_RULES)
                            if n > search_mod._REWRITES.bound)
        finally:
            if tid == 1:
                stop.set()

    _hammer(work)
    assert not oversized
    clear_caches()


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
    from repro.machine.run import resident_run, simulate_program

    monkeypatch.setattr(machine_run._SCHEDULES, "bound", 4)
    clear_caches()
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
        clear_caches()
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
    programs = [Program([MapStage(inc, label="inc")] * (k % 5)
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


# -- one registry --------------------------------------------------------------

def _resident_sizes() -> dict[str, list[int]]:
    """Entries held by every live memo ``gc`` finds, by kind."""
    import gc

    from repro.core.store import BoundedStore
    from repro.kernels.blocks import BlockPool

    sizes = {"store": [], "plan cache": [], "block pool": []}
    for obj in gc.get_objects():
        if isinstance(obj, BoundedStore):
            sizes["store"].append(len(obj))
        elif isinstance(obj, PlanCache):
            sizes["plan cache"].append(len(obj._memory) + len(obj._resident))
        elif isinstance(obj, BlockPool):
            sizes["block pool"].append(sum(map(len, obj._shelves.values())))
    return sizes


def test_clear_caches_reaches_every_resident_memo():
    """One request through each memo's owner — parse and ``to_program``,
    a beam plan through a :class:`PlanCache`, ``compiled_program``,
    ``simulate_program(jit=True)``, a resident run and an exact tape
    built as a served hit builds it — then
    ``clear_caches()``: every store, plan-cache memory tier and block-pool
    shelf alive is empty.  A memo that does not list itself fails here."""
    import numpy as np

    from repro.core import search as search_mod
    from repro.jit import compiled_program
    from repro.jit import compiler as jit_compiler
    from repro.kernels.blocks import _POOL_FLOOR
    from repro.lang import parse_program
    from repro.lang import parser as parser_mod
    from repro.machine import run as machine_run
    from repro.machine.run import resident_run, simulate_program

    clear_caches()
    program = parse_program("Program reached (x);\n"
                            + BODIES[0]).to_program(TEXT_ENV)
    cache = PlanCache()
    optimize(program, PARAMS[-1], FULL_RULES, strategy="beam", cache=cache)
    optimize(program, PARAMS[-1], FULL_RULES, strategy="beam", cache=cache)
    block = _POOL_FLOOR // 8
    params = MachineParams(p=4, ts=10.0, tw=1.0, m=block)
    simulate_program(program, [np.full(block, 2, np.int64)] * 4, params,
                     jit=True)
    compiled = compiled_program(program)  # the one the run compiled
    resident_run(program, [1, 2, 3, 4], PARAMS[0],
                 lambda: program.run([1, 2, 3, 4]))
    jit_compiler.exact_verdict(program, [1, 2, 3, 4])
    [(_, shapes)] = search_mod._SHAPES.values()  # FULL_RULES' shape table
    for store in (parser_mod._PARSE_MEMO, parser_mod._STATEMENTS,
                  parser_mod._STAGES, search_mod._SHAPES, shapes,
                  search_mod._REWRITES,
                  search_mod._KEY_PARTS, jit_compiler._COMPILE_CACHE,
                  compiled._verdicts, compiled._tapes,
                  jit_compiler._EXACT_TAPES, machine_run._SCHEDULES):
        assert len(store), "the request missed a memo"
    assert cache.stats()["resident_entries"] == 1
    filled = _resident_sizes()
    assert all(map(any, filled.values())), filled

    clear_caches()
    left = {kind: [n for n in sizes if n]
            for kind, sizes in _resident_sizes().items()}
    assert not any(left.values()), left


def test_memos_built_during_concurrent_clears():
    """Threads compile fresh programs — each one builds two stores of its
    own, and registers them — while another thread clears every memo:
    no registration is lost to a clear's snapshot or breaks it."""
    import sys

    from repro.core.store import _RESIDENT
    from repro.jit import compiled_program

    clear_caches()
    stop = threading.Event()
    built = []

    def work(tid):
        if tid == 0:
            while not stop.is_set():
                clear_caches()
            return
        try:
            for k in range(ROUNDS):
                compiled = compiled_program(Program(
                    [MapStage(inc, label="inc"), ScanStage(ADD)],
                    name=f"t{tid}_{k}"))
                built.append(compiled)
                assert id(compiled._tapes) in _RESIDENT
                assert id(compiled._verdicts) in _RESIDENT
        finally:
            if tid == 1:
                stop.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _hammer(work)
    finally:
        sys.setswitchinterval(old)
    assert len(built) == (THREADS - 1) * ROUNDS
    clear_caches()
