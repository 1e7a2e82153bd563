"""Plan cache: round-trip, golden wire format, key stability, reset hooks.

Mirrors the ``faultplan_v1.json`` pattern: the golden file pins the
version-1 on-disk format of the plan store — if the serialization ever
changes shape, the golden test fails and ``PLANCACHE_JSON_VERSION`` must
be bumped with a migration path instead of silently orphaning deployed
plan stores.

Key stability is the cacheability contract: renaming bound variables
(map labels) and reordering commutative metadata (the rule set) must not
change the canonical signature, while changing the machine parameters,
strategy, or lossiness must.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MUL
from repro.core.optimizer import (
    clear_match_cache,
    clear_planner_caches,
    optimize,
)
from repro.core.plancache import PLANCACHE_JSON_VERSION, PlanCache, PlanRecord
from repro.core.planner import beam_optimize, cache_key, plan_signature
from repro.core.rules import ALL_RULES
from repro.core.stages import BcastStage, MapStage, Program, ScanStage

GOLDEN = pathlib.Path(__file__).parent / "data" / "plancache_v1.json"

#: the entry the golden file was written from (keep in sync with the file)
GOLDEN_KEY = "33a8b26659fbe29eb895a58a4db5be7772c42f3f4a2ecaf08a9f95efab275b05"
GOLDEN_PARAMS = MachineParams(p=4, ts=5.0, tw=0.5, m=1)


def golden_program() -> Program:
    return Program([BcastStage(), ScanStage(ADD), ScanStage(ADD),
                    ScanStage(MAX)], name="golden")


class TestRoundTrip:
    def test_memory_hit_is_bit_identical(self):
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        result = beam_optimize(prog, params, ALL_RULES)
        cache.put(prog, params, result, rules=ALL_RULES, strategy="beam")
        hit = cache.get(prog, params, rules=ALL_RULES, strategy="beam")
        assert hit is not None
        assert hit.program.pretty() == result.program.pretty()
        assert hit.cost_before == result.cost_before
        assert hit.cost_after == result.cost_after
        assert hit.derivation.describe() == result.derivation.describe()
        assert cache.stats()["hits"] == 1

    def test_disk_store_rewarms_a_fresh_cache(self, tmp_path):
        store = tmp_path / "plans.json"
        prog, params = golden_program(), GOLDEN_PARAMS
        result = beam_optimize(prog, params, ALL_RULES)
        PlanCache(path=store).put(prog, params, result,
                                  rules=ALL_RULES, strategy="beam")

        fresh = PlanCache(path=store)
        hit = fresh.get(prog, params, rules=ALL_RULES, strategy="beam")
        assert hit is not None
        assert hit.cost_after == result.cost_after
        assert hit.derivation.describe() == result.derivation.describe()
        assert fresh.stats() == {**fresh.stats(), "hits": 1, "misses": 0}

    def test_optimize_cache_path_round_trips(self):
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        cold = optimize(prog, params, strategy="beam", cache=cache)
        warm = optimize(prog, params, strategy="beam", cache=cache)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert warm.program.pretty() == cold.program.pretty()
        assert warm.cost_after == cold.cost_after
        assert warm.derivation.describe() == cold.derivation.describe()

    def test_stale_record_degrades_to_miss(self):
        """A corrupted trace is evicted and recounted, never served."""
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        result = beam_optimize(prog, params, ALL_RULES)
        record = cache.put(prog, params, result,
                           rules=ALL_RULES, strategy="beam")
        bad = PlanRecord(key=record.key, program_pretty=record.program_pretty,
                         strategy=record.strategy,
                         trace=(("SR2-Reduction", 0),),  # does not match here
                         cost_before=record.cost_before,
                         cost_after=record.cost_after,
                         programs_explored=record.programs_explored)
        cache._memory[record.key] = bad
        assert cache.get(prog, params, rules=ALL_RULES, strategy="beam") is None
        assert cache.stats()["replay_failures"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_is_counted(self):
        cache = PlanCache(capacity=1)
        params = GOLDEN_PARAMS
        a = golden_program()
        b = Program([ScanStage(MUL), ScanStage(ADD)])
        cache.put(a, params, beam_optimize(a, params, ALL_RULES))
        cache.put(b, params, beam_optimize(b, params, ALL_RULES))
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1

    def test_memory_only_cache_forgets_what_it_evicts(self):
        """Without a store path nothing outlives the LRU: an evicted plan
        misses (it used to be served from an unbounded shadow dict)."""
        cache = PlanCache(capacity=1)
        params = GOLDEN_PARAMS
        progs = [golden_program(), Program([ScanStage(MUL), ScanStage(ADD)]),
                 Program([BcastStage(), ScanStage(ADD)])]
        for prog in progs:
            cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["disk_entries"] == 0
        assert stats["stored"] == stats["memory_entries"] == len(cache) == 1
        assert "1 stored plan(s)" in cache.describe()
        assert cache.get(progs[0], params) is None  # evicted means gone
        assert cache.get(progs[2], params) is not None
        assert cache.stats()["misses"] == 1

    def test_key_is_derived_once_per_missed_optimize(self, monkeypatch):
        from repro.core import plancache as plancache_mod

        calls = []
        real = plancache_mod.cache_key
        monkeypatch.setattr(plancache_mod, "cache_key",
                            lambda *a: calls.append(a) or real(*a))
        cache = PlanCache()
        prog = golden_program()
        optimize(prog, GOLDEN_PARAMS, rules=ALL_RULES, strategy="beam",
                 cache=cache)  # a miss: get, search, put
        assert len(calls) == 1
        other = GOLDEN_PARAMS.with_(ts=1.0)  # same program, another request
        assert cache.key_for(prog, other) != cache.key_for(prog, GOLDEN_PARAMS)


class TestGoldenFile:
    def test_golden_is_version_1(self):
        assert json.loads(GOLDEN.read_text())["version"] == 1
        assert PLANCACHE_JSON_VERSION == 1

    def test_golden_store_serves_the_plan(self):
        cache = PlanCache(path=GOLDEN)
        hit = cache.get(golden_program(), GOLDEN_PARAMS,
                        rules=ALL_RULES, strategy="beam")
        assert hit is not None
        assert hit.cost_before == 56.0
        assert hit.cost_after == 39.0
        assert hit.program.pretty() == (
            "comcast[repeat] (op_comp_bs[add]) ; map pair ; "
            "scan (op_sr2[add,max]) ; map pi_1")

    def test_serialization_matches_golden(self, tmp_path):
        """Byte-stable wire format: regenerating the store reproduces it."""
        store = tmp_path / "plans.json"
        cache = PlanCache(path=store)
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES),
                  rules=ALL_RULES, strategy="beam")
        assert store.read_text() == GOLDEN.read_text()

    def test_golden_key_is_stable(self):
        assert cache_key(golden_program(), GOLDEN_PARAMS,
                         ALL_RULES, "beam", False) == GOLDEN_KEY


class TestValidation:
    def test_wrong_version_rejected(self, tmp_path):
        store = tmp_path / "plans.json"
        doc = json.loads(GOLDEN.read_text())
        doc["version"] = 99
        store.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            PlanCache(path=store)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)


class TestCacheKeyStability:
    def test_renaming_bound_variables_keeps_the_key(self):
        """Map labels are the DSL's variable names — not part of identity."""
        f = Program([MapStage(lambda x: x + 1, label="f", ops_per_element=1),
                     ScanStage(ADD)])
        g = Program([MapStage(lambda x: 2 * x, label="g", ops_per_element=1),
                     ScanStage(ADD)])
        assert plan_signature(f) == plan_signature(g)
        assert (cache_key(f, GOLDEN_PARAMS, ALL_RULES, "beam", False)
                == cache_key(g, GOLDEN_PARAMS, ALL_RULES, "beam", False))

    def test_map_cost_is_part_of_identity(self):
        cheap = Program([MapStage(lambda x: x, label="f", ops_per_element=1),
                         ScanStage(ADD)])
        dear = Program([MapStage(lambda x: x, label="f", ops_per_element=9),
                        ScanStage(ADD)])
        assert plan_signature(cheap) != plan_signature(dear)

    def test_reordering_commutative_metadata_keeps_the_key(self):
        prog = golden_program()
        forward = cache_key(prog, GOLDEN_PARAMS, ALL_RULES, "beam", False)
        backward = cache_key(prog, GOLDEN_PARAMS, tuple(reversed(ALL_RULES)),
                             "beam", False)
        assert forward == backward

    def test_changing_machine_params_changes_the_key(self):
        prog = golden_program()
        base = cache_key(prog, GOLDEN_PARAMS, ALL_RULES, "beam", False)
        for changed in (GOLDEN_PARAMS.with_(p=8),
                        GOLDEN_PARAMS.with_(ts=6.0),
                        GOLDEN_PARAMS.with_(tw=1.0),
                        GOLDEN_PARAMS.with_(m=2)):
            assert cache_key(prog, changed, ALL_RULES, "beam", False) != base

    def test_strategy_and_lossiness_change_the_key(self):
        prog = golden_program()
        base = cache_key(prog, GOLDEN_PARAMS, ALL_RULES, "beam", False)
        assert cache_key(prog, GOLDEN_PARAMS, ALL_RULES, "greedy",
                         False) != base
        assert cache_key(prog, GOLDEN_PARAMS, ALL_RULES, "beam", True) != base

    def test_changing_an_operator_changes_the_signature(self):
        assert (plan_signature(Program([ScanStage(ADD)]))
                != plan_signature(Program([ScanStage(MUL)])))


class TestClearPlannerCaches:
    """Regression: clear_match_cache() alone must not be mistaken for a
    full planner reset — clear_planner_caches() also drops plan-cache
    in-memory state, so idempotence-style tests can't leak plans."""

    def test_clear_match_cache_leaves_plan_cache_state(self):
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        clear_match_cache()  # the old, too-narrow reset
        assert len(cache._memory) == 1

    def test_clear_planner_caches_resets_memory_and_counters(self):
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        assert cache.get(prog, params) is not None
        assert cache.get(Program([ScanStage(MUL)]), params) is None
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

        clear_planner_caches()
        stats = cache.stats()
        assert stats["memory_entries"] == 0
        assert stats["hits"] == stats["misses"] == 0
        assert stats["evictions"] == stats["replay_failures"] == 0

    def test_clear_planner_caches_keeps_the_disk_store(self, tmp_path):
        store = tmp_path / "plans.json"
        cache = PlanCache(path=store)
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        clear_planner_caches()
        assert len(cache) == 1  # disk entries survive
        assert cache.get(prog, params) is not None  # re-warmed from disk
