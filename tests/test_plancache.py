"""Plan cache: round-trip, golden wire format, key stability, reset hooks.

Mirrors the ``faultplan_v1.json`` pattern: the golden file pins the
version-1 on-disk format of the plan store — if the serialization ever
changes shape, the golden test fails and ``PLANCACHE_JSON_VERSION`` must
be bumped with a migration path instead of silently orphaning deployed
plan stores.

Key stability is the cacheability contract: renaming bound variables
(map labels) and reordering commutative metadata (the rule set) must not
change the canonical signature, while changing the machine parameters,
strategy, or lossiness must.  ``cache_key`` joins its document from
pieces encoded once; :func:`json_cache_key` keeps the whole-document
encoding as the oracle it must equal, key for key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MUL, BinOp
from repro.core.optimizer import optimize
from repro.core.plancache import PLANCACHE_JSON_VERSION, PlanCache, PlanRecord
from repro.core.planner import (
    beam_optimize,
    cache_key,
    params_signature,
    plan_signature,
    rules_signature,
)
from repro.core.rules import ALL_RULES, FULL_RULES
from repro.core.stages import (
    AllReduceStage,
    BcastStage,
    Map2Stage,
    MapStage,
    Program,
    ReduceStage,
    ScanStage,
)
from repro.core.store import clear_caches

GOLDEN = pathlib.Path(__file__).parent / "data" / "plancache_v1.json"

#: the entry the golden file was written from (keep in sync with the file)
GOLDEN_KEY = "33a8b26659fbe29eb895a58a4db5be7772c42f3f4a2ecaf08a9f95efab275b05"
GOLDEN_PARAMS = MachineParams(p=4, ts=5.0, tw=0.5, m=1)


def golden_program() -> Program:
    return Program([BcastStage(), ScanStage(ADD), ScanStage(ADD),
                    ScanStage(MAX)], name="golden")


def json_cache_key(program, params, rules=ALL_RULES, strategy="beam",
                   allow_lossy=False) -> str:
    """The plan-cache key as the whole document through ``json.dumps``
    and sha256: the oracle ``cache_key`` must equal byte for byte."""
    doc = {
        "signature": plan_signature(program),
        "params": params_signature(params),
        "rules": rules_signature(rules),
        "strategy": strategy,
        "allow_lossy": allow_lossy,
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


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
        """A missed ``optimize(cache=)`` derives the same key for its
        ``get`` and its ``put``, and the next ``get`` hits."""
        from repro.core import plancache as plancache_mod

        keys = []
        real = plancache_mod.cache_key
        monkeypatch.setattr(plancache_mod, "cache_key",
                            lambda *a: keys.append(real(*a)) or keys[-1])
        cache = PlanCache()
        prog = golden_program()
        optimize(prog, GOLDEN_PARAMS, rules=ALL_RULES, strategy="beam",
                 cache=cache)  # a miss: get, search, put
        assert len(keys) == 2 and keys[0] == keys[1]
        assert [r.key for r in cache._memory.values()] == keys[:1]
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert cache.stats()["hits"] == 1
        other = GOLDEN_PARAMS.with_(ts=1.0)  # same program, another request
        assert cache_key(prog, other) != cache_key(prog, GOLDEN_PARAMS)


class TestResidentTier:
    """A repeated request resolves by value: the plan a checked replay
    built is served again for a value-equal program, for exactly as long
    as the LRU holds the record it was replayed from."""

    @staticmethod
    def _warm(cache, params=GOLDEN_PARAMS):
        """put + one replayed hit: the plan is now resident."""
        prog = golden_program()
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        first = cache.get(golden_program(), params)
        assert first is not None
        return first

    @staticmethod
    def _spy(monkeypatch):
        from repro.core import plancache as plancache_mod

        calls = {"replay_trace": 0, "cache_key": 0}

        def counting(name):
            real = getattr(plancache_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(plancache_mod, name, wrapper)

        counting("replay_trace")
        counting("cache_key")
        return calls

    def test_value_equal_program_skips_key_and_replay(self, monkeypatch):
        cache = PlanCache()
        calls = self._spy(monkeypatch)
        first = self._warm(cache)
        assert calls == {"replay_trace": 1, "cache_key": 2}  # put + 1st get
        fresh = golden_program()
        assert fresh is not first.derivation.initial
        again = cache.get(fresh, GOLDEN_PARAMS)
        assert calls == {"replay_trace": 1, "cache_key": 2}
        assert again is first
        assert again.derivation.initial == fresh
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 0
        assert stats["resident_hits"] == 1
        assert stats["resident_entries"] == 1

    def test_put_alone_never_populates_the_tier(self):
        cache = PlanCache()
        prog = golden_program()
        cache.put(prog, GOLDEN_PARAMS,
                  beam_optimize(prog, GOLDEN_PARAMS, ALL_RULES))
        assert cache.get(golden_program(), GOLDEN_PARAMS.with_(p=8)) is None
        assert cache.stats()["resident_entries"] == 0

    def test_another_request_for_the_same_program_is_not_served(self):
        cache = PlanCache()
        self._warm(cache)
        for other in (dict(params=GOLDEN_PARAMS.with_(ts=6.0)),
                      dict(strategy="greedy"), dict(allow_lossy=True),
                      dict(rules=ALL_RULES[:3])):
            request = {"params": GOLDEN_PARAMS, **other}
            assert cache.get(golden_program(), **request) is None
        renamed = Program(golden_program().stages, name="other")
        hit = cache.get(renamed, GOLDEN_PARAMS)  # same signature: replayed
        assert hit.derivation.initial is renamed
        assert cache.stats()["resident_hits"] == 0

    def test_record_swapped_after_a_resident_hit_degrades_to_miss(self):
        cache = PlanCache()
        self._warm(cache)
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert cache.stats()["resident_hits"] == 1
        (key, record), = cache._memory.items()
        cache._memory[key] = PlanRecord(
            key=key, program_pretty=record.program_pretty,
            strategy=record.strategy,
            trace=(("SR2-Reduction", 0),),  # does not match here
            cost_before=record.cost_before, cost_after=record.cost_after,
            programs_explored=record.programs_explored)
        assert cache.get(golden_program(), GOLDEN_PARAMS) is None
        stats = cache.stats()
        assert stats["replay_failures"] == 1 and stats["misses"] == 1
        assert stats["resident_entries"] == 0

    def test_rewritten_record_is_replayed_again(self, monkeypatch):
        cache = PlanCache()
        self._warm(cache)
        calls = self._spy(monkeypatch)
        prog = golden_program()
        cache.put(prog, GOLDEN_PARAMS,
                  beam_optimize(prog, GOLDEN_PARAMS, ALL_RULES))
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert calls["replay_trace"] == 1  # new record object: checked anew
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert calls["replay_trace"] == 1
        assert cache.stats()["resident_hits"] == 1

    def test_evicted_key_misses_although_its_plan_was_resident(self):
        cache = PlanCache(capacity=1)
        self._warm(cache)
        assert cache.stats()["resident_entries"] == 1
        other = Program([ScanStage(MUL), ScanStage(ADD)])
        cache.put(other, GOLDEN_PARAMS,
                  beam_optimize(other, GOLDEN_PARAMS, ALL_RULES))
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["resident_entries"] == 0
        assert cache.get(golden_program(), GOLDEN_PARAMS) is None
        assert cache.stats()["misses"] == 1
        assert len(cache._resident) == 0

    def test_tier_is_bounded_by_capacity(self):
        """Many values can share one record (same signature, other
        names), so the tier has its own bound: the cache's capacity."""
        cache = PlanCache(capacity=2)
        self._warm(cache)
        for k in range(5):
            renamed = Program(golden_program().stages, name=f"copy{k}")
            assert cache.get(renamed, GOLDEN_PARAMS) is not None
        assert len(cache._resident) == 2
        assert cache.stats()["resident_entries"] == 2
        assert cache.stats()["memory_entries"] == 1

    def test_resident_hit_refreshes_the_lru(self):
        cache = PlanCache(capacity=2)
        self._warm(cache)
        others = [Program([ScanStage(MUL), ScanStage(ADD)]),
                  Program([BcastStage(), ScanStage(ADD)])]
        cache.put(others[0], GOLDEN_PARAMS,
                  beam_optimize(others[0], GOLDEN_PARAMS, ALL_RULES))
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        cache.put(others[1], GOLDEN_PARAMS,
                  beam_optimize(others[1], GOLDEN_PARAMS, ALL_RULES))
        # the resident hit made the golden plan the most recently used
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert cache.get(others[0], GOLDEN_PARAMS) is None

    def test_clear_planner_caches_empties_the_tier(self):
        cache = PlanCache()
        self._warm(cache)
        clear_caches()
        assert len(cache._resident) == 0
        stats = cache.stats()
        assert stats["resident_entries"] == stats["resident_hits"] == 0
        assert cache.get(golden_program(), GOLDEN_PARAMS) is None

    def test_clear_empties_the_tier_and_disk_rewarms_by_replay(
            self, tmp_path, monkeypatch):
        cache = PlanCache(path=tmp_path / "plans.json")
        self._warm(cache)
        cache.clear()
        assert len(cache._resident) == 0
        calls = self._spy(monkeypatch)
        assert cache.get(golden_program(), GOLDEN_PARAMS) is not None
        assert calls["replay_trace"] == 1
        cache.clear(disk=True)
        assert cache.get(golden_program(), GOLDEN_PARAMS) is None

    def test_unhashable_program_hits_through_replay(self, monkeypatch):
        """map2 over list blocks: the program does not hash, so every hit
        replays — and nothing raises."""
        def build():
            return Program([Map2Stage(_keep_x, other=([1, 2], [3, 4],
                                                            [5, 6], [7, 8])),
                            ScanStage(ADD), ScanStage(ADD)], name="coeffs")

        with pytest.raises(TypeError):
            hash(build())
        cache = PlanCache()
        cold = optimize(build(), GOLDEN_PARAMS, strategy="beam", cache=cache)
        calls = self._spy(monkeypatch)
        for n in (1, 2):
            hit = cache.get(build(), GOLDEN_PARAMS)
            assert hit.program.pretty() == cold.program.pretty()
            assert calls["replay_trace"] == n
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["resident_hits"] == 0
        assert stats["resident_entries"] == 0

    def test_optimize_serves_the_resident_plan(self):
        cache = PlanCache()
        cold = optimize(golden_program(), GOLDEN_PARAMS, strategy="beam",
                        cache=cache)
        replayed = optimize(golden_program(), GOLDEN_PARAMS, strategy="beam",
                            cache=cache)
        resident = optimize(golden_program(), GOLDEN_PARAMS, strategy="beam",
                            cache=cache)
        assert resident is replayed
        assert resident.program.pretty() == cold.program.pretty()
        assert resident.cost_after == cold.cost_after
        assert resident.derivation.describe() == cold.derivation.describe()
        xs = [1.0, 2.0, 3.0, 4.0]
        assert resident.program.run(xs) == golden_program().run(xs)


def _keep_x(x, ys):
    return x


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

    def test_the_joined_key_equals_the_whole_document_encoding(self):
        """Over the planner corpus, every machine preset, every strategy
        and both lossiness flags, with the key-piece store cold and warm:
        the key joined from pre-encoded pieces is the oracle's."""
        import planner_corpus

        clear_caches()
        requests = [(program, params, rules, strategy, allow_lossy)
                    for program, rules in planner_corpus.programs()
                    for params in planner_corpus.PRESETS
                    for strategy in ("beam", "greedy", "exhaustive")
                    for allow_lossy in (False, True)]
        for _pass in range(2):
            for request in requests:
                assert cache_key(*request) == json_cache_key(*request)
        # another round penalty, the rules as a list, an empty program
        cheap = GOLDEN_PARAMS.with_(round_penalty=1.5)
        for request in [(golden_program(), cheap, list(FULL_RULES)),
                        (Program([]), GOLDEN_PARAMS, ALL_RULES)]:
            assert cache_key(*request) == json_cache_key(*request)
        clear_caches()


def test_a_same_named_rule_set_gets_no_cached_plan():
    """``never`` is ``FULL_RULES`` with an SR2-Reduction row whose side
    condition never holds: planned on its own it fires nothing, so a
    cached plan of the catalogue's rule set must not be served to it."""
    never = tuple(dataclasses.replace(rule, when=lambda window: False)
                  if rule.name == "SR2-Reduction" else rule
                  for rule in FULL_RULES)
    params = MachineParams(p=8, ts=600, tw=2, m=1)

    def program():
        return Program([ScanStage(MUL), ReduceStage(ADD)])

    def rules_fired(rules, cache=None):
        result = optimize(program(), params, rules, strategy="beam",
                          cache=cache)
        return [step.rule.name for step in result.derivation.steps]

    assert rules_fired(never) == []
    cache = PlanCache()
    assert rules_fired(FULL_RULES, cache) == ["SR2-Reduction"]
    assert rules_fired(never, cache) == []


def test_a_same_named_operator_keys_apart_from_the_catalogue_one():
    """``impostor`` is max printed as ``mul``: its key is not MUL's, so
    MUL's SR2 plan is not served to it, and its own plan (nothing fires)
    does not overwrite MUL's under a shared key."""
    impostor = BinOp("mul", max, associative=True, commutative=True)
    params = MachineParams(p=8, ts=600, tw=2, m=1)
    cache = PlanCache()

    def rules_fired(times):
        result = optimize(Program([ScanStage(times), AllReduceStage(ADD)]),
                          params, FULL_RULES, strategy="beam", cache=cache)
        return [step.rule.name for step in result.derivation.steps]

    assert rules_fired(MUL) == ["SR2-Reduction"]
    assert rules_fired(impostor) == []
    assert rules_fired(MUL) == ["SR2-Reduction"]


class TestClearPlannerCaches:
    """``clear_caches()`` is the one full reset: it also drops plan-cache
    in-memory state, so idempotence-style tests can't leak plans, while
    one store's own ``clear()`` stays that store's alone."""

    def test_clear_match_cache_leaves_plan_cache_state(self):
        from repro.core import search as search_mod

        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        assert len(search_mod._SHAPES) and len(search_mod._REWRITES)
        search_mod._SHAPES.clear()  # one store, not the registry
        assert len(search_mod._SHAPES) == 0 < len(search_mod._REWRITES)
        assert len(cache._memory) == 1  # the plan cache is untouched

    def test_clear_planner_caches_resets_memory_and_counters(self):
        cache = PlanCache()
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        assert cache.get(prog, params) is not None
        assert cache.get(Program([ScanStage(MUL)]), params) is None
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

        clear_caches()
        stats = cache.stats()
        assert stats["memory_entries"] == 0
        assert stats["hits"] == stats["misses"] == 0
        assert stats["evictions"] == stats["replay_failures"] == 0

    def test_clear_planner_caches_keeps_the_disk_store(self, tmp_path):
        store = tmp_path / "plans.json"
        cache = PlanCache(path=store)
        prog, params = golden_program(), GOLDEN_PARAMS
        cache.put(prog, params, beam_optimize(prog, params, ALL_RULES))
        clear_caches()
        assert len(cache) == 1  # disk entries survive
        assert cache.get(prog, params) is not None  # re-warmed from disk
