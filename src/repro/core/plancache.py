"""Persistent plan cache: optimization results as servable artifacts.

A front end fielding a stream of optimize requests sees the *same* program
shapes over and over (the same pipelines at the same machine parameters),
so planning is cacheable.  The cache key is the canonical plan signature
(:func:`repro.core.planner.plan_signature` — stage structure + operator
identities, independent of map labels and captured constants) together
with the machine parameters, rule set, strategy and lossiness flag.

What is cached is **not** the optimized program — programs contain
callables — but the *rule-application trace* plus its cost ledger.  The
first hit of a program value replays the trace step by step against the
request's own program (:func:`repro.core.planner.replay_trace`), which
re-checks every match, so a hit either reconstructs a bit-identical plan
or degrades to a miss; it can never silently return a wrong program.
Later hits of a value-equal program are served *resident*: the plan that
replay built and checked, returned for as long as the record it was
replayed from is the one the LRU holds under that key.

Layers:

* a resident tier (request value → checked plan, at most ``capacity``
  entries), filled only by a checked replay and consulted first,
* an in-memory LRU (``capacity`` entries) with hit/miss/eviction
  counters, and
* an optional write-through on-disk JSON store (one versioned document,
  atomically rewritten), so plans survive across processes —
  ``python -m repro plan`` serves from it.  Without a store path the LRU
  is all there is: an evicted plan is forgotten.

Every live cache registers itself with the optimizer's
``clear_planner_caches`` hook, so test suites can reset planner state
(match memo *and* plan caches) in one call.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core import optimizer as _optimizer
from repro.core.cost import MachineParams, program_cost
from repro.core.optimizer import OptimizationResult
from repro.core.planner import (
    PlanReplayError,
    cache_key,
    replay_trace,
    trace_of,
)
from repro.core.rewrite import Derivation
from repro.core.rules import ALL_RULES, Rule
from repro.core.stages import Program

__all__ = ["PlanRecord", "PlanCache", "PLANCACHE_JSON_VERSION"]

#: schema version of the on-disk store (bumped on incompatible change)
PLANCACHE_JSON_VERSION = 1

#: every live PlanCache, so clear_planner_caches() can reset them all
_LIVE_CACHES: "weakref.WeakSet[PlanCache]" = weakref.WeakSet()


def _reset_all_caches() -> None:
    for cache in list(_LIVE_CACHES):
        cache.reset_memory()


_optimizer.register_planner_cache_reset(_reset_all_caches)


@dataclass(frozen=True)
class PlanRecord:
    """One cached plan: the trace plus everything needed to audit it."""

    key: str
    program_pretty: str
    strategy: str
    trace: tuple[tuple[str, int], ...]
    cost_before: float
    cost_after: float
    programs_explored: int

    def to_doc(self) -> dict:
        return {
            "key": self.key,
            "program": self.program_pretty,
            "strategy": self.strategy,
            "trace": [[name, start] for name, start in self.trace],
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "programs_explored": self.programs_explored,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PlanRecord":
        return cls(
            key=str(doc["key"]),
            program_pretty=str(doc.get("program", "")),
            strategy=str(doc.get("strategy", "beam")),
            trace=tuple((str(name), int(start))
                        for name, start in doc["trace"]),
            cost_before=float(doc["cost_before"]),
            cost_after=float(doc["cost_after"]),
            programs_explored=int(doc.get("programs_explored", 0)),
        )


class PlanCache:
    """LRU plan cache with an optional write-through JSON store.

    ``path`` is the on-disk store (created on first write; loaded eagerly
    when it exists).  ``capacity`` bounds only the in-memory LRU — the
    disk store keeps every plan ever written, so a cold process re-warms
    from disk on the first request per shape.  With ``path=None`` nothing
    outlives the LRU, so a long-lived memory-only cache stays bounded.

    A request that repeats a hashable program *value* (a fresh but equal
    ``Program``, same params, rules, strategy and lossiness) is served
    from the resident tier without deriving a key or replaying; see
    :meth:`get`.
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        # one cache may be hammered by many serving worker threads at
        # once: every LRU mutation (get's move_to_end, put's eviction
        # sweep, counter bumps) happens under this lock — racing them
        # corrupts the OrderedDict's order book.  Reentrant because
        # get/put nest through _record/_remember/_evict_bad.
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, PlanRecord]" = OrderedDict()
        #: mirror of the on-disk store; stays empty when there is no path
        self._disk: dict[str, PlanRecord] = {}
        #: request value -> (key, the record replayed, the checked plan);
        #: an entry is served only while ``_memory[key] is record``
        self._resident: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.resident_hits = 0
        self.misses = 0
        self.evictions = 0
        self.replay_failures = 0
        if self.path is not None and self.path.exists():
            self._load()
        _LIVE_CACHES.add(self)

    # -- persistence --------------------------------------------------------

    def _load(self) -> None:
        doc = json.loads(self.path.read_text())
        version = doc.get("version")
        if version != PLANCACHE_JSON_VERSION:
            raise ValueError(
                f"unsupported plan-cache JSON version {version!r} "
                f"(expected {PLANCACHE_JSON_VERSION})")
        self._disk = {
            key: PlanRecord.from_doc({"key": key, **entry})
            for key, entry in doc.get("entries", {}).items()
        }

    def _flush(self) -> None:
        """Atomically rewrite the on-disk store (tmp file + rename)."""
        doc = {
            "version": PLANCACHE_JSON_VERSION,
            "entries": {
                key: {k: v for k, v in rec.to_doc().items() if k != "key"}
                for key, rec in sorted(self._disk.items())
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                   prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- core API ------------------------------------------------------------

    def key_for(self, program: Program, params: MachineParams,
                rules: Iterable[Rule] = ALL_RULES, strategy: str = "beam",
                allow_lossy: bool = False) -> str:
        """``cache_key`` of this request.

        The key of the latest request for a program is kept beside the
        (immutable) program, so the ``put`` that follows a missed ``get``
        in ``optimize(cache=...)`` does not derive it a second time.
        """
        request = (params, tuple(rules), strategy, allow_lossy)
        last = program.__dict__.get("_plan_key")
        if last is None or last[0] != request:
            last = program.__dict__["_plan_key"] = (
                request, cache_key(program, *request))
        return last[1]

    def _record(self, key: str) -> PlanRecord | None:
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
            return record
        record = self._disk.get(key)
        if record is not None:
            self._remember(record)
        return record

    def _remember(self, record: PlanRecord) -> None:
        self._memory[record.key] = record
        self._memory.move_to_end(record.key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.evictions += 1

    def get(self, program: Program, params: MachineParams,
            rules: Iterable[Rule] = ALL_RULES, strategy: str = "beam",
            allow_lossy: bool = False) -> OptimizationResult | None:
        """The cached plan for this request, or ``None`` on a miss.

        The first hit of a program value reconstructs the full
        :class:`OptimizationResult` by replaying the stored trace against
        ``program``; the replayed plan's cost is recomputed and checked
        against the stored ledger, so a stale or corrupted entry is
        dropped (and counted in ``replay_failures``) instead of served.
        A plan that passed both checks stays resident under the request's
        value, and a later value-equal request gets that same result
        (``derivation.initial == program``) while the LRU still holds the
        very record it was replayed from; both kinds count in ``hits``.
        """
        rules = tuple(rules)
        request = (program, params, rules, strategy, allow_lossy)
        with self._lock:
            try:
                entry = self._resident.get(request)
            except TypeError:
                # captured list or array blocks do not hash: such a
                # program replays on every hit
                request = entry = None
            if entry is not None:
                key, record, result = entry
                if self._memory.get(key) is record:
                    self._memory.move_to_end(key)
                    self._resident.move_to_end(request)
                    self.hits += 1
                    self.resident_hits += 1
                    return result
                # evicted, dropped as bad, rewritten or reset since
                del self._resident[request]
        key = self.key_for(program, params, rules, strategy, allow_lossy)
        with self._lock:
            record = self._record(key)
            if record is None:
                self.misses += 1
                return None
        try:
            final, steps = replay_trace(program, record.trace, p=params.p,
                                        allow_lossy=allow_lossy)
        except PlanReplayError:
            with self._lock:
                self._evict_bad(key)
                self.misses += 1
            return None
        cost_after = program_cost(final, params)
        if abs(cost_after - record.cost_after) > 1e-6 * max(
                1.0, abs(record.cost_after)):
            with self._lock:
                self._evict_bad(key)
                self.misses += 1
            return None
        result = OptimizationResult(
            derivation=Derivation(initial=program, final=final, steps=steps),
            cost_before=program_cost(program, params),
            cost_after=cost_after,
            params=params,
            programs_explored=record.programs_explored,
        )
        with self._lock:
            self.hits += 1
            if request is not None:
                self._resident[request] = (key, record, result)
                while len(self._resident) > self.capacity:
                    self._resident.popitem(last=False)
        return result

    def _evict_bad(self, key: str) -> None:
        self.replay_failures += 1
        self._memory.pop(key, None)
        if self._disk.pop(key, None) is not None:
            self._flush()

    def put(self, program: Program, params: MachineParams,
            result: OptimizationResult,
            rules: Iterable[Rule] = ALL_RULES, strategy: str = "beam",
            allow_lossy: bool = False) -> PlanRecord:
        """Store ``result``'s trace under this request's key (write-through)."""
        key = self.key_for(program, params, rules, strategy, allow_lossy)
        record = PlanRecord(
            key=key,
            program_pretty=program.pretty(),
            strategy=strategy,
            trace=trace_of(result),
            cost_before=result.cost_before,
            cost_after=result.cost_after,
            programs_explored=result.programs_explored,
        )
        with self._lock:
            self._remember(record)
            if self.path is not None:
                self._disk[key] = record
                self._flush()
        return record

    # -- maintenance ---------------------------------------------------------

    def reset_memory(self) -> None:
        """Drop in-memory LRU state and counters (disk store untouched).

        This is what :func:`repro.core.optimizer.clear_planner_caches`
        calls, so optimizer tests cannot leak plan state between cases.
        """
        with self._lock:
            self._memory.clear()
            self._resident.clear()
            self.hits = 0
            self.resident_hits = 0
            self.misses = 0
            self.evictions = 0
            self.replay_failures = 0

    def clear(self, disk: bool = False) -> None:
        """Forget every cached plan (``disk=True`` also empties the store)."""
        with self._lock:
            self.reset_memory()
            if disk:
                self._disk.clear()
                if self.path is not None and self.path.exists():
                    self._flush()

    def __len__(self) -> int:
        with self._lock:
            return (len(self._disk) if self.path is not None
                    else len(self._memory))

    def stats(self) -> dict:
        """Counters + sizes, the ``plan stats`` CLI payload."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "resident_hits": self.resident_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "replay_failures": self.replay_failures,
                "hit_rate": (self.hits / total) if total else 0.0,
                "stored": len(self),
                "memory_entries": len(self._memory),
                "resident_entries": sum(
                    self._memory.get(key) is record
                    for key, record, _ in self._resident.values()),
                "disk_entries": len(self._disk),
                "capacity": self.capacity,
                "path": str(self.path) if self.path is not None else None,
            }

    def describe(self) -> str:
        s = self.stats()
        lines = [
            f"plan cache: {s['stored']} stored plan(s), "
            f"{s['memory_entries']}/{s['capacity']} in memory, "
            f"{s['resident_entries']} resident",
            f"  hits={s['hits']} (resident_hits={s['resident_hits']}) "
            f"misses={s['misses']} "
            f"hit_rate={s['hit_rate']:.2%} evictions={s['evictions']} "
            f"replay_failures={s['replay_failures']}",
        ]
        if s["path"]:
            lines.append(f"  store: {s['path']}")
        return "\n".join(lines)
