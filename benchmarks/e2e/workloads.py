"""Seeded workload generator and the five end-to-end workloads.

Everything the program under test sees — source texts, machine
parameters, scalar / array / list blocks — is generated here from the
``--seed``; the same seed gives the same inputs.  ``WORKLOADS.md``
beside this file records why each workload exists and which layers it
loads and bypasses.

The amount of work per request must not depend on the seed (the
benchmark's spread is measured *across* seeds), so the seed decides
operators, statement order, block values and machine presets inside a
fixed shape: the ``serve_hot`` pool always holds one program per
(statement count, p) cell, the ``exec_block`` deck and the engine job
are fixed pipelines on seeded data, and ``plan_cold`` draws so many
texts that its mix averages out.

A workload is driven by :mod:`benchmarks.e2e.harness` through
``setup`` / ``start`` / ``finish`` / ``check`` / ``close``; every call
into a layer's public function is wrapped in a tracer span (a no-op in
the untraced run).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.cost import MachineParams
from repro.core.operators import ADD, MAX, MIN, MUL, declare_distributes
from repro.core.optimizer import OptimizationResult, optimize
from repro.core.plancache import PlanCache
from repro.core.rules import FULL_RULES
from repro.core.stages import Program
from repro.kernels import elementwise
from repro.lang import parse_program
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.semantics.functional import defined_equal
from repro.serving import ServingConfig, ServingManager

from .trace import Tracer

__all__ = ["WORKLOADS", "Job", "Workload", "make_workload",
           "gen_statements", "render_text", "distinct_bodies",
           "scalar_blocks", "array_blocks", "list_blocks",
           "machine_presets", "TracedCache"]

#: operator names of the generated texts → the library's operators
SCALAR_ENV = {"op_add": ADD, "op_mul": MUL, "op_max": MAX, "op_min": MIN}


def list_env() -> dict:
    """Object-mode elementwise operators over Python-list blocks (the
    engine workloads); distributivity is inherited from MUL over ADD."""
    ew_mul, ew_add = elementwise(MUL), elementwise(ADD)
    declare_distributes(ew_mul, ew_add)
    return {"op_add": ew_add, "op_mul": ew_mul}


_COLLECTIVES = ("MPI_Scan", "MPI_Reduce", "MPI_Allreduce", "MPI_Bcast")
_OPS = tuple(SCALAR_ENV)
_BOUNDED_OPS = tuple(op for op in _OPS if op != "op_mul")
_SWAP = {"op_max": "op_min", "op_min": "op_max"}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


#: multiplicative statements allowed per program: every engine and the
#: reference compute exact Python ints, and each further ``op_mul``
#: collective raises the magnitude to the p-th power
MAX_MUL = 2


def gen_statements(rng: random.Random,
                   n: int) -> tuple[tuple[str, str | None], ...]:
    """``n`` statements as ``(MPI call, operator name or None)``.

    The chain keeps MPI's definedness invariant: ``MPI_Reduce`` leaves
    every block but the root's undefined, so only ``MPI_Bcast`` (or the
    end of the program) may follow it.
    """
    body = []
    defined = True
    muls = 0
    for _ in range(n):
        call = rng.choice(_COLLECTIVES) if defined else "MPI_Bcast"
        defined = call != "MPI_Reduce"
        op = None
        if call != "MPI_Bcast":
            op = rng.choice(_OPS if muls < MAX_MUL else _BOUNDED_OPS)
            muls += op == "op_mul"
        body.append((call, op))
    return tuple(body)


def render_text(name: str, body: tuple[tuple[str, str | None], ...]) -> str:
    """Statements → program text in the paper's MPI notation."""
    lines = []
    cur = 0
    for call, op in body:
        if op is None:
            lines.append(f"MPI_Bcast (x{cur}, 1, MPI_INT, 0, MPI_COMM_WORLD);")
        else:
            root = "0, " if call == "MPI_Reduce" else ""
            lines.append(f"{call} (x{cur}, x{cur + 1}, 1, MPI_INT, {op}, "
                         f"{root}MPI_COMM_WORLD);")
            cur += 1
    head = f"Program {name} (x0: input, x{cur}: output);"
    return "\n".join([head, *lines]) + "\n"


def distinct_bodies(rng: random.Random, count: int, lo: int,
                    hi: int) -> list[tuple]:
    """``count`` pairwise-distinct statement lists of ``lo``..``hi``
    statements (distinct as programs, whatever they are named)."""
    seen: set[tuple] = set()
    out: list[tuple] = []
    while len(out) < count:
        body = gen_statements(rng, rng.randint(lo, hi))
        if body not in seen:
            seen.add(body)
            out.append(body)
    return out


def scalar_blocks(rng: random.Random, p: int) -> list[int]:
    """One small int per rank (1..3 keeps ``scan(mul)`` chains short)."""
    return [rng.randint(1, 3) for _ in range(p)]


def array_blocks(rng: random.Random, p: int, n: int) -> list[np.ndarray]:
    """One int64 array per rank; values 1..3 so products stay far from
    the int64 limit at p = 8."""
    gen = np.random.default_rng(rng.getrandbits(64))
    return [gen.integers(1, 4, n).astype(np.int64) for _ in range(p)]


def list_blocks(rng: random.Random, p: int, n: int) -> list[list[int]]:
    """One Python list per rank (object mode: a Python loop per combine)."""
    return [b.tolist() for b in array_blocks(rng, p, n)]


def machine_presets() -> list[MachineParams]:
    """The ``plan_cold`` machines: every (p, m, (ts, tw)) combination."""
    return [MachineParams(p=p, ts=ts, tw=tw, m=m)
            for p in (4, 8, 16, 64)
            for m in (16, 1024, 65536)
            for ts, tw in ((600.0, 2.0), (4.0, 0.5))]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One executable unit: a source text and what it runs on."""

    text: str
    env: dict
    params: MachineParams
    inputs: list
    #: how the workload's own engine call runs it (``jit=True`` on arrays)
    sim_kwargs: dict = field(default_factory=dict)
    #: filled by :meth:`Workload.plan_job`
    written: Program | None = None
    plan: OptimizationResult | None = None
    #: memoized oracle results (computed off the clock, once per job)
    reference: list | None = None
    clocks: tuple | None = None
    sim_written: float | None = None
    sim_run: float | None = None


class TracedCache:
    """The plan-cache protocol (``get`` / ``put``) with a span around
    each call, so the traced run can split ``optimize`` into cache time
    and search time without touching ``src/``."""

    def __init__(self, cache: PlanCache, tracer: Tracer) -> None:
        self.cache = cache
        self.tracer = tracer

    def get(self, *args, **kwargs):
        with self.tracer.span("plancache.miss") as span:
            hit = self.cache.get(*args, **kwargs)
            if hit is not None:
                span.name = "plancache.hit"
        return hit

    def put(self, *args, **kwargs):
        with self.tracer.span("plancache.put"):
            return self.cache.put(*args, **kwargs)


class Workload:
    """Base class: the harness protocol plus the calls every workload
    shares (parse → resolve → plan, the oracle, the probe jobs)."""

    name = ""
    why = ""
    #: requests the one client thread keeps in flight
    window = 1
    #: warm-up requests before the timed run
    warmup = 8
    #: run the workload process on one core (see :class:`ServeHot`)
    one_core = False
    #: read ``peak_rss_mb`` when this many requests are complete (None:
    #: at the end of the run); for a workload whose memory grows with
    #: every request, or the metric would rise with the host's speed
    memory_after: int | None = None
    #: requests run in child processes: a timed run that burns no child
    #: CPU has silently degraded and fails
    forks = False

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = random.Random(f"{self.name}:{seed}")
        self.plan_cache = PlanCache()
        self.cache: Any = self.plan_cache
        #: None, or how many requests the generated inputs allow
        self.request_limit: int | None = None
        #: plans made during set-up (the planner counters of workloads
        #: that do not plan on the request path)
        self.setup_plans: list[OptimizationResult] = []

    # -- harness protocol ----------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def start(self, i: int) -> Any:
        """Issue request ``i`` (warm-up requests are ``-1, -2, ...``);
        returns what :meth:`finish` needs."""
        raise NotImplementedError

    def finish(self, pending: Any) -> Any:
        """Wait for the reply of a started request."""
        return pending

    def check(self, i: int, response: Any) -> bool:
        """Is ``response`` what the reference semantics say?  Runs off
        the clock."""
        raise NotImplementedError

    def sim_times(self, i: int, response: Any) -> tuple[float, float]:
        """(simulated time as written, simulated time as run) of one
        request, in the simulator's units."""
        raise NotImplementedError

    def plan_of(self, response: Any) -> OptimizationResult | None:
        """The plan a request made on its path, if it made one."""
        return None

    def probe_jobs(self) -> list[Job]:
        """Up to four planned jobs (p ≤ 8) the layer probe runs through
        every layer."""
        raise NotImplementedError

    def close(self) -> None:
        return None

    def set_tracing(self, on: bool) -> None:
        self.tracer.enabled = on
        self.cache = (TracedCache(self.plan_cache, self.tracer) if on
                      else self.plan_cache)

    # -- shared layer calls --------------------------------------------------

    def parse(self, text: str, env: dict) -> Program:
        with self.tracer.span("lang.parse"):
            decl = parse_program(text)
        with self.tracer.span("lang.to_program"):
            return decl.to_program(env)

    def optimize(self, program: Program,
                 params: MachineParams) -> OptimizationResult:
        hits = self.plan_cache.hits
        with self.tracer.span("planner.search") as span:
            plan = optimize(program, params, rules=FULL_RULES,
                            strategy="beam", cache=self.cache)
            if self.plan_cache.hits > hits:
                span.name = "optimize.hit"
        return plan

    def plan_job(self, job: Job) -> Job:
        """Set-up planning: text → program as written → plan."""
        job.written = self.parse(job.text, job.env)
        job.plan = self.optimize(job.written, job.params)
        self.setup_plans.append(job.plan)
        return job

    # -- the oracle ----------------------------------------------------------

    @staticmethod
    def reference(job: Job) -> list:
        """``Program.run`` of the program *as written* — never the
        optimizer's or an engine's own output."""
        if job.reference is None:
            job.reference = job.written.run(list(job.inputs))
        return job.reference

    @staticmethod
    def simulated(job: Job) -> tuple[float, float]:
        """Simulated time of the job as written and as planned
        (cooperative engine, object mode; memoized)."""
        if job.sim_written is None:
            job.sim_written = simulate_program(
                job.written, list(job.inputs), job.params).time
            run = simulate_program(job.plan.program, list(job.inputs),
                                   job.params)
            job.sim_run = run.time
            job.clocks = run.stats.clocks
        return job.sim_written, job.sim_run


def _values_equal(got, want) -> bool:
    """``defined_equal`` plus dtype agreement on array blocks."""
    if not defined_equal(list(got), list(want)):
        return False
    return all(a.dtype == b.dtype for a, b in zip(got, want)
               if isinstance(a, np.ndarray) and isinstance(b, np.ndarray))


# ---------------------------------------------------------------------------
# serve_hot
# ---------------------------------------------------------------------------


class ServeHot(Workload):
    name = "serve_hot"
    why = ("the served job: 12 repeated source texts through parse, "
           "plan-cache hit, serving and the cooperative engine; "
           "kernels, jit and parallel idle")
    window = 4
    warmup = 48
    # A request is a hand-off between two GIL-bound threads (client and
    # worker), which gain nothing from a second core.  Left to the
    # scheduler they sit on different vCPUs, and what a cross-vCPU
    # wake-up costs is the host's business: the same commit read 2.0 ms
    # and 2.6 ms median latency in runs half an hour apart, and 1.5 to
    # 1.7 ms on one core throughout.
    one_core = True
    # The manager's event list grows by some 1.3 KB a job, so memory at
    # the end of a run follows the number of jobs the host's speed let
    # through (a quarter more in one set of runs of one commit than in
    # the other).  Every run completes more than this many (26 000 was
    # the fewest, in a busy hour).
    memory_after = 16_000
    POOL = 12
    TENANTS = 4

    def setup(self) -> None:
        rng = self.rng
        # The statement skeletons come from a fixed stream, not from the
        # seed: which collectives a program holds decides how much the
        # planner fuses and the engine simulates, and twelve programs
        # are too few for that to average out across seeds.  The seed
        # decides what leaves the work unchanged: max <-> min (an
        # automorphism of the declared algebra), block values, program
        # names and the order the pool is served in.
        shapes = random.Random("serve_hot:skeletons")
        self.pool: list[Job] = []
        for k in range(self.POOL):
            # 4 lengths x 3 machine sizes: every cell exactly once
            n, p = 3 + k % 4, (4, 8, 16)[k % 3]
            body = gen_statements(shapes, n)
            if rng.random() < 0.5:
                body = tuple((call, _SWAP.get(op, op)) for call, op in body)
            job = Job(text=render_text(f"serve{self.seed}_{k}", body),
                      env=SCALAR_ENV,
                      params=MachineParams(p=p, ts=600.0, tw=2.0, m=1),
                      inputs=scalar_blocks(rng, p))
            self.pool.append(self.plan_job(job))
        rng.shuffle(self.pool)
        self.manager = ServingManager(
            ServingConfig(workers=1, substrate="cooperative"))

    def start(self, i: int):
        job = self.pool[i % self.POOL]
        program = self.parse(job.text, job.env)
        plan = self.optimize(program, job.params)
        with self.tracer.span("serving.submit"):
            handle = self.manager.submit(
                plan.program, job.inputs, job.params,
                tenant=f"tenant-{i % self.TENANTS}")
        return job, plan, handle

    def finish(self, pending):
        job, plan, handle = pending
        with self.tracer.span("serving.result"):
            values = handle.result(timeout=60.0)
        return job, plan, values

    def check(self, i, response) -> bool:
        job, _plan, values = response
        return _values_equal(values, self.reference(job))

    def sim_times(self, i, response):
        return self.simulated(response[0])

    def plan_of(self, response):
        return response[1]

    def probe_jobs(self):
        return [j for j in self.pool if j.params.p <= 8][:4]

    def close(self) -> None:
        self.manager.close(drain=True, timeout=30.0)


# ---------------------------------------------------------------------------
# plan_cold
# ---------------------------------------------------------------------------


class PlanCold(Workload):
    name = "plan_cold"
    why = ("the same planner and cache run cold: 30 000 distinct texts, "
           "every lookup misses and every put evicts, so beam search is "
           "the request; nothing executes")
    TEXTS = 30_000
    warmup = 64

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        super().__init__(seed, tracer)
        self.plan_cache = PlanCache(capacity=256)
        self.cache = self.plan_cache

    def setup(self) -> None:
        rng = self.rng
        bodies = distinct_bodies(rng, self.TEXTS + self.warmup, 5, 9)
        self.texts = [render_text(f"plan{k}", b)
                      for k, b in enumerate(bodies)]
        self.machines = machine_presets()
        self.machine_of = [rng.randrange(len(self.machines))
                           for _ in self.texts]
        # warm-up requests carry negative indices and so plan the
        # surplus tail: code paths are warm, every timed text is unseen
        self.request_limit = self.TEXTS

    def start(self, i: int):
        params = self.machines[self.machine_of[i]]
        program = self.parse(self.texts[i], SCALAR_ENV)
        return i, program, self.optimize(program, params)

    def check(self, i, response) -> bool:
        k, program, plan = response
        if plan.cost_after > plan.cost_before:
            return False
        xs = scalar_blocks(random.Random(f"{self.seed}:input:{k}"),
                           plan.params.p)
        return defined_equal(program.run(list(xs)),
                             plan.program.run(list(xs)))

    def sim_times(self, i, response):
        plan = response[2]
        return plan.cost_before, plan.cost_after

    def plan_of(self, response):
        return response[2]

    def probe_jobs(self):
        jobs = []
        for k in range(self.TEXTS):
            params = self.machines[self.machine_of[k]]
            if params.p <= 8:
                rng = random.Random(f"{self.seed}:input:{k}")
                jobs.append(self.plan_job(Job(
                    text=self.texts[k], env=SCALAR_ENV, params=params,
                    inputs=scalar_blocks(rng, params.p))))
            if len(jobs) == 4:
                break
        return jobs


# ---------------------------------------------------------------------------
# exec_block
# ---------------------------------------------------------------------------

_DECK = (
    ("sr2", (("MPI_Scan", "op_mul"), ("MPI_Reduce", "op_add"))),
    ("ss", (("MPI_Scan", "op_mul"), ("MPI_Scan", "op_add"))),
    ("comcast", (("MPI_Bcast", None), ("MPI_Scan", "op_add"))),
    ("allreduce", (("MPI_Allreduce", "op_add"),)),
)


class ExecBlock(Workload):
    name = "exec_block"
    why = ("four already-planned numeric pipelines on 131 072-element "
           "int64 blocks at p = 8 under simulate_program(jit=True): "
           "kernels and jit do the work, parse, plan and serving none")
    P = 8
    BLOCK = 131_072
    warmup = 3

    def setup(self) -> None:
        params = MachineParams(p=self.P, ts=10.0, tw=1.0, m=self.BLOCK)
        blocks = array_blocks(self.rng, self.P, self.BLOCK)
        self.deck = [
            self.plan_job(Job(text=render_text(name, body), env=SCALAR_ENV,
                              params=params, inputs=blocks,
                              sim_kwargs={"jit": True}))
            for name, body in _DECK]

    def start(self, i: int):
        out = []
        for job in self.deck:
            with self.tracer.span("machine.simulate"):
                out.append(simulate_program(job.plan.program, job.inputs,
                                            job.params, jit=True))
        return out

    def check(self, i, response) -> bool:
        return all(_values_equal(res.values, self.reference(job))
                   for job, res in zip(self.deck, response))

    def sim_times(self, i, response):
        written = sum(self.simulated(job)[0] for job in self.deck)
        return written, sum(res.time for res in response)

    def probe_jobs(self):
        return self.deck


# ---------------------------------------------------------------------------
# engine_threaded / engine_process
# ---------------------------------------------------------------------------


class EngineWorkload(Workload):
    """One ``simulate_program(engine=...)`` of the SR2-fused object-mode
    pipeline; the two subclasses run the identical job."""

    engine = ""
    span_name = ""
    # One rank per core of the reference sandbox (nproc = 2) while the
    # client waits: four rank threads or spinning rank processes on two
    # cores time the host's scheduler — at p = 4 the p95 of the same
    # commit spread by 0.35 to 0.63 across ten runs, at p = 2 by 0.1.
    P = 2
    BLOCK = 50_000
    warmup = 3

    def setup(self) -> None:
        body = (("MPI_Scan", "op_mul"), ("MPI_Reduce", "op_add"))
        self.job = self.plan_job(Job(
            text=render_text("sr2_lists", body), env=list_env(),
            params=MachineParams(p=self.P, ts=10.0, tw=1.0, m=self.BLOCK),
            # both engine workloads draw from the same stream, so the
            # same seed gives both the same job
            inputs=list_blocks(random.Random(f"engine:{self.seed}"),
                               self.P, self.BLOCK)))
        if "SR2-Reduction" not in self.job.plan.derivation.rules_used:
            raise RuntimeError("the engine job did not plan to the "
                               "SR2-fused pipeline")

    def start(self, i: int):
        job = self.job
        with self.tracer.span(self.span_name):
            return simulate_program(job.plan.program, job.inputs,
                                    job.params, engine=self.engine)

    def check(self, i, response) -> bool:
        job = self.job
        self.simulated(job)
        return (_values_equal(response.values, self.reference(job))
                and response.stats.clocks == job.clocks)

    def sim_times(self, i, response):
        return self.simulated(self.job)[0], response.time

    def probe_jobs(self):
        return [self.job]


class EngineThreaded(EngineWorkload):
    name = "engine_threaded"
    why = ("the SR2-fused object-mode pipeline on one thread per rank: "
           "rank threads, the rendezvous and the GIL dominate; the "
           "baseline engine_process must beat")
    engine = "threaded"
    span_name = "threaded.run"
    # Rank threads in object mode hold the GIL to compute, so they run
    # one at a time and gain nothing from a second core (7.4 ms on one
    # core, 7.0 ms on two: the pair with ``engine_process`` is not
    # skewed).  On one core the GIL changes hands without a cross-vCPU
    # wake-up, whose price is the host's (see :class:`ServeHot`), and the
    # speed readings are taken on the core the threads ran on:
    # ``latency_p95_ms`` spread by 0.06 against 0.11 in alternating runs,
    # and by 0.20 unpinned in a busy hour.
    one_core = True


class EngineProcess(EngineWorkload):
    name = "engine_process"
    why = ("the identical job on one process per rank: fork, arena "
           "set-up, shared-memory rings and spinning dominate; fails, "
           "never degrades, if real processes cannot run")
    engine = "process"
    span_name = "parallel.run"
    forks = True

    def setup(self) -> None:
        reason = process_fallback_reason(self.P)
        if reason is not None:
            raise RuntimeError(f"engine_process needs real rank "
                               f"processes: {reason}")
        super().setup()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeHot, PlanCold, ExecBlock,
                              EngineThreaded, EngineProcess)}


def make_workload(name: str, seed: int,
                  tracer: Tracer | None = None) -> Workload:
    return WORKLOADS[name](seed, tracer)
