"""The rendezvous kernel on its list store: no thread, no fork.

:class:`repro.machine.rendezvous.Rendezvous` is the one statement of the
machine model under all three engines.  The first half drives it directly
through a store whose ``_wake`` only records — every pairing, the
contention domains, the fault verdicts, the death bookkeeping and the
deadlock report.  The second half is the structural claim: the kernel is
*shared*, so a mutation of its completion formula moves all three
engines' simulated time by the same amount, and every engine's
statistics and fault forensics come out the same.
"""

from __future__ import annotations

import ast
import io
import random
import re
import tokenize
from pathlib import Path

import pytest

from repro.analysis.gantt import comm_gantt
from repro.core.cost import MachineParams
from repro.core.operators import ADD
from repro.core.stages import AllReduceStage, BcastStage, Program, ScanStage
from repro.faults import (
    FaultPlan,
    FaultState,
    FaultTimeoutError,
    LinkFault,
    PeerDeadError,
    RankCrash,
    RankCrashedError,
)
from repro.machine import ENGINES
from repro.machine.hierarchical import TwoLevelParams
from repro.machine.primitives import Compute, Probe, Recv, Send, SendRecv
from repro.machine.rendezvous import DeadlockError, Rendezvous
from repro.machine.run import simulate_program
from repro.parallel import process_fallback_reason
from repro.testing.generator import generate_random

PARAMS = MachineParams(p=4, ts=10.0, tw=2.0, m=1)
WIRE = 10.0 + 2.0 * 3  # one 3-word message


class Recording(Rendezvous):
    """The list store; a woken rank is only written down."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.woken: list[tuple] = []

    def _wake(self, rank, value=None, failure=None) -> None:
        self.woken.append((rank, value, failure))


def _faulty(plan: FaultPlan, size: int = 4, **kw) -> Recording:
    return Recording(size, PARAMS, FaultState(plan, size), **kw)


class TestPairing:
    @pytest.mark.parametrize("sender_first", [True, False])
    def test_send_meets_recv_in_either_arrival_order(self, sender_first):
        rdv = Recording(4, PARAMS, initial_clocks=[5.0, 0.0, 0.0, 0.0])
        posts = [(0, Send(1, "x", 3)), (1, Recv(0))]
        first, second = posts if sender_first else posts[::-1]
        rdv.post(*first)
        assert rdv.woken == []
        rdv.post(*second)
        # the sender resumes with nothing, the receiver with the payload
        assert rdv.woken == [(0, None, None), (1, "x", None)]
        assert rdv.clock == [5.0 + WIRE, 5.0 + WIRE, 0.0, 0.0]
        assert rdv.pending == [None] * 4
        stats = rdv.stats
        assert (stats.messages, stats.words) == (1, 3)
        assert stats.events == [(0, 1, 5.0 + WIRE, 3)]

    @pytest.mark.parametrize("low_first", [True, False])
    def test_exchange_in_either_arrival_order(self, low_first):
        rdv = Recording(4, PARAMS)
        posts = [(1, SendRecv(2, "from1", 3)), (2, SendRecv(1, "from2", 1))]
        for post in posts if low_first else posts[::-1]:
            rdv.post(*post)
        # full duplex: one message time at the larger size; the lower
        # rank leads whatever the arrival order
        assert rdv.woken == [(1, "from2", None), (2, "from1", None)]
        assert rdv.clock[1] == rdv.clock[2] == WIRE
        assert (rdv.stats.messages, rdv.stats.words) == (2, 4)
        assert rdv.stats.events == [(1, 2, WIRE, 3), (2, 1, WIRE, 1)]

    @pytest.mark.parametrize("a, b", [
        (Send(1, "x", 1), Recv(2)),            # waiting on someone else
        (Send(1, "x", 1), Send(0, "y", 1)),    # two senders
        (Recv(1), Recv(0)),                    # two receivers
        (SendRecv(1, "x", 1), Recv(0)),        # exchange vs receive
        (Send(1, "x", 1), SendRecv(0, "y", 1)),
    ])
    def test_mismatched_partners_do_not_pair(self, a, b):
        rdv = Recording(4, PARAMS)
        rdv.post(0, a)
        rdv.post(1, b)
        assert rdv.woken == [] and rdv.stats.messages == 0
        assert not rdv.try_match(0) and not rdv.try_match(1)

    @pytest.mark.parametrize("posts, delivered", [
        ([(0, Send(1, "x", 3)), (1, Recv(0))], [(0, 1)]),
        ([(2, SendRecv(1, "b", 1)), (1, SendRecv(2, "a", 3))],
         [(1, 2), (2, 1)]),
    ])
    def test_every_delivery_precedes_both_wake_ups(self, posts, delivered):
        # the process store moves its payload in _deliver: the receiver
        # must find it settled when it resumes
        calls = []

        class Ordered(Recording):
            def _deliver(self, src, dst, t, words):
                assert self.clock[src] == self.clock[dst] == t
                assert self.pending[src] is self.pending[dst] is None
                calls.append((src, dst))

            def _wake(self, rank, value=None, failure=None):
                calls.append(rank)

        rdv = Ordered(4, PARAMS)
        for post in posts:
            rdv.post(*post)
        assert calls == delivered + sorted(r for r, _ in posts)

    def test_local_actions_touch_only_their_rank(self):
        rdv = Recording(2, PARAMS)
        assert rdv.local(0, Compute(7.0)) and rdv.local(0, Probe("tag"))
        assert not rdv.local(0, Recv(1))
        assert rdv.clock == [7.0, 0.0]
        assert rdv.stats.compute_ops == 7.0
        assert rdv.stats.timeline == [(0, "tag", 7.0)]
        with pytest.raises(ValueError, match="negative"):
            rdv.local(0, Compute(-1.0))

    def test_result_reports_clocks_and_makespan(self):
        rdv = Recording(2, PARAMS)
        rdv.post(0, Send(1, "x", 3))
        rdv.post(1, Recv(0))
        res = rdv.result(["a", "b"])
        assert res.values == ("a", "b") and res.time == WIRE
        assert res.stats.clocks == (WIRE, WIRE) and res.faults is None


def test_contention_domains_serialise_inter_node_messages():
    smp = TwoLevelParams(p=4, ts=10.0, tw=2.0, m=1, nodes=2, cores=2,
                         ts_intra=1.0, tw_intra=0.5)
    rdv = Recording(4, smp)
    for rank, action in [(0, Send(2, "a", 3)), (2, Recv(0)),   # node 0 -> 1
                         (1, Send(3, "b", 3)), (3, Recv(1))]:  # same NICs
        rdv.post(rank, action)
    # the second inter-node message waits for both NICs to fall idle
    assert rdv.clock == [WIRE, 2 * WIRE, WIRE, 2 * WIRE]
    rdv.post(0, Send(1, "c", 2))                               # intra-node
    rdv.post(1, Recv(0))
    assert rdv.clock[0] == rdv.clock[1] == 2 * WIRE + 1.0 + 0.5 * 2


class TestFaultVerdicts:
    def test_drop_retry_delivered(self):
        rdv = _faulty(FaultPlan(link_faults=(LinkFault(0, 1, "drop"),)))
        rdv.post(0, Send(1, "x", 3))
        rdv.post(1, Recv(0))
        assert rdv.woken == [(0, None, None), (1, "x", None)]
        # one lost attempt costs 2x the wire time, then the delivery
        assert rdv.clock[0] == rdv.clock[1] == 3 * WIRE
        summary = rdv.result([None] * 4).faults
        assert summary.drops == (((0, 1), 1),) and summary.retries == 1
        assert summary.extra_delay == 2 * WIRE and summary.timeouts == ()

    def test_dead_link_times_out_both_endpoints_at_one_clock(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1, "drop", count=None),),
                         max_retries=1)
        rdv = _faulty(plan, initial_clocks=[4.0, 9.0, 0.0, 0.0])
        rdv.post(1, Recv(0))
        rdv.post(0, Send(1, "x", 3))
        (r1, _, e1), (r0, _, e0) = rdv.woken
        assert (r1, r0) == (1, 0)
        for exc in (e0, e1):
            assert isinstance(exc, FaultTimeoutError)
            assert (exc.src, exc.dst, exc.attempts) == (0, 1, 2)
        assert e0.clock == e1.clock == rdv.clock[0] == rdv.clock[1] \
            == 9.0 + 2 * WIRE
        assert rdv.pending == [None] * 4 and rdv.stats.messages == 0
        assert rdv.fstate.summary().timeouts == ((0, 1),)

    def test_crash_takes_effect_at_the_post(self):
        rdv = _faulty(FaultPlan(crashes=(RankCrash(rank=2, at_clock=5.0),)))
        rdv.local(2, Compute(6.0))
        with pytest.raises(RankCrashedError) as info:
            rdv.post(2, Send(3, "x", 1))
        assert (info.value.rank, info.value.clock) == (2, 6.0)
        assert rdv.fstate.is_dead(2) and rdv.fstate.death_clock(2) == 6.0
        assert rdv.pending[2] is None and not rdv.alive[2]

    def test_blocked_and_late_peers_both_get_peer_dead(self):
        rdv = _faulty(FaultPlan(crashes=(RankCrash(rank=2, at_clock=0.0),)))
        rdv.post(3, Recv(2))                      # blocked before the death
        with pytest.raises(RankCrashedError):
            rdv.post(2, Send(3, "x", 1))
        (rank, _, exc), = rdv.woken
        assert rank == 3 and isinstance(exc, PeerDeadError)
        assert (exc.peer, exc.death_clock) == (2, 0.0)
        assert "Recv(src=2)" in exc.pending
        with pytest.raises(PeerDeadError) as late:  # posts after the death
            rdv.post(0, SendRecv(2, "y", 1))
        assert (late.value.rank, late.value.peer) == (0, 2)
        assert rdv.pending == [None] * 4


class TestDeadlock:
    def test_report_names_every_rank(self):
        rdv = Recording(3, PARAMS)
        rdv.finish(2)
        rdv.local(0, Compute(2.0))
        rdv.post(0, Recv(1))
        rdv.post(1, Recv(0))                       # nobody will ever send
        assert [rank for rank, _, _ in rdv.woken] == [0, 1]
        texts = {str(exc) for _, _, exc in rdv.woken}
        assert all(isinstance(exc, DeadlockError) for _, _, exc in rdv.woken)
        assert texts == {
            "simulation deadlocked: no progress possible (protocol mismatch)\n"
            "rank 0: blocked on Recv(src=1) at t=2 [pending src=1 dst=0 words=?]\n"
            "rank 1: blocked on Recv(src=0) at t=0 [pending src=0 dst=1 words=?]\n"
            "rank 2: finished at t=0"}

    def test_a_finishing_rank_strands_its_partner(self):
        rdv = Recording(2, PARAMS)
        rdv.post(0, Send(1, "x", 1))
        assert rdv.woken == []
        rdv.finish(1)
        (rank, _, exc), = rdv.woken
        assert rank == 0 and isinstance(exc, DeadlockError)


# ---------------------------------------------------------------------------
# One kernel under three engines
# ---------------------------------------------------------------------------

PROG = Program([ScanStage(ADD), AllReduceStage(ADD), BcastStage()],
               name="scan;allreduce;bcast")
P8 = MachineParams(p=8, ts=10.0, tw=1.0, m=4)
XS8 = list(range(1, 9))


def _engines(p: int) -> list:
    """Every engine, the process one skipped where it cannot fork."""
    reason = process_fallback_reason(p)
    return [pytest.param(e, marks=pytest.mark.skipif(
        e == "process" and reason is not None, reason=reason or ""))
        for e in ENGINES]


@pytest.mark.parametrize("engine", _engines(8))
def test_a_mutation_of_the_kernel_moves_every_engine_alike(engine, monkeypatch):
    """+1 per message in the shared completion formula lengthens the
    critical path by its message count — three collectives of log2 8
    rounds each — on whichever engine runs; a private copy of the formula anywhere would not move."""
    honest = simulate_program(PROG, XS8, P8, engine=engine)
    original = Rendezvous.comm_complete

    def slower(self, src, dst, words, extra=0.0):
        return original(self, src, dst, words, extra + 1.0)

    monkeypatch.setattr(Rendezvous, "comm_complete", slower)
    mutated = simulate_program(PROG, XS8, P8, engine=engine)
    assert mutated.values == honest.values
    assert mutated.time == honest.time + 9.0
    assert mutated.stats.clocks != honest.stats.clocks


def test_threaded_results_carry_the_delivered_messages():
    """``SimStats.events`` is the kernel's tally, so the threaded engine
    keeps it too: the cooperative run's messages, in arrival order."""
    for seed in range(12):
        rng = random.Random(seed)
        gp = generate_random(rng)
        p = rng.choice((2, 3, 4, 8))
        params = MachineParams(p=p, ts=7.0, tw=0.5, m=rng.choice((1, 16)))
        xs = gp.inputs(rng, p)
        coop = simulate_program(gp.program, list(xs), params)
        thr = simulate_program(gp.program, list(xs), params,
                               engine="threaded")
        assert sorted(thr.stats.events) == sorted(coop.stats.events)
        assert len(thr.stats.events) == coop.stats.messages
        # ... so the timeline chart of a threaded run is no longer blank
        assert comm_gantt(thr) == comm_gantt(coop)


def test_jittered_fault_forensics_are_one_record_on_every_engine():
    """Jitter charges every message a pseudo-random float; under three
    collectives at p = 8 many pairs match concurrently.  The summary
    files each charge under its matched pair and ``fsum``\\ s them, so 20
    threaded runs, the cooperative run and the process run agree to the
    last bit."""
    plan = FaultPlan(link_faults=(LinkFault(0, 4, "drop"),
                                  LinkFault(3, 2, "delay", delay=2.5)),
                     jitter=0.37, seed=5)
    want = simulate_program(PROG, XS8, P8, faults=plan)
    assert want.faults.extra_delay > 0 and want.faults.retries == 1
    for _ in range(20):
        got = simulate_program(PROG, XS8, P8, faults=plan, engine="threaded")
        assert got.faults == want.faults
        assert got.stats.clocks == want.stats.clocks
    if process_fallback_reason(8) is None:
        got = simulate_program(PROG, XS8, P8, faults=plan, engine="process")
        assert got.faults == want.faults
        assert got.stats.clocks == want.stats.clocks


# ---------------------------------------------------------------------------
# Structure: the machine model is stated in rendezvous.py and nowhere else
# ---------------------------------------------------------------------------

SRC = Path(__file__).parent.parent / "src" / "repro"
KERNEL = SRC / "machine" / "rendezvous.py"
ENGINE_FILES = (SRC / "machine" / "engine.py", SRC / "mpi" / "threaded.py",
                SRC / "parallel" / "backend.py")


def _code(path: Path) -> str:
    """``path``'s source with comments and string literals removed."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return " ".join(tok.string for tok in tokens
                    if tok.type not in (tokenize.COMMENT, tokenize.STRING))


def _layer_files() -> list[Path]:
    return [path for layer in ("machine", "mpi", "parallel")
            for path in sorted((SRC / layer).rglob("*.py"))]


def test_the_completion_expression_is_stated_in_the_kernel_only():
    pattern = r"\bts\s*\+\s*tw\s*\*\s*words\b"
    stated = [path for path in _layer_files()
              if re.search(pattern, _code(path))]
    assert stated == [KERNEL]


def _pairing_functions(path: Path) -> list[str]:
    """Functions that both test for a ``SendRecv`` and read the
    ``pending`` store — the shape of the pairing logic.  (An engine may
    ask ``isinstance(action, (Send, SendRecv))`` to stage a payload.)"""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        tests = any(isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "isinstance"
                    and "SendRecv" in ast.unparse(n.args[1]) for n in nodes)
        reads = any(isinstance(n, ast.Attribute) and n.attr == "pending"
                    for n in nodes)
        if tests and reads:
            found.append(fn.name)
    return found


def test_the_pairing_logic_is_in_the_kernel_only():
    assert {path.name: fns for path in _layer_files()
            if (fns := _pairing_functions(path))} \
        == {KERNEL.name: ["try_match"]}


def test_the_engines_keep_no_match_clock_or_verdict_body():
    owned = {"comm_complete", "fault_resolve", "try_match", "deadlocked",
             "fail_all", "wake_waiters_on", "wake_waiters", "post", "kill"}
    for path in ENGINE_FILES[1:]:
        defined = {node.name.lstrip("_")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & owned, (path.name, defined & owned)
    # the cooperative store adds one thing to a kill: closing the generator
    defined = {node.name.lstrip("_")
               for node in ast.walk(ast.parse(ENGINE_FILES[0].read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert defined & owned == {"kill"}


def test_the_two_folded_entry_points_are_gone():
    root = SRC.parent.parent
    for path in [*SRC.rglob("*.py"), *(root / "benchmarks").rglob("*.py"),
                 *(root / "docs").glob("*.md"), root / "README.md"]:
        text = path.read_text()
        for name in ("simulate_program_" + "threaded",
                     "simulate_program_" + "process"):
            assert name not in text, (name, path)
