"""Every module under ``src/repro`` is reached from a front door, or listed.

An ``ast`` walk of the import statements (module level and lazy, absolute
and relative) starting at the package's front doors.  A module nothing
reaches is either wired in, deleted, or entered in :data:`UNREACHED` with
the reason it stays — the ``NO_TABLE1_FORM`` / ``JIT_UNCOMPILED``
precedent: the exception is a table someone has to edit, not a silence.
``DESIGN.md`` ("Unreached modules") carries the keep / move / delete
decision for each entry.

The second half holds what the same PR deleted as deleted: a duplicate
path comes back most easily as an alias "for convenience".  The third
holds the communication loops to one copy each: the two-level collectives
and the blocking communicator are callers, not restatements.  The fourth
holds the fault verdict to one interpreter: no subclass re-homes its
stores, and the process substrate opens them without the recovery runtime.
The fifth holds escalation to one ladder: one backoff formula, one
``fallback`` emitter, the one platform check read in one place, and an
``OSError`` caught around arena construction only.  The sixth holds the
served hand-off lean: a job handle waits on a bare lock, the job
counters are a reading of the event bus, and a program hashes in one
place.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
REPO = Path(__file__).parent.parent

FRONT_DOORS = ("repro", "repro.__main__", "repro.cli", "repro.serving",
               "repro.testing", "repro.apps")

#: module -> why it may stay although no front door reaches it
UNREACHED = {
    "repro.core.bsp":
        "BSPParams.as_machine(); tests/test_bsp_calibration.py only",
    "repro.machine.topologies":
        "ring / mesh / hypercube link costs; tests/test_topologies.py only",
    "repro.semantics.homomorphisms":
        "list-homomorphism view of the rules; tests/test_homomorphisms.py only",
    "repro.semantics.equivalence":
        "randomized equivalence helper of two test files; belongs in testing/",
    "repro.analysis.calibration":
        "(ts, tw) fit on the simulator; ROADMAP item 5 points it at the real "
        "substrates or deletes it",
    "repro.apps.vectorops":
        "elementwise vector app; its own test and two wall-clock benches",
}


def _modules() -> dict[str, Path]:
    found = {}
    for path in ROOT.rglob("*.py"):
        parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules ``name`` imports, packages on the way included."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: climb level - 1 packages up
                pkg = package.split(".")
                base = ".".join(pkg[:len(pkg) - node.level + 1]
                                + ([base] if base else []))
            targets.add(base)
            # ``from package import submodule``
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for target in targets:
        parts = target.split(".")
        for n in range(1, len(parts) + 1):
            prefix = ".".join(parts[:n])
            if prefix in modules:
                reached.add(prefix)
    return reached


@pytest.fixture(scope="module")
def walk() -> tuple[set[str], dict[str, Path]]:
    """(modules a front door reaches, every module under ``src/repro``)."""
    modules = _modules()
    seen: set[str] = set()
    todo = list(FRONT_DOORS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_imports(name, modules[name], modules))
    return seen, modules


def test_every_module_is_reached_or_listed(walk):
    seen, modules = walk
    unlisted = sorted(set(modules) - seen - set(UNREACHED))
    assert not unlisted, (
        f"no front door imports {unlisted}: wire it in, delete it, or list "
        f"it in UNREACHED with the reason it stays")


def test_no_stale_entry(walk):
    seen, modules = walk
    gone = sorted(set(UNREACHED) - set(modules))
    assert not gone, f"UNREACHED names modules that no longer exist: {gone}"
    wired = sorted(set(UNREACHED) & seen)
    assert not wired, f"UNREACHED names modules a front door now reaches: {wired}"


# -- deleted surface stays deleted ---------------------------------------------

def _sources_and_prose() -> list[Path]:
    return [*sorted((REPO / "src").rglob("*.py")),
            *sorted((REPO / "docs").glob("*.md")),
            REPO / "README.md", REPO / "DESIGN.md"]


@pytest.mark.parametrize("pattern", [
    pytest.param(r"rabenseifner", id="second-halving-doubling-kernel"),
    pytest.param(r"run_vectorized\(self", id="Program.run_vectorized"),
    pytest.param(r"run_jit\(self", id="Program.run_jit"),
    pytest.param(r"run_program\([^)]*mode=", id="run_program-mode"),
])
def test_deleted_doors_stay_deleted(pattern):
    hits = [str(path.relative_to(REPO)) for path in _sources_and_prose()
            if re.search(pattern, path.read_text())]
    assert not hits, f"/{pattern}/ is back in {hits}"


def test_every_deck_mixes_its_seeds_in_one_place():
    hits = [path.name for path in sorted((ROOT / "testing").glob("*.py"))
            for _ in re.findall("1_000_003", path.read_text())]
    assert hits == ["generator.py"], hits


# -- a communication loop is written once --------------------------------------

def test_the_two_level_collectives_contain_no_loop_of_their_own():
    """``machine/hierarchical.py`` composes the flat algorithms over
    groups: it sends, receives and iterates nothing itself."""
    tree = ast.parse((ROOT / "machine" / "hierarchical.py").read_text())
    primitives = [node.func.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("send", "recv", "sendrecv")]
    assert primitives == []
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.While, ast.For))]


def test_the_blocking_communicator_is_the_generator_one_driven():
    from repro.mpi.comm import COMMUNICATION, Comm
    from repro.mpi.threaded import ThreadedComm

    tree = ast.parse((ROOT / "mpi" / "threaded.py").read_text())
    (cls,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "ThreadedComm"]
    own = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert not own & set(COMMUNICATION), own
    for name in COMMUNICATION:
        generator = vars(Comm)[name]
        assert inspect.isgeneratorfunction(generator), name
        blocking = vars(ThreadedComm)[name]
        assert blocking.__wrapped__ is generator, name
        assert not inspect.isgeneratorfunction(blocking), name
    # the tuple misses no method of Comm that communicates
    assert {name for name, fn in vars(Comm).items()
            if inspect.isgeneratorfunction(fn)} == set(COMMUNICATION)


def test_the_payload_snapshot_is_taken_once():
    hits = [path.name
            for path in sorted((ROOT / "machine" / "collectives").glob("*.py"))
            for _ in re.findall(r"dict\(blocks\)", path.read_text())]
    assert hits == ["gather.py"], hits


def test_a_lost_peer_is_handled_by_the_primitives():
    """``send_or_lose`` / ``recv_or`` / ``sendrecv_or`` carry the idiom;
    only the ring, whose ``try`` also stores the block, keeps its own."""
    handlers = [path.name
                for path in sorted((ROOT / "machine" / "collectives").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler)
                and isinstance(node.type, ast.Name)
                and node.type.id == "PeerDeadError"]
    assert len(handlers) <= 1, handlers


# -- one fault interpreter -----------------------------------------------------

def _trees() -> dict[str, ast.Module]:
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text())
            for path in sorted(ROOT.rglob("*.py"))}


def test_nothing_derives_from_the_fault_interpreter():
    found = [(name, node.name) for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any("FaultState" in ast.unparse(base) for base in node.bases)]
    assert not found, found
    defs = [(name, node.name) for name, tree in _trees().items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name in ("resolve", "_play")]
    assert defs == [("faults/state.py", "resolve"),
                    ("faults/state.py", "_play")], defs


def test_the_fault_stores_have_no_storage_hooks():
    hooks = [(name, node.name) for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and (node.name.startswith("_note_")
                  or node.name in ("_advance_cursor", "_record_host_death"))]
    assert not hooks, hooks


def test_the_arena_lists_no_fault_field_by_hand():
    tree = ast.parse((ROOT / "parallel" / "shm.py").read_text())
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.startswith("f_")]
    assert not literals, literals


def test_the_process_substrate_does_not_import_recovery(walk):
    _seen, modules = walk
    found = {name: sorted(target for target in _imports(name, path, modules)
                          if target.startswith("repro.recovery"))
             for name, path in modules.items()
             if name.startswith("repro.parallel")}
    assert not any(found.values()), found


# -- one escalation ladder -----------------------------------------------------

def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == name]


def test_one_backoff_formula():
    """Every retry wait is ``recovery.health.backoff``; only the clock that
    charges it differs.  (``FaultPlan.retry_penalty`` is the simulated
    link's own retry cost — part of the fault model, not a policy.)"""
    trees = _trees()
    defs = [(name, node.name) for name, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and "backoff" in node.name]
    assert defs == [("recovery/health.py", "backoff")], defs
    powers = [(name, ast.unparse(node)) for name, tree in trees.items()
              if name.startswith(("recovery/", "serving/", "parallel/"))
              for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert powers == [("recovery/health.py", "2.0 ** (n - 1)")], powers


def test_one_fallback_emitter_and_one_platform_check():
    trees = _trees()
    emits = [name for name, tree in trees.items()
             for node in _calls(tree, "emit")
             if node.args and isinstance(node.args[0], ast.Constant)
             and node.args[0].value == "fallback"]
    assert emits == ["parallel/backend.py"], emits
    checks = [name for name, tree in trees.items()
              if name.startswith(("recovery/", "serving/", "parallel/"))
              for _ in _calls(tree, "process_fallback_reason")]
    assert checks == ["parallel/backend.py"], checks


def _catches_oserror(handler: ast.ExceptHandler) -> bool:
    names = ({ast.unparse(t) for t in handler.type.elts}
             if isinstance(handler.type, ast.Tuple)
             else {ast.unparse(handler.type)} if handler.type else set())
    return bool(names & {"OSError", "IOError", "EnvironmentError"})


def test_oserror_is_caught_around_arena_construction_only():
    """A ``FaultTimeoutError`` is an ``OSError``: a catch wider than the
    arena's construction takes a run's own failure for ``/dev/shm``.
    (``parallel/shm.py`` keeps its best-effort unlink of a closing arena.)"""
    trees = _trees()
    guarded = [(name, node) for name, tree in trees.items()
               if name == "parallel/backend.py"
               or name.startswith(("recovery/", "serving/"))
               for node in ast.walk(tree) if isinstance(node, ast.Try)
               and any(_catches_oserror(h) for h in node.handlers)]
    assert [name for name, _ in guarded] == ["parallel/backend.py"], guarded
    (_, node), = guarded
    calls = {ast.unparse(call.func) for stmt in node.body
             for call in ast.walk(stmt) if isinstance(call, ast.Call)}
    assert calls == {"SharedArena", "pool.acquire"}, calls


def test_the_hand_written_counters_are_gone():
    gone = {"LinkHealthBoard", "_streak", "CircuitBreaker", "backoff_for",
            "should_quarantine", "process_backend_available"}
    found = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            ident = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(
                         node, (ast.ClassDef, ast.FunctionDef, ast.alias))
                     else node.value if isinstance(node, ast.Constant)
                     and isinstance(node.value, str) else None)
            if ident in gone:
                found.add((name, ident))
    assert not found, sorted(found)


# -- the served hand-off -------------------------------------------------------

def test_a_job_handle_waits_on_a_bare_lock():
    assert not _calls(ast.parse((ROOT / "serving" / "job.py").read_text()),
                      "Event")


def test_the_job_counters_are_a_reading_of_the_bus():
    tree = ast.parse((ROOT / "serving" / "manager.py").read_text())
    (cls,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "ServingManager"]
    found = [ast.unparse(node) for node in ast.walk(cls)
             if isinstance(node, ast.FunctionDef) and node.name == "_count"
             or isinstance(node, ast.Attribute)
             and node.attr in ("_count", "counters")]
    assert not found, found


def test_a_program_hashes_in_one_place():
    defs = [(name, cls.name) for name, tree in _trees().items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__"]
    assert defs == [("core/stages.py", "Program")], defs
