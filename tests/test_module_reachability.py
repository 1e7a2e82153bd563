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
