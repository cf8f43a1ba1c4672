"""Wait census: inside the simulation, every wait is a ``yield``.

``Scheduler.run_until`` and ``Scheduler.drive`` drain the event heap on
the caller's Python stack, so they belong only to synchronous code
*outside* the simulation — a test, an example, a top-level ``train()``.
Both refuse to run while an event executes; this census keeps their
callers in ``src/`` to a list of outermost entry points, each with a
one-line reason.  Library code that needs to wait is an activity and
yields the completion instead (see :mod:`repro._sim.scheduler`).

The census walks the AST of ``src/`` and matches calls by method name,
so it also catches a wait hidden behind a local alias of the scheduler.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The heap-draining waits of synchronous code.
WAITS = {"run_until", "drive"}

#: (module under src/repro, enclosing function) → why it may wait there.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("cluster/rpc.py", "RpcClient.call"):
        "the blocking RPC of tests, examples and setup code",
    ("cluster/rpc.py", "SecureConnection.call"):
        "the blocking secure RPC of tests and setup code",
    ("cluster/rpc.py", "SecureRpcClient.connect"):
        "the blocking handshake of tests and setup code",
    ("cas/client.py", "RemoteCasClient.provision"):
        "provisioning a runtime from setup code (the platform's provision_runtime)",
    ("cas/failover.py", "ReplicatedCasPair._replicate_op"):
        "a policy registration, made by the data owner outside the simulation",
    ("cas/failover.py", "ReplicatedCasPair._replicate_record"):
        "an audit commit made outside the simulation; remote commits defer",
    ("core/inference.py", "InferenceService.start"):
        "one service's synchronous boot; launch_fleet boots activities",
    ("core/training.py", "TrainingJob.start"):
        "launching and provisioning a job before its first round",
    ("cluster/parameter_server.py", "SyncTrainer.train"):
        "the training rounds, driven from the top-level train() call",
    ("serving/service.py", "ServingPlane.__init__"):
        "the initial replicas boot one after another while the plane is built",
    ("serving/traffic.py", "TrafficGenerator.run"):
        "the closed-loop client fleet's outermost wait",
    ("chaos/scenarios.py", "_run_router_handoff.dispatch"):
        "a campaign step issued from outside the heap",
}


def _waits(path: Path) -> List[Tuple[str, int]]:
    """(enclosing qualified function, line) of every wait call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: List[Tuple[str, int]] = []

    def visit(node: ast.AST, scope: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in WAITS
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def census() -> Dict[Tuple[str, str], List[int]]:
    sites: Dict[Tuple[str, str], List[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function, line in _waits(path):
            sites.setdefault((module, function), []).append(line)
    return sites


def test_every_wait_in_src_is_an_allowlisted_entry_point():
    unlisted = [
        f"src/repro/{module}:{lines[0]} in {function or '<module>'}"
        for (module, function), lines in census().items()
        if (module, function) not in ALLOWLIST
    ]
    assert not unlisted, (
        "heap-draining waits outside the entry points (an activity yields "
        "the completion instead): " + ", ".join(unlisted)
    )


def test_allowlist_has_no_stale_entries():
    sites = census()
    stale = [key for key in ALLOWLIST if key not in sites]
    assert not stale, f"allowlisted entry points that no longer wait: {stale}"


def test_the_scheduler_itself_defines_the_waits():
    """The census matches by name: the two waits must still exist."""
    from repro._sim import Scheduler

    for name in WAITS:
        assert callable(getattr(Scheduler, name))
