"""Wait census: inside the simulation, every wait is a ``yield``, and
every sleep is a timer.

``Scheduler.run_until`` and ``Scheduler.drive`` drain the event heap on
the caller's Python stack, so they belong only to synchronous code
*outside* the simulation — a test, an example, a top-level ``train()``.
Both refuse to run while an event executes; this census keeps their
callers in ``src/`` to a list of outermost entry points, each with a
one-line reason.  Library code that needs to wait is an activity and
yields the completion instead (see :mod:`repro._sim.scheduler`).

A second census keeps raw event scheduling (``Scheduler.schedule``) to
the scheduler's own primitives and the network's wire: anything else
that must happen later — a recurring tick, a backoff, a boot delay —
sleeps on :meth:`Scheduler.timer <repro._sim.scheduler.Scheduler.timer>`
inside an activity.

Both censuses walk the AST of ``src/`` and match calls by method name,
so they also catch a call hidden behind a local alias of the scheduler.
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


#: The raw heap insertion.
SCHEDULES = {"schedule"}

#: (module under src/repro, enclosing function) → why it may schedule.
SCHEDULE_ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("_sim/scheduler.py", "Scheduler.timer"):
        "the one timer primitive: a completion resolved at an absolute time",
    ("_sim/scheduler.py", "Scheduler.spawn"):
        "an activity's first step, as a spawn: event",
    ("cluster/network.py", "Network.call_async"):
        "a request's delivery event, at its arrival time",
    ("cluster/network.py", "Network._finish_reply"):
        "a reply's landing event, at its arrival time",
    ("serving/router.py", "FrontEndRouter._handle"):
        "the per-request deadline and hedge timers, cancelled when the "
        "request settles (ROADMAP C(2) reworks them)",
}


def _calls(path: Path, names=WAITS) -> List[Tuple[str, int]]:
    """(enclosing qualified function, line) of every call in ``path`` to
    a method named in ``names``."""
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
                and child.func.attr in names
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


def census(names=WAITS) -> Dict[Tuple[str, str], List[int]]:
    sites: Dict[Tuple[str, str], List[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function, line in _calls(path, names):
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


def test_every_raw_schedule_in_src_is_allowlisted():
    unlisted = [
        f"src/repro/{module}:{lines[0]} in {function or '<module>'}"
        for (module, function), lines in census(SCHEDULES).items()
        if (module, function) not in SCHEDULE_ALLOWLIST
    ]
    assert not unlisted, (
        "raw Scheduler.schedule calls outside the primitives (an activity "
        "sleeps on Scheduler.timer instead): " + ", ".join(unlisted)
    )


def test_schedule_allowlist_has_no_stale_entries():
    sites = census(SCHEDULES)
    stale = [key for key in SCHEDULE_ALLOWLIST if key not in sites]
    assert not stale, f"allowlisted functions that no longer schedule: {stale}"


def test_raw_schedules_stay_at_six():
    """One per allowlisted function, and the router's two timers."""
    assert sum(len(lines) for lines in census(SCHEDULES).values()) == 6
