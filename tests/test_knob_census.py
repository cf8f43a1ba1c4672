"""Knob census: every config field has a caller, or a stated reason.

A field that nothing sets is a second code path only its own unit test
reaches.  This test walks the AST of ``src/``, ``benchmarks/`` and
``examples/`` and requires every field of the seven config / policy
classes, and every parameter of the two runtime-config builders, of the
two syscall-layer constructors and of CAS's (an owner named
``Class.__init__``),
to be set by some call there — or to carry an :data:`ALLOWLIST` entry
with a one-line reason.  The census table with a decision per field is
DESIGN.md §3.

What counts as setting a knob ``f`` (by keyword, or positionally in
declaration order):

- a literal, a module-level name or an expression is a choice;
- a parameter ``p`` of the enclosing function (``f=f``, ``f=p``)
  forwards: the knob is set iff some call sets ``p`` of that function;
- an attribute read off ``self`` or a parameter (``f=self.config.g``)
  forwards: the knob is set iff some knob or parameter named ``g`` is.

Callees are matched by name, which over-approximates (a same-named
function elsewhere can make a knob look set); it never hides a knob
that some call really sets.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from tests._census import ROOT, SEARCH_DIRS, _callee, parsed

#: Knob owner → the module that defines it.
KNOBS: Dict[str, str] = {
    "RuntimeConfig": "src/repro/runtime/scone.py",
    "SyscallPlaneConfig": "src/repro/runtime/syscall_plane.py",
    "PlatformConfig": "src/repro/core/platform.py",
    "TrainingJobConfig": "src/repro/core/training.py",
    "RouterPolicy": "src/repro/serving/router.py",
    "AutoscalerPolicy": "src/repro/serving/autoscaler.py",
    "RetryPolicy": "src/repro/cluster/retry.py",
    "service_runtime_config": "src/repro/core/inference.py",
    "training_runtime_config": "src/repro/core/training.py",
    "SyscallInterface.__init__": "src/repro/runtime/syscall.py",
    "SyscallPlane.__init__": "src/repro/runtime/syscall_plane.py",
    "CasService.__init__": "src/repro/cas/service.py",
}

#: Knobs kept although no program, benchmark or example sets them.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("RuntimeConfig", "allow_dlopen"):
        "the §4.1 dlopen gate; tests/runtime/test_dlopen.py mounts it",
    ("SyscallPlaneConfig", "ring_depth"):
        "ring-full back-pressure is only reachable at a small depth",
    ("SyscallPlaneConfig", "batch_max"):
        "the forced flush of buffered fire-and-forget calls needs a small batch",
    ("PlatformConfig", "fencing"):
        "epoch fencing on the real platform; the fenced tests turn it on",
    ("TrainingJobConfig", "seed"):
        "the e2e benchmark forwards --seed through a registry call",
    ("TrainingJobConfig", "checkpoint_replicas"):
        "self-healing checkpoint reads under storage chaos (k=2)",
    ("RouterPolicy", "per_replica_limit"):
        "the bounded queue's shed and retry paths need a limit of 2",
    ("RouterPolicy", "hedge_min_delay"):
        "the hedge tests move the floor around the injected delay",
    ("RetryPolicy", "max_delay"):
        "the backoff cap; the retry tests pin a capped schedule",
    ("RetryPolicy", "jitter"):
        "zero jitter makes backoff schedules exact in the retry tests",
}

Knob = Tuple[str, str]


def _called_as(owner: str) -> str:
    """The name a call to ``owner`` goes by (a constructor: its class)."""
    return owner.split(".")[0]


def knob_fields(root: Path, knobs: Dict[str, str] = KNOBS) -> Dict[str, List[str]]:
    """Owner → its fields (dataclass annotations) or parameters (builders
    and constructors)."""
    fields: Dict[str, List[str]] = {}
    for owner, module in knobs.items():
        for node in ast.parse((root / module).read_text()).body:
            if isinstance(node, ast.ClassDef) and owner == f"{node.name}.__init__":
                fields[owner] = [
                    param
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                    for param in _params(stmt)
                ]
            elif isinstance(node, ast.ClassDef) and node.name == owner:
                fields[owner] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.FunctionDef) and node.name == owner:
                fields[owner] = _params(node)
    return fields


def _params(func: ast.FunctionDef) -> List[str]:
    names = [a.arg for a in func.args.args + func.args.kwonlyargs]
    return names[1:] if names[:1] in (["self"], ["cls"]) else names


def _root_name(value: ast.expr) -> Optional[str]:
    while isinstance(value, (ast.Attribute, ast.Subscript)):
        value = value.value
    return value.id if isinstance(value, ast.Name) else None


class _Census(ast.NodeVisitor):
    """Direct sets and forwards of every ``(callee, parameter)`` pair."""

    def __init__(self, signatures: Dict[str, List[str]]) -> None:
        self.signatures = signatures
        self.direct: Set[Knob] = set()
        self.forwards: Dict[Knob, Set[Knob]] = {}
        self.attribute_forwards: Dict[Knob, Set[str]] = {}
        self._scope: Optional[Tuple[str, Set[str]]] = None
        self._class: Optional[str] = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        name = self._class if node.name == "__init__" and self._class else node.name
        outer, self._scope = self._scope, (name, set(_params(node)) | {"self"})
        outer_class, self._class = self._class, None
        self.generic_visit(node)
        self._scope, self._class = outer, outer_class

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, call: ast.Call) -> None:
        callee = _callee(call)
        names = self.signatures.get(callee, [])
        pairs = [
            (names[i], arg)
            for i, arg in enumerate(call.args)
            if i < len(names) and not isinstance(arg, ast.Starred)
        ]
        pairs += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
        scope_name, scope_params = self._scope or ("", set())
        for name, value in pairs:
            knob = (callee, name)
            if isinstance(value, ast.Name) and value.id in scope_params:
                self.forwards.setdefault(knob, set()).add((scope_name, value.id))
            elif isinstance(value, ast.Attribute) and _root_name(value) in scope_params:
                self.attribute_forwards.setdefault(knob, set()).add(value.attr)
            else:
                self.direct.add(knob)
        self.generic_visit(call)


def set_knobs(root: Path, knobs: Dict[str, str] = KNOBS) -> Set[Knob]:
    """Every ``(callee, parameter)`` some call in the search dirs sets."""
    trees = [tree for _, tree in parsed(root)]
    signatures: Dict[str, List[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                signatures.setdefault(node.name, _params(node))
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        signatures.setdefault(node.name, _params(stmt))
    signatures.update(
        (_called_as(owner), names) for owner, names in knob_fields(root, knobs).items()
    )
    census = _Census(signatures)
    for tree in trees:
        census.visit(tree)
    done = set(census.direct)
    while True:
        names = {name for _, name in done}
        grown = {
            knob for knob, sources in census.forwards.items() if sources & done
        } | {
            knob
            for knob, attrs in census.attribute_forwards.items()
            if attrs & names
        }
        if grown <= done:
            return done
        done |= grown


def unset_knobs(root: Path = ROOT) -> List[Knob]:
    """Every knob no call sets and no allowlist entry explains."""
    done = set_knobs(root)
    return [
        (owner, name)
        for owner, names in knob_fields(root).items()
        for name in names
        if (_called_as(owner), name) not in done and (owner, name) not in ALLOWLIST
    ]


def test_every_knob_owner_is_found():
    fields = knob_fields(ROOT)
    assert set(fields) == set(KNOBS)
    assert all(fields.values())


def test_every_knob_has_a_caller_or_a_reason():
    assert unset_knobs() == []


def test_allowlist_names_only_real_unset_knobs():
    # A stale entry would hide the next knob that loses its caller.
    fields, done = knob_fields(ROOT), set_knobs(ROOT)
    for (owner, name), reason in ALLOWLIST.items():
        assert name in fields[owner], (owner, name)
        assert (_called_as(owner), name) not in done, (owner, name)
        assert reason.strip()


def test_forwarding_is_followed_and_pass_through_alone_sets_nothing(tmp_path):
    for top in SEARCH_DIRS:
        (tmp_path / top).mkdir()
    knobs = {"RouterPolicy": "src/router.py"}
    module = tmp_path / knobs["RouterPolicy"]
    module.write_text(
        "class RouterPolicy:\n"
        "    max_attempts: int = 3\n"
        "    hedge: bool = True\n"
        "    hedge_min_delay: float = 0.05\n"
    )
    (tmp_path / "benchmarks" / "bench_x.py").write_text(
        "def plane(hedge, delay):\n"
        "    return RouterPolicy(hedge=hedge, hedge_min_delay=delay)\n"
        "class Rig:\n"
        "    def policy(self):\n"
        "        return RouterPolicy(max_attempts=self.cfg.max_attempts)\n"
        "plane(False)\n"
    )
    done = set_knobs(tmp_path, knobs)
    assert ("RouterPolicy", "hedge") in done  # plane(False) reaches it
    assert ("RouterPolicy", "hedge_min_delay") not in done  # forwarded only
    assert ("RouterPolicy", "max_attempts") not in done  # self.cfg.f alone


def test_a_constructor_parameter_nobody_sets_is_reported(tmp_path):
    for top in SEARCH_DIRS:
        (tmp_path / top).mkdir()
    knobs = {"Plane.__init__": "src/plane.py"}
    (tmp_path / knobs["Plane.__init__"]).write_text(
        "class Plane:\n"
        "    def __init__(self, clock, depth=4, spare=None):\n"
        "        self.clock = clock\n"
    )
    (tmp_path / "benchmarks" / "bench_x.py").write_text("Plane(object(), depth=8)\n")
    assert knob_fields(tmp_path, knobs) == {"Plane.__init__": ["clock", "depth", "spare"]}
    done = set_knobs(tmp_path, knobs)
    assert {("Plane", "clock"), ("Plane", "depth")} <= done
    assert ("Plane", "spare") not in done
