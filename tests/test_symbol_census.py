"""Symbol census: every public symbol has a caller, or a stated reason.

A function, class or method that only its test calls is a second code
path: it has to be kept correct, and nothing the platform does depends
on it.  This test walks the AST of ``src/``, ``benchmarks/`` and
``examples/`` and requires every public symbol defined in
``src/repro/`` — a top-level function or class, or a public method or
property of a top-level class — to have a caller there, or to carry an
:data:`ALLOWLIST` entry with a one-line reason.  The census table is
DESIGN.md §3, next to the knob census's.

What counts as a caller of a symbol named ``f``, anywhere outside
``f``'s own definition:

- the name ``f`` read, or an attribute ``.f`` read, written or called;
- the string ``"f"`` handed to ``getattr`` (or ``hasattr`` /
  ``setattr`` / ``delattr``): dispatch by name;
- a decorator defined in the search dirs applied to ``f``: a
  registration, so the registry calls it.

An ``__all__`` entry and an import (a package's re-export) are not
callers.  Symbols are matched by name, like the knob census's callees:
a same-named use elsewhere counts, which can make a symbol look called;
it never hides a real caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

from tests._census import ROOT, SEARCH_DIRS, _callee, parsed

#: Symbols kept although no program, benchmark or example calls them:
#: each lets a test mount an attack or substitute a fake.
ALLOWLIST: Dict[str, str] = {
    "repro.runtime.scone.SconeRuntime.dlopen":
        "the §4.1 dlopen gate; tests/runtime/test_dlopen.py mounts the "
        "library-injection attack",
    "repro.serving.service.ServingPlane.replace_router":
        "the zombie-router attack: a second router takes the lease while "
        "the first still serves (tests/serving/test_router_fencing.py)",
    "repro.crypto.tls.handshake_in_memory":
        "drives a TLS handshake without a network, so the TLS tests can "
        "tamper with each flight",
}

#: Call names that dispatch on a string attribute name.
_DISPATCH = {"getattr", "hasattr", "setattr", "delattr"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


@dataclass
class Symbol:
    """One public definition; a property's getter and setter are one."""

    qualname: str  # "repro.module.Class.method"
    name: str  # what a caller writes
    path: Path
    spans: List[Tuple[int, int]] = field(default_factory=list)

    def encloses(self, path: Path, line: int) -> bool:
        return path == self.path and any(a <= line <= b for a, b in self.spans)


def _span(node: ast.AST) -> Tuple[int, int]:
    """Lines of a definition, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def public_symbols(root: Path) -> List[Symbol]:
    """Every public top-level function and class, and every public
    method of a top-level class, defined under ``src/repro/``."""
    package = root / "src" / "repro"
    symbols: Dict[str, Symbol] = {}

    def add(qualname: str, node: ast.AST, path: Path) -> None:
        symbol = symbols.setdefault(qualname, Symbol(qualname, node.name, path))
        symbol.spans.append(_span(node))

    for path, tree in parsed(root):
        if package not in path.parents:
            continue
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            if not node.name.startswith("_"):
                add(f"{module}.{node.name}", node, path)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, _FUNCTIONS) and not stmt.name.startswith("_"):
                        add(f"{module}.{node.name}.{stmt.name}", stmt, path)
    return list(symbols.values())


def _decorator_name(decorator: ast.expr) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return ""


def uses(root: Path) -> Tuple[Dict[str, List[Tuple[Path, int]]], Set[str]]:
    """Name → where the search dirs use it, and the names a project
    decorator registers."""
    found: Dict[str, List[Tuple[Path, int]]] = {}
    defined: Set[str] = set()
    decorated: List[Tuple[str, str]] = []
    for path, tree in parsed(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Load):
                    continue
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Call):
                if not (
                    _callee(node) in _DISPATCH
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    continue
                name = node.args[1].value
            elif isinstance(node, _DEFINITIONS):
                if isinstance(node, _FUNCTIONS):
                    defined.add(node.name)
                decorated += [(_decorator_name(d), node.name) for d in node.decorator_list]
                continue
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno))
    return found, {name for decorator, name in decorated if decorator in defined}


@lru_cache(maxsize=None)
def uncalled(root: Path) -> List[str]:
    """Every public symbol nothing in the search dirs calls."""
    found, registered = uses(root)
    return sorted(
        symbol.qualname
        for symbol in public_symbols(root)
        if symbol.name not in registered
        and all(symbol.encloses(path, line) for path, line in found.get(symbol.name, ()))
    )


def test_every_public_symbol_has_a_caller_or_a_reason():
    unexplained = [name for name in uncalled(ROOT) if name not in ALLOWLIST]
    assert unexplained == [], (
        "public symbols only tests reach (delete them, give them a caller, "
        "or allowlist them with a reason): " + ", ".join(unexplained)
    )


def stale_entries(root: Path, allowlist: Dict[str, str]) -> List[str]:
    """Allowlisted symbols that are gone or now have a caller."""
    return sorted(set(allowlist) - set(uncalled(root)))


def test_allowlist_names_only_real_uncalled_symbols():
    # A stale entry would hide the next symbol that loses its caller.
    assert stale_entries(ROOT, ALLOWLIST) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for top in SEARCH_DIRS + ("tests",):
        (root / top).mkdir(parents=True)
    (root / "src" / "repro").mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


CLOCK = (
    "def tick():\n    return tick\n"
    "class Clock:\n"
    "    def now(self):\n        return self.now()\n"
    "    def _private(self):\n        pass\n"
    "    def __repr__(self):\n        return 'Clock'\n"
    "def _helper():\n    pass\n"
)


def test_a_symbol_only_tests_name_is_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/clock.py": CLOCK,
        "tests/test_clock.py": "from repro.clock import Clock, tick\nClock().now(); tick()\n",
    })
    # A symbol's own body (``return tick``, ``self.now()``) is no caller.
    assert uncalled(root) == ["repro.clock.Clock", "repro.clock.Clock.now", "repro.clock.tick"]


def test_a_property_read_a_registration_and_a_getattr_string_are_callers(tmp_path):
    ops = (
        "REGISTRY = {}\n"
        "def register(name):\n"
        "    def wrap(fn):\n        REGISTRY[name] = fn\n        return fn\n"
        "    return wrap\n"
        "@register('square')\n"
        "def square_grad(x):\n    return x\n"
        "class Meter:\n"
        "    @property\n"
        "    def reading(self):\n        return 1\n"
        "    @reading.setter\n"
        "    def reading(self, value):\n        pass\n"
        "    def by_name(self):\n        return 2\n"
    )
    use = (
        "from repro.ops import REGISTRY, Meter\n"
        "meter = Meter()\n"
        "print(meter.reading, getattr(meter, 'by_name')(), REGISTRY)\n"
    )
    called = _tree(tmp_path / "called", {"src/repro/ops.py": ops, "src/repro/use.py": use})
    assert uncalled(called) == []
    alone = _tree(tmp_path / "alone", {"src/repro/ops.py": ops})
    # The setter's ``@reading.setter`` is part of the property, not a read.
    assert uncalled(alone) == ["repro.ops.Meter", "repro.ops.Meter.by_name", "repro.ops.Meter.reading"]


def test_an_all_entry_or_a_package_re_export_is_no_caller(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/clock.py": CLOCK,
        "src/repro/__init__.py": (
            "from repro.clock import Clock, tick\n"
            "from repro import clock as _clock\n"
            "__all__ = ['Clock', 'tick']\n"
        ),
        "examples/demo.py": "import repro\nfrom repro.clock import tick\n",
    })
    assert uncalled(root) == ["repro.clock.Clock", "repro.clock.Clock.now", "repro.clock.tick"]


def test_a_stale_allowlist_entry_is_reported(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/clock.py": CLOCK,
        "benchmarks/bench_clock.py": "from repro.clock import tick\ntick()\n",
    })
    allowlist = {
        "repro.clock.Clock.now": "a fake clock for the tests",  # still uncalled
        "repro.clock.tick": "now has a caller",
        "repro.clock.gone": "the symbol was deleted",
    }
    assert stale_entries(root, allowlist) == ["repro.clock.gone", "repro.clock.tick"]
