"""What the censuses walk: the callers' directories, parsed once.

The knob census and the symbol census ask one question of the same
code — does anything in ``src/``, ``benchmarks/`` or ``examples/`` use
this? — and both match callees by name.  A use in ``tests/`` never
counts: a path only its own test reaches is the second code path the
censuses exist to find.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Where a caller counts.
SEARCH_DIRS = ("src", "benchmarks", "examples")


@lru_cache(maxsize=None)
def parsed(root: Path) -> Tuple[Tuple[Path, ast.Module], ...]:
    """Every Python file under ``root``'s search dirs with its AST
    (parsed once per root and shared by the censuses)."""
    return tuple(
        (path, ast.parse(path.read_text(), filename=str(path)))
        for top in SEARCH_DIRS
        for path in sorted((root / top).rglob("*.py"))
    )


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""
