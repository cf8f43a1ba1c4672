"""Time-literal census: no simulated time is charged from a bare number.

Every constant that turns work into simulated time lives on
:class:`~repro.enclave.cost_model.CostModel`, with its calibration
anchor, so an ablation can perturb it and a reader can find it.  This
test walks the AST of ``src/`` and fails on any numeric literal passed,
positionally or by keyword, to a call of ``advance`` / ``advance_each``
(the clock) or ``charge`` / ``charge_each`` (the telemetry sink).
Callees are matched by name, so a local alias of the clock or the sink
is caught too.  The allowlist is empty and should stay so.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The calls that move the simulated clock or attribute time to a layer.
TIME_CALLS = {"advance", "advance_each", "charge", "charge_each"}

#: (module under src/repro, line) → why a literal may be charged there.
ALLOWLIST: Dict[Tuple[str, int], str] = {}


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def literal_charges(root: Path) -> List[Tuple[str, int, str]]:
    """``(module, line, call)`` of every time call given a bare number."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name not in TIME_CALLS:
                continue
            arguments = list(node.args) + [keyword.value for keyword in node.keywords]
            if any(_is_number(argument) for argument in arguments):
                found.append(
                    (path.relative_to(root).as_posix(), node.lineno, ast.unparse(node))
                )
    return found


def test_no_time_is_charged_from_a_literal():
    unexplained = [
        hit for hit in literal_charges(SRC) if (hit[0], hit[1]) not in ALLOWLIST
    ]
    assert unexplained == []


def test_allowlist_names_only_real_literal_charges():
    hits = {(module, line) for module, line, _ in literal_charges(SRC)}
    for key, reason in ALLOWLIST.items():
        assert key in hits, key
        assert reason.strip()


def test_census_sees_literals_behind_aliases_and_keywords(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(clock, sink, cost, tick):\n"
        "    clock.advance(0.9e-3)\n"
        "    sink.charge(clock, 'crypto', seconds=-1e-6)\n"
        "    tick = clock.advance_each\n"
        "    advance_each(cost, 3)\n"
        "    clock.advance(cost)\n"
        "    sink.charge(clock, 'crypto', cost, count=n, histogram='h')\n"
    )
    assert [line for _, line, _ in literal_charges(tmp_path)] == [2, 3, 5]
