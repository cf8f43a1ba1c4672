"""Record census: the network shield has one record path.

Every network record is sealed and opened by ``NetworkShield.seal`` /
``NetworkShield.open``: the cost-model charge, the real AEAD and the
shield's counters in one place.  A second site that calls
``RecordLayer.protect`` / ``unprotect`` or reads the record-crypto cost
fields would charge or count records its own way, and a snapshot would
then read records that no counter saw.

Built on the parse in :mod:`tests._census`; matches by attribute name,
so it also catches a call through a local alias of the record layer.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

from tests._census import ROOT, parsed

#: Method calls that seal or open a record.
RECORD_CALLS = {"protect", "unprotect"}

#: Cost-model fields that price record crypto.
RECORD_COSTS = {"net_shield_crypto_bandwidth", "net_shield_record_overhead"}

MODULE = "repro/runtime/net_shield.py"

#: Where a record may be sealed, opened or priced: the pair, and the
#: charge helper the pair shares (reached from nowhere else, see below).
RECORD_PATH = {
    "NetworkShield.seal",
    "NetworkShield.open",
    "NetworkShield._charge_records",
}


def _sites(root: Path, wanted) -> Dict[Tuple[str, str], List[int]]:
    """(module under src/, enclosing qualified function) → lines of every
    node in ``root``'s ``src/`` that ``wanted(node)`` accepts."""
    src = root / "src"
    sites: Dict[Tuple[str, str], List[int]] = {}
    for path, tree in parsed(root):
        if src not in path.parents:
            continue
        module = path.relative_to(src).as_posix()

        def visit(node: ast.AST, scope: List[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if wanted(child):
                    key = (module, ".".join(scope))
                    sites.setdefault(key, []).append(child.lineno)
                visit(child, scope)

        visit(tree, [])
    return sites


def _seals_or_prices(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in RECORD_CALLS
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in RECORD_COSTS
    )


def _calls_charge_helper(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_charge_records"
    )


def stray_record_sites(root: Path = ROOT) -> List[str]:
    """Every record seal, open or price read in ``src/`` off the one
    record path, as ``module:line in function``."""
    return [
        f"src/{module}:{lines[0]} in {function or '<module>'}"
        for (module, function), lines in sorted(_sites(root, _seals_or_prices).items())
        if module != MODULE or function not in RECORD_PATH
    ]


def test_every_record_is_sealed_and_opened_by_the_shield_pair():
    stray = stray_record_sites()
    assert not stray, (
        "network records sealed, opened or priced outside "
        "NetworkShield.seal / open: " + ", ".join(stray)
    )


def test_the_charge_helper_serves_only_the_pair():
    callers = set(_sites(ROOT, _calls_charge_helper))
    assert callers == {
        (MODULE, "NetworkShield.seal"),
        (MODULE, "NetworkShield.open"),
    }


def test_the_census_sees_the_record_path():
    """The census matches by name: the pair must still do the work."""
    sites = _sites(ROOT, _seals_or_prices)
    assert {function for module, function in sites if module == MODULE} == RECORD_PATH


def test_a_second_sealing_site_is_reported(tmp_path):
    package = tmp_path / "src" / "repro" / "cluster"
    package.mkdir(parents=True)
    (package / "side_channel.py").write_text(
        "class SideChannel:\n"
        "    def send(self, records, payload, model):\n"
        "        cost = len(payload) / model.net_shield_crypto_bandwidth\n"
        "        return records.protect(payload), cost\n"
    )
    assert stray_record_sites(tmp_path) == [
        "src/repro/cluster/side_channel.py:3 in SideChannel.send",
    ]
