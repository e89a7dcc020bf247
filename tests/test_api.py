"""The exports of trq.algebra are the API that the rest of the program uses.

A name belongs in `trq.algebra.__all__` only when a module of trq outside
trq.algebra, or the benchmark under bench/, imports it from trq.algebra;
API that only tests call is not exported.
"""

import ast
from pathlib import Path

import trq.algebra

ROOT = Path(__file__).resolve().parents[1]
ALGEBRA = ROOT / "src" / "trq" / "algebra"


def _imported_from_algebra(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "trq.algebra" or (node.level == 1 and node.module == "algebra")
        ):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user_outside_the_algebra():
    users = [p for p in (ROOT / "src" / "trq").rglob("*.py") if ALGEBRA not in p.parents]
    users += list((ROOT / "bench").rglob("*.py"))
    used = set().union(*(_imported_from_algebra(p) for p in users))
    assert sorted(set(trq.algebra.__all__) - used) == []
