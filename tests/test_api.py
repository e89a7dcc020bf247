"""The exports of trq.algebra are the API that the rest of the program uses.

A name belongs in `trq.algebra.__all__` only when a module of trq outside
trq.algebra, or the benchmark under bench/, imports it from trq.algebra;
API that only tests call is not exported.  Every console script that
pyproject.toml declares must resolve to a callable.
"""

import ast
import importlib
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


def _console_scripts(text: str) -> dict:
    # [project.scripts] read line by line: Python 3.10 has no tomllib
    scripts, section = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_console_script_parser_reads_the_section():
    text = '[project]\nname = "trq"\n\n[project.scripts]\ntrq = "trq.fixtures:run_fixture"  # entry\n\n[tool.x]\ny = "z"\n'
    assert _console_scripts(text) == {"trq": "trq.fixtures:run_fixture"}


def test_every_declared_console_script_resolves():
    for name, target in _console_scripts((ROOT / "pyproject.toml").read_text()).items():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
