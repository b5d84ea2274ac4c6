"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import specgame

SOURCES = sorted(Path(specgame.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert any(path.name == "simulator.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert, so invariants are explicit checks that raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
