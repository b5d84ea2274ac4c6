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


def test_payoff_laws_are_evaluated_only_by_the_game_and_capacity_layers():
    # every other module reads payoffs from game.count_tables, so that no
    # second payoff table grows beside it
    names = {"shared_rate_distribution", "effective_capacity", "approx_utility"}
    found = []
    for path in SOURCES:
        if path.name in ("game.py", "capacity.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
