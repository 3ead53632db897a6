"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import ranklab

SOURCE = Path(ranklab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # invariants must raise explicitly: ``python -O`` strips assert
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
