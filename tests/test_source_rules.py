"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import ranklab

SOURCE = Path(ranklab.__file__).resolve().parent


def parsed_modules():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in modules]


def import_time_nodes(tree):
    """Every node that runs when the module is imported: function bodies
    are skipped, class bodies and compound statements are not."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_package_has_no_assert_statements():
    # invariants must raise explicitly: ``python -O`` strips assert
    found = []
    for path, tree in parsed_modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_process_pools_are_imported_only_where_they_start():
    # importing the pool machinery is a large share of a short command's
    # start-up, and only ``workers > 1`` uses it
    heavy = ("concurrent.futures", "multiprocessing")
    found = []
    for path, tree in parsed_modules():
        for node in import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any(name == root or name.startswith(root + ".") for name in names for root in heavy):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_init_imports_no_submodule():
    # exports load on first use; an eager ``from .x import`` loads x
    # into every process that imports ranklab
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in import_time_nodes(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert found == []
