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


def scoped_nodes(tree):
    """Every node with the dotted name of the classes and functions
    around it, "" at module level."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, scope = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def is_attribute(node, owner: str, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    )


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


def test_rank_vectors_skip_their_checks_only_in_the_unchecked_helpers():
    # object.__new__ and the slot setters build a RankVector without
    # __init__'s checks: only rankmetric's two unchecked helpers may, and
    # __init__ itself stores the checked fields through the setters
    helpers = {"rankmetric.py:_trusted", "rankmetric.py:_trusted_batch"}
    setters = helpers | {"rankmetric.py:RankVector.__init__"}
    found = []
    for path, tree in parsed_modules():
        nodes = list(scoped_nodes(tree))
        # object.__setattr__ is left to other frozen dataclasses' own
        # __post_init__, called on self
        on_self = {
            id(node.func)
            for scope, node in nodes
            if isinstance(node, ast.Call)
            and scope.endswith(".__post_init__")
            and not scope.startswith("RankVector.")
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        }
        for scope, node in nodes:
            where = f"{path.name}:{scope}"
            if is_attribute(node, "object", "__new__") and where not in helpers:
                found.append(f"{where}:{node.lineno} object.__new__")
            if isinstance(node, ast.Attribute) and node.attr == "__set__" and where not in setters:
                found.append(f"{where}:{node.lineno} __set__")
            if is_attribute(node, "object", "__setattr__") and id(node) not in on_self:
                found.append(f"{where}:{node.lineno} object.__setattr__")
    assert found == []
