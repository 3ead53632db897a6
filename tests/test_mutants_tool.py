"""The mutation sampler in ``tools/mutants.py``: which tokens it lists,
and that a mutant changes exactly one of them.  The tool is loaded from
its path; no mutant run starts here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# f has one comparison, one int constant, one augmented assignment and one
# binary operator whose left operand ends in a bracket that is not part of
# its node; g's operator and constant are not f's
SOURCE = """\
def g(a):
    return a - 1


def f(xs, i, y):
    if y < 7:
        y += (xs[i]) * y
    return y
"""

F_MUTANTS = [(6, 9, "<", "<="), (6, 11, "7", "8"), (7, 10, "+=", "-="), (7, 21, "*", "//")]


def test_the_sampler_lists_each_token_of_the_function_at_its_place(mutants):
    assert mutants.mutants_of(SOURCE, "f") == F_MUTANTS
    assert mutants.mutants_of(SOURCE, "g") == [(2, 13, "-", "+"), (2, 15, "1", "2")]


def test_a_mutant_rewrites_one_token_and_no_other_byte(mutants):
    lines = SOURCE.splitlines(keepends=True)
    for line, col, old, new in F_MUTANTS:
        at = sum(map(len, lines[: line - 1])) + col
        assert SOURCE[at : at + len(old)] == old
        expected = SOURCE[:at] + new + SOURCE[at + len(old) :]
        assert mutants.apply(SOURCE, (line, col, old, new)) == expected


def test_a_mutant_whose_token_is_not_at_its_place_is_refused(mutants):
    with pytest.raises(ValueError, match=r"token '\*' not at 7:20"):
        mutants.apply(SOURCE, (7, 20, "*", "//"))
    with pytest.raises(ValueError, match="token '<' not at 6:10"):
        mutants.apply(SOURCE, (6, 10, "<", "<="))


def test_an_unknown_function_exits_before_any_run(mutants):
    with pytest.raises(SystemExit, match="no function h"):
        mutants.mutants_of(SOURCE, "h")
    with pytest.raises(SystemExit, match="no function f.inner"):
        mutants.mutants_of(SOURCE, "f.inner")
    with pytest.raises(SystemExit, match="no function _no_such_function"):
        mutants.main(["listdec:_no_such_function"])
