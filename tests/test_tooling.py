"""The test suite's own configuration: what a failing test reports."""

from pathlib import Path

from helpers import run_python

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the suite's warning filters, hypothesis' failure reporter must
    # print the example and the assertion, not an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = run_python(
        ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example" in report
    assert "AssertionError" in report
    assert "INTERNALERROR" not in report


PASSING_XFAIL = """\
import pytest


@pytest.mark.xfail(reason="expected to fail")
def test_that_passes():
    assert True
"""

MISSPELT_MARKER = """\
import pytest


@pytest.mark.paramterize("x", [1])
def test_with_a_misspelt_marker(x):
    assert x
"""


def run_suite_on(tmp_path, source):
    (tmp_path / "test_case.py").write_text(source)
    out = run_python(
        ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_case.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    return out.returncode, out.stdout + out.stderr


def test_an_xfail_that_passes_fails_the_suite(tmp_path):
    # every xfail is strict without saying so: the day it passes, its
    # marker has to go
    code, report = run_suite_on(tmp_path, PASSING_XFAIL)
    assert code == 1, report
    assert "XPASS(strict)" in report


def test_a_misspelt_marker_fails_collection(tmp_path):
    # refused by the strict_markers setting itself: the warning filter
    # that turns pytest's unknown-mark warning into an error would also
    # stop collection, but with another message
    code, report = run_suite_on(tmp_path, MISSPELT_MARKER)
    assert code != 0, report
    assert "paramterize" in report and "error during collection" in report, report
    assert "'paramterize' not found in `markers` configuration option" in report, report
