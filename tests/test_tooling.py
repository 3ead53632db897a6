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
