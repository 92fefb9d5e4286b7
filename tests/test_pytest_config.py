"""The suite's pytest configuration reports a failing property in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning that the hypothesis
    # plugin raises while it reports a failure into an INTERNALERROR (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
