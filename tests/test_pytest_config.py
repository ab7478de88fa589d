"""The suite's pytest settings report a failing test as a plain failure."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_is_reported_without_internal_errors(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert "Falsifying example: test_fails(" in proc.stdout
