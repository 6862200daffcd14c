"""The warning filters of ``pyproject.toml``: a warning fails its test, and
a failing Hypothesis property fails alone, with its falsifying example
reported and the rest of the session run."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''

WARNING_FILE = '''
import warnings


def test_warns():
    warnings.warn("deprecated in plausible", DeprecationWarning)
'''


def run_pytest(tmp_path: Path, text: str) -> subprocess.CompletedProcess:
    """Run pytest under the repository's settings on a file holding ``text``."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_scratch.py").write_text(text, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml", "-p", "no:cacheprovider", "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_failing_property_does_not_abort_the_session(tmp_path):
    result = run_pytest(tmp_path, PROPERTY_FILE)
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout


def test_other_warnings_still_fail(tmp_path):
    result = run_pytest(tmp_path, WARNING_FILE)
    assert result.returncode == 1
    assert "1 failed" in result.stdout
    assert "DeprecationWarning: deprecated in plausible" in result.stdout
