"""The suite's warning filters: a failing test fails alone, and numpy's
warnings still fail the suite.

Each test runs pytest in a subprocess with the repo's `pyproject.toml` on a
small test file written to `tmp_path`.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

HYPOTHESIS_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''

NUMPY_FILE = '''
import numpy as np


def test_overflows():
    np.exp(np.float64(1000.0))
'''


def _run_pytest(tmp_path: Path, source: str) -> tuple[int, str]:
    """Exit code and last output line of pytest on one test file."""
    (tmp_path / "test_sample.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.strip().splitlines()[-1]


def test_a_failing_hypothesis_test_fails_alone_and_later_tests_run(tmp_path):
    # the failure report imports a module that warns; were that warning an
    # error, pytest would end with INTERNALERROR (exit 3) and skip the rest
    code, summary = _run_pytest(tmp_path, HYPOTHESIS_FILE)
    assert code == 1, summary
    assert re.match(r"1 failed, 1 passed in ", summary), summary


def test_a_numpy_overflow_warning_still_fails_its_test(tmp_path):
    code, summary = _run_pytest(tmp_path, NUMPY_FILE)
    assert code == 1, summary
    assert re.match(r"1 failed in ", summary), summary
