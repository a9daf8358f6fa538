"""The repository's pytest settings report a failing Hypothesis test as an
ordinary failure: the run goes on and ends with its summary line.

The settings turn every warning into an error. When a @given test fails,
Hypothesis's pytest plugin imports its patch writer, which imports libcst,
which uses the deprecated mypy_extensions.TypedDict. The settings ignore
that one DeprecationWarning; without that filter the run ends in an
INTERNALERROR, with no summary and no later test run."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_gets_a_summary(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert re.search(r"^1 failed, 1 passed in ", out, re.M), out
    assert run.returncode == 1
