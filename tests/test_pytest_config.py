"""The suite's pytest configuration reports a failing property test as a failure and runs the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a failing hypothesis test before a passing one; on failure hypothesis
# imports libcst (where installed) to write the failing example's patch
FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    done = subprocess.run([*argv, "test_property.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
