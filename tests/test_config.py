"""The test suite's own configuration in pyproject.toml."""

import os
import subprocess
import sys
from pathlib import Path

import cardstar

ROOT = Path(cardstar.__file__).resolve().parent.parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers(0, 9))
def test_fails_for_every_example(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # under filterwarnings = ["error"], hypothesis's failure report raised a
    # deprecation warning in the plugin's teardown, which ended the run with
    # INTERNALERROR and hid every later test's result
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
