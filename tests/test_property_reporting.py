"""A failing property must report its example and let the session go on.

The property checks of this suite decide whether a refactor changed
behaviour, so a failure must reach the terminal as a failed test, never
as an INTERNALERROR that ends the session before it prints anything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(n):
    assert False


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_prints_its_example(tmp_path):
    # the repo's pytest settings (pyproject.toml's warning filters) and
    # this suite's conftest.py, as plugins, on a property that always fails
    (tmp_path / "test_fail.py").write_text(FAILING)
    path = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "test_fail.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
