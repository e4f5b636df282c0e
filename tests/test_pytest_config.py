"""The suite's own pytest settings: a failing test is reported, not fatal."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # on a failure Hypothesis imports libcst to print a patch, and libcst
    # raises a DeprecationWarning that the warning filters must not turn into
    # an INTERNALERROR ending the whole session
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    if importlib.util.find_spec("libcst") is not None:
        # the patch is written by the code that imports libcst
        assert ".hypothesis/patches/" in out
