"""The suite's pytest settings keep a failing test's report readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under
    # filterwarnings = error that warning ended the session in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
