"""The repository's pytest settings report a failing property test.

Warnings are errors under pyproject.toml, yet a hypothesis failure must
still end as one failed test with its falsifying example, not abort the
session and leave the other tests unrun.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_fails(" in out, out
