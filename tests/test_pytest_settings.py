"""The test settings in pyproject.toml turn every warning into an error;
a failing property test must still end as a plain failure that shows
its falsifying example, not abort the session."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_one.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
