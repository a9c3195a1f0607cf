"""The optional build: a missing compiler leaves the pure kernel."""

import os

from kernel_build import build_kernel


def test_build_without_a_compiler_leaves_the_pure_kernel(tmp_path):
    proc, path = build_kernel(tmp_path, env=dict(os.environ, CC="false"))
    assert proc.returncode == 0, proc.stderr
    assert "failed" in proc.stderr     # the compile ran and was refused
    assert path is None
