"""The optional build: a missing compiler leaves the pure kernel, and a
_core.c that does not build clean fails the compiled tests."""

import os

import pytest

from kernel_build import ROOT, KERNEL, build_kernel, load_kernel


def test_build_without_a_compiler_leaves_the_pure_kernel(tmp_path):
    proc, path = build_kernel(tmp_path, env=dict(os.environ, CC="false"))
    assert proc.returncode == 0, proc.stderr
    assert "failed" in proc.stderr     # the compile ran and was refused
    assert path is None


@pytest.mark.parametrize("extra", [
    "this line is not C;\n",
    "static int unused_helper(void) { return 0; }\n",
], ids=["error", "warning"])
def test_a_kernel_that_does_not_build_clean_fails_the_tests(tmp_path, extra):
    """setup.py's build is optional and exits 0 on any compile error, so
    the tests' loader must tell a broken or warning source from a missing
    toolchain and fail, not skip."""
    with open(os.path.join(ROOT, KERNEL, "_core.c")) as fh:
        source = fh.read() + extra
    with pytest.raises(pytest.fail.Exception, match="did not build clean"):
        load_kernel(tmp_path, source=source)
