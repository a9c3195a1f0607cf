"""The optional build: a missing compiler leaves the pure kernel, and a
_core.c that does not build clean fails the build and the compiled
tests."""

import os

import pytest

from kernel_build import ROOT, KERNEL, build_kernel, load_kernel


def _source(extra):
    """This checkout's _core.c with extra appended."""
    with open(os.path.join(ROOT, KERNEL, "_core.c")) as fh:
        return fh.read() + extra


def test_build_without_a_compiler_leaves_the_pure_kernel(tmp_path):
    proc, path = build_kernel(tmp_path,
                              env=dict(os.environ, CC="no-such-cc"))
    assert proc.returncode == 0, proc.stderr
    assert "no C compiler" in proc.stderr
    assert path is None


def test_a_compile_error_fails_the_build(tmp_path):
    proc, path = build_kernel(tmp_path, source=_source("this line is not C;\n"))
    assert proc.returncode != 0
    assert "error:" in proc.stderr      # the compiler's message
    assert path is None


@pytest.mark.parametrize("extra", [
    "this line is not C;\n",
    "static int unused_helper(void) { return 0; }\n",
], ids=["error", "warning"])
def test_a_kernel_that_does_not_build_clean_fails_the_tests(tmp_path, extra):
    """The tests' loader must tell a broken or warning source from a
    missing toolchain and fail, not skip."""
    with pytest.raises(pytest.fail.Exception, match="did not build clean"):
        load_kernel(tmp_path, source=_source(extra))
