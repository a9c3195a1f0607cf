import pytest

from kernel_build import load_kernel


@pytest.fixture(scope="session")
def built_core(tmp_path_factory):
    """The compiled kernel built from this checkout's _core.c.

    Skips only when no extension can be built here (no C compiler or no
    Python headers); a build that fails otherwise, on an error or on a
    warning, fails the test (see kernel_build.load_kernel).
    """
    return load_kernel(tmp_path_factory.mktemp("kernel-build"))
