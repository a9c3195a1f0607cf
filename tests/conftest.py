import importlib.util

import pytest

from kernel_build import build_kernel


@pytest.fixture(scope="session")
def built_core(tmp_path_factory):
    """The compiled kernel built from this checkout's _core.c, imported
    from the build's copy without entering sys.modules.

    Skips only when the build leaves no module (no C compiler or no
    Python headers); a build that fails otherwise fails the test.
    """
    proc, path = build_kernel(tmp_path_factory.mktemp("kernel-build"))
    assert proc.returncode == 0, proc.stderr
    if path is None:
        pytest.skip("the build left no compiled kernel: no C compiler "
                    "or Python headers")
    spec = importlib.util.spec_from_file_location("reworkopt._kernel._core",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
