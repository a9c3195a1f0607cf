import pytest

from kernel_build import load_kernel
from reworkopt import _kernel
from reworkopt._kernel import pure


@pytest.fixture(scope="session")
def built_core(tmp_path_factory):
    """The compiled kernel built from this checkout's _core.c.

    Skips only when no extension can be built here (no C compiler or no
    Python headers); a build that fails otherwise, on an error or on a
    warning, fails the test (see kernel_build.load_kernel).
    """
    return load_kernel(tmp_path_factory.mktemp("kernel-build"))


@pytest.fixture
def batched(monkeypatch):
    """The environment keys the pure kernel's first-draw batch
    (pure._prefetch) fills, in call order.  Simulations step through the
    pure kernel here, also where the compiled kernel is the backend."""
    keys = []
    batch = pure._prefetch

    def record(row, i, mid, job_keys, ekey):
        keys.append(ekey)
        batch(row, i, mid, job_keys, ekey)

    monkeypatch.setattr(pure, "_prefetch", record)
    monkeypatch.setattr(_kernel, "run_machine", pure.run_machine)
    return keys
