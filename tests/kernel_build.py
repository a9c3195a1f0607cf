"""Build the compiled kernel from this checkout in a scratch directory.

The build runs ``setup.py build_ext --inplace`` on copies of the build
files, so nothing is written under ``src/``.  It adds ``-Wall -Werror``
to the compiler flags, so a warning (a helper left unused, say) fails
the build as an error does.  setup.py itself builds without them.
"""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join("src", "reworkopt", "_kernel")


def build_kernel(dest, env=None, source=None):
    """Build a copy of setup.py, pyproject.toml and _core.c in dest, the
    C file's text replaced by source when given.

    Returns the finished build process and the path of the module it
    left, or None when it left none.
    """
    os.makedirs(os.path.join(dest, KERNEL))
    for name in "setup.py", "pyproject.toml", os.path.join(KERNEL, "_core.c"):
        shutil.copy(os.path.join(ROOT, name), os.path.join(dest, name))
    if source is not None:
        with open(os.path.join(dest, KERNEL, "_core.c"), "w") as fh:
            fh.write(source)
    env = dict(os.environ if env is None else env)
    env["CFLAGS"] = (env.get("CFLAGS", "") + " -Wall -Werror").strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=dest, env=env, capture_output=True, text=True)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(dest, KERNEL, "_core" + suffix)
        if os.path.exists(path):
            return proc, path
    return proc, None


def missing_toolchain():
    """Why no extension can be built here (no C compiler, or no
    Python.h), or None when both are present."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        return "no C compiler"
    if not os.path.exists(os.path.join(sysconfig.get_paths()["include"],
                                       "Python.h")):
        return "no Python.h"
    return None


def load_kernel(dest, source=None):
    """The compiled kernel built in dest by build_kernel, imported from
    there without entering sys.modules.

    Skips the calling test only when no extension can be built here;
    any other build that leaves no module fails it with the build's
    stderr.
    """
    proc, path = build_kernel(dest, source=source)
    assert proc.returncode == 0, proc.stderr
    if path is None:
        reason = missing_toolchain()
        if reason is not None:
            pytest.skip("the compiled kernel cannot be built: " + reason)
        pytest.fail("_core.c did not build clean:\n" + proc.stderr,
                    pytrace=False)
    spec = importlib.util.spec_from_file_location("reworkopt._kernel._core",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
