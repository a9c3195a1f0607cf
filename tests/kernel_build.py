"""Build the compiled kernel from this checkout in a scratch directory.

The build runs ``setup.py build_ext --inplace`` on copies of the build
files, so nothing is written under ``src/``.
"""

import importlib.machinery
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join("src", "reworkopt", "_kernel")


def build_kernel(dest, env=None):
    """Build a copy of setup.py, pyproject.toml and _core.c in dest.

    Returns the finished build process and the path of the module it
    left, or None when it left none.
    """
    os.makedirs(os.path.join(dest, KERNEL))
    for name in "setup.py", "pyproject.toml", os.path.join(KERNEL, "_core.c"):
        shutil.copy(os.path.join(ROOT, name), os.path.join(dest, name))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=dest, env=env, capture_output=True, text=True)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(dest, KERNEL, "_core" + suffix)
        if os.path.exists(path):
            return proc, path
    return proc, None

