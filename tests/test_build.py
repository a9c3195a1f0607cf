"""The shipped _core.c must come from the _core.pyx next to it."""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join(ROOT, "src", "reworkopt", "_kernel")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_sidecar_records_the_shipped_core_pyx():
    with open(os.path.join(KERNEL, "_core.pyx.sha256")) as fh:
        recorded, name = fh.read().split()
    assert name == "_core.pyx"
    assert recorded == _sha256(os.path.join(KERNEL, "_core.pyx"))


@pytest.mark.skipif(importlib.util.find_spec("Cython") is not None,
                    reason="with Cython, setup.py regenerates _core.c")
def test_setup_refuses_a_stale_core_c(tmp_path):
    kdir = tmp_path / "src" / "reworkopt" / "_kernel"
    kdir.mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "setup.py"), tmp_path)
    shutil.copy(os.path.join(KERNEL, "_core.pyx.sha256"), kdir)
    (kdir / "_core.c").write_text("#error never compiled\n")
    (kdir / "_core.pyx").write_text("# edited after _core.c was made\n")
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert "_core.c is stale" in last and "_core.pyx" in last
