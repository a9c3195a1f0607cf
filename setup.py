"""Build script: compiles the optional fast kernel.

The package works without the extension (a pure-Python twin is picked at
import time), so the extension is optional: a failed C compile leaves the
pure kernel instead of aborting the install.  With Cython installed the
extension is built from ``_core.pyx``; without it, from the generated
``_core.c`` shipped next to it, so ``python3 setup.py build_ext --inplace``
works offline.

``_core.pyx.sha256`` records the SHA-256 of the ``_core.pyx`` that the
shipped ``_core.c`` was generated from (``sha256sum -c`` reads it).  A
build from ``_core.c`` stops when ``_core.pyx`` no longer matches it; a
Cython build regenerates ``_core.c`` and rewrites the record.
"""

import hashlib
import sys

from setuptools import Extension, setup

KERNEL = "src/reworkopt/_kernel/"
PYX, C, STAMP = KERNEL + "_core.pyx", KERNEL + "_core.c", KERNEL + "_core.pyx.sha256"

# -ffp-contract=off: forbid fused multiply-add so the compiled kernel is
# bit-identical to the pure-Python twin (CPython uses plain SSE2 doubles).
FLAGS = ["-O2", "-ffp-contract=off"]


def pyx_digest() -> str:
    with open(PYX, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


try:
    from Cython.Build import cythonize
except ImportError:
    with open(STAMP) as fh:
        recorded = fh.read().split()[0]
    if recorded != pyx_digest():
        sys.exit(f"reworkopt: {C} is stale: {PYX} changed since it was "
                 f"generated (SHA-256 recorded in {STAMP}); regenerate "
                 "it with Cython")
    sys.stderr.write("reworkopt: Cython not found, compiling the shipped "
                     "_core.c\n")
    ext_modules = [Extension("reworkopt._kernel._core", [C])]
else:
    ext_modules = cythonize([PYX], language_level=3, force=True)
    with open(STAMP, "w") as fh:
        fh.write(f"{pyx_digest()}  _core.pyx\n")
for ext in ext_modules:
    ext.extra_compile_args = FLAGS
    ext.optional = True

setup(ext_modules=ext_modules)
