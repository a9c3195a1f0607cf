"""Build script: compiles the optional fast kernel.

The package works without the extension (a pure-Python twin is picked at
import time), so the extension is optional: a failed C compile leaves the
pure kernel instead of aborting the install.  With Cython installed the
extension is built from ``_core.pyx``; without it, from the generated
``_core.c`` shipped next to it, so ``python3 setup.py build_ext --inplace``
works offline.
"""

import sys

from setuptools import Extension, setup

# -ffp-contract=off: forbid fused multiply-add so the compiled kernel is
# bit-identical to the pure-Python twin (CPython uses plain SSE2 doubles).
FLAGS = ["-O2", "-ffp-contract=off"]

try:
    from Cython.Build import cythonize
except ImportError:
    sys.stderr.write("reworkopt: Cython not found, compiling the shipped "
                     "_core.c\n")
    ext_modules = [Extension("reworkopt._kernel._core",
                             ["src/reworkopt/_kernel/_core.c"])]
else:
    ext_modules = cythonize(["src/reworkopt/_kernel/_core.pyx"],
                            language_level=3)
for ext in ext_modules:
    ext.extra_compile_args = FLAGS
    ext.optional = True

setup(ext_modules=ext_modules)
