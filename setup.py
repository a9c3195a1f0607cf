"""Build script: compiles the optional C kernel.

``src/reworkopt/_kernel/_core.c`` is the hand-written compiled twin of
``pure.py``; ``python3 setup.py build_ext --inplace`` builds it next to
its source.  The extension is optional: the package picks the
pure-Python kernel at import time when it is missing, so a failed
compile (no C compiler or no Python headers) leaves the pure kernel
instead of aborting the install.
"""

from setuptools import Extension, setup

# -ffp-contract=off: forbid fused multiply-add so the compiled kernel is
# bit-identical to the pure-Python twin (CPython uses plain SSE2 doubles).
setup(ext_modules=[Extension(
    "reworkopt._kernel._core", ["src/reworkopt/_kernel/_core.c"],
    extra_compile_args=["-O2", "-ffp-contract=off"], optional=True)])
