"""Build script: compiles the optional C kernel.

``src/reworkopt/_kernel/_core.c`` is the hand-written compiled twin of
``pure.py``; ``python3 setup.py build_ext --inplace`` builds it next to
its source.  The extension is optional only where it cannot be built:
with no C compiler or no Python headers the build warns, exits 0 and
leaves the pure-Python kernel, which the package picks at import time.
Any other failure (a compile error in ``_core.c``, say) ends the build
with a non-zero exit after the compiler's messages.
"""

import os
import shutil
import sysconfig

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import BaseError, CCompilerError, CompileError


class BuildExt(build_ext):
    """build_ext that lets only a missing toolchain pass as optional."""

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except (BaseError, CCompilerError) as err:
            cc = getattr(self.compiler, "compiler_so", None)
            if cc and shutil.which(cc[0]) is None:
                missing = "no C compiler %r" % cc[0]
            elif not os.path.exists(os.path.join(sysconfig.get_path("include"),
                                                 "Python.h")):
                missing = "no Python.h"
            else:
                raise SystemExit("building %s failed: %s" % (ext.name, err))
            # optional=True turns this into a warning and skips the module
            raise CompileError(missing + "; the pure-Python kernel is used")


# -ffp-contract=off: forbid fused multiply-add so the compiled kernel is
# bit-identical to the pure-Python twin (CPython uses plain SSE2 doubles).
setup(cmdclass={"build_ext": BuildExt}, ext_modules=[Extension(
    "reworkopt._kernel._core", ["src/reworkopt/_kernel/_core.c"],
    extra_compile_args=["-O2", "-ffp-contract=off"], optional=True)])
