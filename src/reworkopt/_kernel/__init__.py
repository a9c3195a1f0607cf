"""Kernel backend selection.

The compiled extension ``_core`` (built from the hand-written
``_core.c`` by ``python3 setup.py build_ext --inplace``) is preferred
when it imports; the pure-Python twin is the fallback and the
reference.  Nothing is compiled on import.  Set REWORKOPT_PURE=1 to
force the fallback (used by the parity tests and the benchmark).

``shared_draws(owner=None)`` opens a scope in which the pure kernel
computes each repeated draw once, a job's job-stream draws included,
and batches a machine's first draws on a fresh environment key in lanes
of one integer (see ``pure``); callers open it through
``rng.shared_draws()``, which also shares job keys.  An unowned scope
keeps nothing past its end; an owned one hands its tables to the next
scope of the same owner.  The compiled kernel has no memo, so there it
is a no-op (``nullcontext`` takes the owner as its enter result).  The
kernel API is the four functions of ``_core`` plus this one: the draws
``mix64`` and ``u01``, the event step ``job_step``, and ``run_machine``,
which steps one machine of a run in one call and records each step in
a ``record`` list (see ``pure``).
"""

import contextlib
import os

from . import pure

BACKEND = "pure"
_impl = pure

if not os.environ.get("REWORKOPT_PURE"):
    try:
        from . import _core  # type: ignore[attr-defined]

        _impl = _core
        BACKEND = "compiled"
    except ImportError:
        pass

mix64 = _impl.mix64
u01 = _impl.u01
job_step = _impl.job_step
run_machine = _impl.run_machine
shared_draws = getattr(_impl, "shared_draws", contextlib.nullcontext)

