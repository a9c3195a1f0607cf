"""The kernel draws, taken through ``job_step``.

The compiled kernel keeps its gamma, normal and truncated normal draws
inside its step.  ``through_job_step(kernel)`` gives them back with the
pure kernel's signatures, ``(key, ctr, *params) -> (value, ctr)``, by
running one ``job_step`` that makes the draw and reading it off the
step's outputs, so the tests can hold a backend's step draws against
``pure``'s own draws and their pinned digests.
"""

import math
from types import SimpleNamespace


def through_job_step(kernel):
    """kernel's gamma, normal and truncated_normal, each reached through
    one kernel.job_step."""

    def gamma(key, ctr, shape, scale):
        # an idle event over a window of 1: the environment wear is
        # gamma(key, ctr, alpha * 1.0, beta), its dv and its ectr
        out = kernel.job_step(0, 0, key, ctr, 0, 1, 0.0, 1.0, 1.0,
                              0.0, shape, scale, 0.0, 0.0, 0.0, 0.0,
                              0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
                              0.0, 0.0, 0.0, 0.0, 0.0)
        return out[5], out[10]

    def truncated_normal(key, ctr, mu, sigma, lo, hi):
        # a job over an empty window, its quality within an infinite
        # tolerance: ups is the truncated normal, and the job stream
        # moves on by eps and z_p, 2 ticks each
        out = kernel.job_step(key, ctr, 0, 0, 0, 0, 0.0, 0.0, 1.0,
                              0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                              0.0, 0.0, 0.0, 0.0, 0.0, math.inf,
                              mu, sigma, lo, hi, 0.0)
        return out[3], out[9] - 4

    def normal(key, ctr, mu, sigma):
        # unbounded, the truncated normal takes its first draw
        return truncated_normal(key, ctr, mu, sigma, -math.inf, math.inf)

    return SimpleNamespace(gamma=gamma, normal=normal,
                           truncated_normal=truncated_normal)
