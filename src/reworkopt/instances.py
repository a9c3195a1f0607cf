"""Instance construction: the embedded four-machine benchmark and small
generated instances for tests.

The benchmark table carries two interchangeable quality-response
coefficient sets.  The "table" set has wear-to-quality gains around 90,
which pushes every output far past its conformity band as soon as wear
is nonzero.  The "alternate" set (gains around 0.01) is the default,
but yield does not depend on the plan there either: over 5 random
plans on generate_instance(100, 1) with sigma_q 0.03 or 0.06, type 0
conformed 250 of 250 times and type 1 0 of 250.  Both stay selectable
so either behavior can be reproduced from the same file.

Machine ids are 0-based throughout.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

from .model import (GlobalParams, InvalidOptionError, Job, MachineParams,
                    ProblemInstance, QualitySpec, require_valid)
from .rng import RngStream

_NS_JOBGEN = 10

# -- embedded benchmark: four unrelated machines ----------------------

_MU_MINUS = (82.4, 66.4, 74.72, 66.0)
_SIGMA_MINUS = (0.00306, 0.00296, 0.00326, 0.00254)
_MU_PLUS = (0.0, 0.0, 0.0, 0.0)
_SIGMA_PLUS = (0.015, 0.015, 0.015, 0.015)
_BETA = (5.792e-05, 5.516e-05, 6.423e-05, 6.085e-05)
_C_PM = (430.0, 275.0, 230.0, 195.0)
_C_CM = (1312.0, 1028.0, 876.0, 832.0)
# the published initial wear of machine 3 (0.99) sits above its failure
# threshold 0.315, which would lock it in an endless repair loop; 0.099
# continues the 0.1 / 0.105 / 0.11 sequence and is used instead
_W0 = (0.1, 0.105, 0.11, 0.099)
_CAP = (0.35, 0.4025, 0.385, 0.315)
_T_PS = (12.6, 10.85, 10.5, 10.15)
_T_PM = (12.54, 10.92, 10.49, 10.15)
_T_CM = (44.75, 40.50, 36.64, 36.64)

_COEFFS = {
    # (a, b0, gamma) per machine
    "table": ((91.1, 0.57032), (98.95, 0.5664), (103.5, 0.5832),
              (86.5, 0.5612)),
    "alternate": ((0.0112, 0.0098), (0.0173, 0.0106), (0.0147, 0.0105),
                  (0.0158, 0.0072)),
}
_GAMMA = (0.0137, 0.0152, 0.0132, 0.0143)
_UPS0 = 42.72

# job types: nominal-time range and the machines able to run them
TYPE_RANGES = {0: (2.316, 2.916), 1: (1.42, 2.42)}
TYPE_MACHINES = {0: (0, 2, 3), 1: (1, 3)}
TYPE_SL = {0: 42.72, 1: 42.61}
TYPE_XI = {0: 0.08, 1: 0.07}

BASE_GLOBALS = GlobalParams(eta=0.2, theta=0.2, varphi=0.08, noise_sigma=1.0)


def base_machines(coeff_set: str) -> list[MachineParams]:
    if coeff_set not in _COEFFS:
        raise InvalidOptionError(f"unknown coefficient set {coeff_set!r}")
    coeffs = _COEFFS[coeff_set]
    out = []
    for k in range(4):
        a, b0 = coeffs[k]
        out.append(MachineParams(
            id=k, w0=_W0[k], cap=_CAP[k],
            mu_minus=_MU_MINUS[k], sigma_minus=_SIGMA_MINUS[k],
            mu_plus=_MU_PLUS[k], sigma_plus=_SIGMA_PLUS[k],
            alpha=1.0, beta=_BETA[k],
            ups0=_UPS0, a=a, b0=b0, gamma=_GAMMA[k],
            t_pm=_T_PM[k], t_ps=_T_PS[k], t_cm=_T_CM[k],
            c_pm=_C_PM[k], c_ps=0.0, c_cm=_C_CM[k]))
    return out


def _interleave_types(n: int, mix: float) -> list[int]:
    n0 = int(round(n * mix))
    left = {0: n0, 1: n - n0}
    types = []
    want = 0
    for _ in range(n):
        t = want if left[want] > 0 else 1 - want
        types.append(t)
        left[t] -= 1
        want = 1 - want
    return types


def generate_instance(n_jobs: int = 100, seed: int = 0, sigma_q: float = 0.06,
                      coeff_set: str = "alternate",
                      type_mix: float = 0.5) -> ProblemInstance:
    """The benchmark system loaded with n_jobs fresh jobs.

    Types alternate to hit the requested mix; each job draws an
    independent nominal time per capable machine from its type's
    uniform range.  Raises InvalidInstanceError for a sigma_q it cannot
    serve: negative, or so small that the quality interval is a point,
    and InvalidOptionError for a type mix outside [0, 1].
    """
    if not 0.0 <= type_mix <= 1.0:
        raise InvalidOptionError(f"type mix must be in [0, 1], got {type_mix}")
    machines = base_machines(coeff_set)
    root = RngStream.from_seed(seed)
    jobs = []
    for i, t in enumerate(_interleave_types(n_jobs, type_mix)):
        lo, hi = TYPE_RANGES[t]
        jrng = root.substream(_NS_JOBGEN, i)
        nominal = {mid: lo + jrng.uniform() * (hi - lo)
                   for mid in TYPE_MACHINES[t]}
        jobs.append(Job(id=i, type=t, nominal_times=nominal))
    quality = {t: QualitySpec(target=TYPE_SL[t], tol=TYPE_XI[t],
                              mu_q=TYPE_SL[t], sigma_q=sigma_q,
                              lo=TYPE_SL[t] - 3.0 * sigma_q,
                              hi=TYPE_SL[t] + 3.0 * sigma_q)
               for t in (0, 1)}
    return require_valid(ProblemInstance(
        jobs, machines, quality, replace(BASE_GLOBALS),
        meta={"kind": "generated", "n_jobs": n_jobs, "seed": seed,
              "sigma_q": sigma_q, "coeff_set": coeff_set,
              "type_mix": type_mix}))


# generate_instance's defaults by parameter name, for configs that feed it
GENERATOR_DEFAULTS = {name: p.default for name, p in
                      inspect.signature(generate_instance).parameters.items()}


# -- small instances for tests ----------------------------------------


def toy_instance(n_jobs: int = 6, seed: int = 0) -> ProblemInstance:
    """Two-machine stochastic toy: mixed types, real failure risk,
    quality noise tuned so both outcomes occur."""
    root = RngStream.from_seed(seed)
    machines = [
        MachineParams(id=0, w0=0.05, cap=0.9,
                      mu_minus=5.0, sigma_minus=0.01,
                      mu_plus=0.06, sigma_plus=0.01,
                      alpha=0.4, beta=0.02,
                      ups0=10.0, a=0.05, b0=0.02, gamma=0.03,
                      t_pm=0.8, t_ps=0.4, t_cm=3.0,
                      c_pm=30.0, c_ps=10.0, c_cm=120.0),
        MachineParams(id=1, w0=0.04, cap=1.05,
                      mu_minus=4.0, sigma_minus=0.012,
                      mu_plus=0.05, sigma_plus=0.011,
                      alpha=0.5, beta=0.018,
                      ups0=10.0, a=0.045, b0=0.021, gamma=0.028,
                      t_pm=0.7, t_ps=0.35, t_cm=2.6,
                      c_pm=26.0, c_ps=8.0, c_cm=104.0),
    ]
    jobs = []
    for i in range(n_jobs):
        t = i % 2
        jrng = root.substream(_NS_JOBGEN, i)
        if t == 0:
            nominal = {0: 1.5 + jrng.uniform(), 1: 1.6 + jrng.uniform()}
        else:
            nominal = {1: 1.0 + jrng.uniform()}
        jobs.append(Job(id=i, type=t, nominal_times=nominal))
    quality = {
        0: QualitySpec(target=10.0, tol=0.06, mu_q=10.0, sigma_q=0.02,
                       lo=9.94, hi=10.06),
        1: QualitySpec(target=10.0, tol=0.05, mu_q=10.0, sigma_q=0.025,
                       lo=9.925, hi=10.075),
    }
    g = GlobalParams(eta=0.3, theta=0.3, varphi=0.05, noise_sigma=1.0)
    return ProblemInstance(jobs, machines, quality, g,
                           meta={"kind": "toy", "seed": seed})


def oracle_toy(seed: int, n_jobs: int | None = None) -> ProblemInstance:
    """Two-machine instance built for exhaustive cross-checking.

    Every input conforms and wear does not shift quality (a = 0), so
    rework never triggers and no idle spaces get reserved; initial wear
    sits below any reachable preventive threshold so no action can fire
    at time zero; maintenance costs are integer-valued so cost sums are
    exact in floats regardless of summation order.

    Machine 0 is fast but wears out after three or four consecutive
    jobs (strong slowdown per unit wear), machine 1 is slow and sturdy.
    Loading machine 0 and paying for a preventive action often beats
    the maintenance-free split on makespan, which is what keeps the
    exact front from collapsing to a single free point.  Preventive
    actions are deliberately cheap: the scalar planning fitness divides
    by cost, and a small per-action charge keeps both ends of the
    trade-off within a few multiples of each other so a single
    population can hold both.  Breakdowns stay expensive.
    """
    root = RngStream.from_seed(seed)
    if n_jobs is None:
        n_jobs = 5 + root.substream(0).randrange(2)
    machines = [
        MachineParams(id=0, w0=0.02, cap=1.0,
                      mu_minus=3.0, sigma_minus=0.01,
                      mu_plus=0.12, sigma_plus=0.01,
                      alpha=0.05, beta=0.1,
                      ups0=5.0, a=0.0, b0=0.01, gamma=0.01,
                      t_pm=0.6, t_ps=0.2, t_cm=2.5,
                      c_pm=2.0, c_ps=1.0, c_cm=130.0),
        MachineParams(id=1, w0=0.03, cap=1.1,
                      mu_minus=3.0, sigma_minus=0.01,
                      mu_plus=0.05, sigma_plus=0.01,
                      alpha=0.06, beta=0.1,
                      ups0=5.0, a=0.0, b0=0.01, gamma=0.01,
                      t_pm=0.7, t_ps=0.3, t_cm=2.2,
                      c_pm=2.0, c_ps=1.0, c_cm=110.0),
    ]
    jobs = []
    for i in range(n_jobs):
        jrng = root.substream(_NS_JOBGEN, i)
        nominal = {0: 1.3 + 1.4 * jrng.uniform(), 1: 3.0 + 1.2 * jrng.uniform()}
        jobs.append(Job(id=i, type=0, nominal_times=nominal))
    quality = {0: QualitySpec(target=5.0, tol=0.1, mu_q=5.0, sigma_q=0.01,
                              lo=4.97, hi=5.03)}
    g = GlobalParams(eta=1.2, theta=0.3, varphi=0.05, noise_sigma=1.0)
    return require_valid(ProblemInstance(
        jobs, machines, quality, g, meta={"kind": "oracle-toy", "seed": seed}))
