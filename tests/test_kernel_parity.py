"""The compiled kernel must be bit-identical to the pure reference.

The compiled kernel under test is the one ``built_core`` builds from
this checkout's ``_core.c``.  Scalar draws are compared in-process; the
end-to-end check respawns the interpreter, because the backend binds at
import.
"""

import os
import random
import struct
import subprocess
import sys

import pytest

from reworkopt import _kernel
from reworkopt._kernel import pure


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def pairs(n, seed):
    r = random.Random(seed)
    return [(r.getrandbits(64), r.randrange(0, 10**6)) for _ in range(n)]


# the kernel API: the draws both backends define, and the pure kernel's
# shared-draw scope and batch, which resolve to no-ops on the compiled one
DRAWS = {"mix64", "u01", "normal", "clamped_normal", "gamma",
         "truncated_normal", "job_step"}


def test_the_backends_expose_the_kernel_api(built_core):
    assert {n for n in dir(built_core) if not n.startswith("_")} == DRAWS
    defined = {n for n, v in vars(pure).items()
               if callable(v) and not n.startswith("_")
               and v.__module__ == pure.__name__}
    assert defined == DRAWS | {"shared_draws", "prefetch"}
    for name in DRAWS | {"shared_draws", "prefetch"}:
        assert callable(getattr(_kernel, name))


def test_u01_bitwise_equal(built_core):
    for key, ctr in pairs(500, 1):
        assert bits(pure.u01(key, ctr)) == bits(built_core.u01(key, ctr))


def test_mix64_equal(built_core):
    for key, _ in pairs(500, 2):
        assert pure.mix64(key) == built_core.mix64(key)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (3.5, 0.25), (-2.0, 7.0)])
def test_normal_bitwise_equal(mu, sigma, built_core):
    for key, ctr in pairs(200, 3):
        xp, cp = pure.normal(key, ctr, mu, sigma)
        xc, cc = built_core.normal(key, ctr, mu, sigma)
        assert (bits(xp), cp) == (bits(xc), cc)


@pytest.mark.parametrize("shape,scale", [(0.37, 2.5), (1.0, 1.0), (3.2, 0.4),
                                         (17.5, 0.01), (0.0, 1.0)])
def test_gamma_bitwise_equal(shape, scale, built_core):
    for key, ctr in pairs(200, 4):
        xp, cp = pure.gamma(key, ctr, shape, scale)
        xc, cc = built_core.gamma(key, ctr, shape, scale)
        assert (bits(xp), cp) == (bits(xc), cc)


@pytest.mark.parametrize("mu,sigma,lo,hi", [
    (5.0, 0.01, 4.97, 5.03),
    (0.0, 1.0, -0.5, 0.5),
    (10.0, 0.0, 2.0, 8.0),
])
def test_truncated_normal_bitwise_equal(mu, sigma, lo, hi, built_core):
    for key, ctr in pairs(200, 5):
        xp, cp = pure.truncated_normal(key, ctr, mu, sigma, lo, hi)
        xc, cc = built_core.truncated_normal(key, ctr, mu, sigma, lo, hi)
        assert (bits(xp), cp) == (bits(xc), cc)


def test_clamped_normal_bitwise_equal(built_core):
    for key, ctr in pairs(300, 6):
        xp, cp = pure.clamped_normal(key, ctr, 0.001, 0.015)
        xc, cc = built_core.clamped_normal(key, ctr, 0.001, 0.015)
        assert (bits(xp), cp) == (bits(xc), cc)


# type specs (sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma): the pure
# kernel keeps a scope's job-stream draws by stream position and spec
_SPECS = [(42.72, 0.08, 42.72, 0.06, 42.54, 42.9, 1.0),
          (42.61, 0.07, 42.5, 0.3, 41.9, 43.1, 0.5),
          (42.72, 1e-3, 42.6, 0.0, 42.54, 42.9, 1.0)]


def _step_args(r):
    sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma = r.choice(_SPECS)
    mu_m, sig_m = r.choice([(80.0, 0.003), (8.0, 0.3)])
    return dict(
        det=r.randrange(2), kind=r.randrange(2),
        w=r.uniform(0.0, 0.5), dt=r.uniform(0.0, 10.0), o=r.uniform(1.0, 3.0),
        eta=0.2, alpha=r.uniform(0.0, 2.0), beta=6e-5,
        mu_m=mu_m, sig_m=sig_m, mu_p=r.uniform(0.0, 0.1), sig_p=0.015,
        ups0=42.72, a=0.0112, b0=0.0098, gam=0.0137, sl=sl, xi=xi,
        mu_q=mu_q, sig_q=sig_q, q_lo=q_lo, q_hi=q_hi, noise_sigma=noise_sigma)


def test_job_step_bitwise_equal(built_core):
    r = random.Random(7)
    for _ in range(400):
        key_j, key_e = r.getrandbits(64), r.getrandbits(64)
        ctr_j, ctr_e = r.randrange(10**4), r.randrange(10**4)
        kw = _step_args(r)
        rp = pure.job_step(key_j, ctr_j, key_e, ctr_e, **kw)
        rc = built_core.job_step(key_j, ctr_j, key_e, ctr_e, **kw)
        for xp, xc in zip(rp, rc):
            if isinstance(xp, float):
                assert bits(xp) == bits(xc)
            else:
                assert xp == xc


def _draw_calls():
    """Draws of every kind on few keys, so that their counters overlap."""
    r = random.Random(8)
    keys = [r.getrandbits(64) for _ in range(3)]
    calls = []
    for _ in range(300):
        key, ctr = r.choice(keys), r.randrange(60)
        calls += [
            ("normal", (key, ctr, r.uniform(-3.0, 3.0), r.uniform(0.1, 2.0)),
             {}),
            ("clamped_normal", (key, ctr, 0.001, 0.015), {}),
            ("gamma", (key, ctr, r.choice([0.0, 0.37, 1.0, 3.2]), 2.5), {}),
            ("truncated_normal", (key, ctr, 0.0, 1.0, -0.5, 0.5), {}),
            ("job_step", (r.choice(keys), r.randrange(4), key,
                          r.randrange(60)), _step_args(r)),
        ]
    return calls


def test_shared_draws_bitwise_equal(built_core):
    """Pure draws read from the tables of a shared_draws() scope, on a
    first call and on a repeated one, equal the compiled ones."""
    calls = _draw_calls()
    want = [repr(getattr(built_core, name)(*args, **kw))
            for name, args, kw in calls]
    with pure.shared_draws():
        for _ in range(2):
            got = [repr(getattr(pure, name)(*args, **kw))
                   for name, args, kw in calls]
            assert got == want


_E2E = r"""
import hashlib
import importlib.util
import sys

if len(sys.argv) > 1:   # bind the compiled kernel at this path
    spec = importlib.util.spec_from_file_location("reworkopt._kernel._core",
                                                  sys.argv[1])
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[spec.name])

from reworkopt import _kernel
from reworkopt.encoding import GeneBounds, decode, random_chromosome
from reworkopt.improver import make_rescheduler
from reworkopt.instances import toy_instance
from reworkopt.rng import RngStream
from reworkopt.simulate import ONLINE, SimConfig, simulate

inst = toy_instance(10, 3)
rng = RngStream.from_seed(5)
chrom = random_chromosome(inst, (0, 1), rng, GeneBounds())
tr = simulate(inst, decode(chrom, inst), RngStream.from_seed(9),
              SimConfig(mode=ONLINE, rescheduler=make_rescheduler(8)))
h = hashlib.sha1()
for ev in tr.job_events:
    h.update(repr((ev.eid, ev.job_id, ev.machine_id, ev.start, ev.duration,
                   ev.d, ev.qualified, ev.w_after)).encode())
for ev in tr.maint_events:
    h.update(repr((ev.kind, ev.machine_id, ev.time, ev.cost)).encode())
print(_kernel.BACKEND, h.hexdigest(), repr(tr.makespan), repr(tr.maint_cost))
"""


def _run_e2e(core=None):
    """The run's digest line on core, or on the pure kernel when None."""
    env = dict(os.environ)
    env.pop("REWORKOPT_PURE", None)
    if core is None:
        env["REWORKOPT_PURE"] = "1"
    argv = [sys.executable, "-c", _E2E] + ([core.__file__] if core else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def test_full_simulation_identical_across_backends(built_core):
    backend_a, *rest_a = _run_e2e(built_core)
    backend_b, *rest_b = _run_e2e()
    assert backend_a == "compiled"
    assert backend_b == "pure"
    assert rest_a == rest_b
