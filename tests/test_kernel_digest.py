"""The kernel's draws, pinned by digest.

Each case hashes the repr of every result of a few hundred calls of one
draw (floats repr round-trip exactly, the sign of zero included), once
outside an ``rng.shared_draws()`` scope and twice inside one: on the first
call, which fills the pure kernel's tables, and on the repeat, which
reads them.  Any change to an expression, a tick count or a memo shows
up here.  Every importable backend, and the compiled kernel built from
this checkout's ``_core.c`` (``built_core``), must give the same
digests; the compiled kernel keeps its gamma, normal and truncated
normal draws inside its step, so those cases reach them through
``job_step`` (``step_draws``).
"""

import hashlib
import random

import pytest

from reworkopt._kernel import pure
from reworkopt.rng import shared_draws
from step_draws import through_job_step


def backends():
    """Return {name: module} for every importable backend."""
    out = {"pure": pure}
    try:
        from reworkopt._kernel import _core  # type: ignore[attr-defined]

        out["compiled"] = _core
    except ImportError:
        pass
    return out


# type specs (sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma): spread,
# wide, and degenerate (sig_q = 0) inputs
_SPECS = [(42.72, 0.08, 42.72, 0.06, 42.54, 42.9, 1.0),
          (42.61, 0.07, 42.5, 0.3, 41.9, 43.1, 0.5),
          (42.72, 1e-3, 42.6, 0.0, 42.54, 42.9, 1.0)]


def _keys(r):
    # few keys and counters, so that calls inside a scope hit the tables
    keys = [r.getrandbits(64) for _ in range(4)]
    return lambda: (r.choice(keys), r.randrange(40))


def _gamma_calls(shapes):
    def calls(r):
        kc = _keys(r)
        return [(*kc(), r.choice(shapes), r.uniform(0.01, 3.0))
                for _ in range(300)]
    return calls


def _normal_calls(r):
    kc = _keys(r)
    return [(*kc(), r.uniform(-3.0, 3.0), r.uniform(0.01, 2.0))
            for _ in range(300)]


def _truncated_calls(r):
    kc = _keys(r)
    out = []
    for _ in range(300):
        mu, sigma = r.uniform(-3.0, 3.0), r.choice([0.0, r.uniform(0.1, 2.0)])
        out.append((*kc(), mu, sigma, mu - r.uniform(0.3, 3.0) * sigma,
                    mu + r.uniform(0.3, 3.0) * sigma))
    return out


def _job_step_calls(det, kind):
    def calls(r):
        jkc, ekc = _keys(r), _keys(r)
        out = []
        for _ in range(300):
            sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma = r.choice(_SPECS)
            mu_m, sig_m = r.choice([(80.0, 0.003), (8.0, 0.3)])
            jkey, jctr = jkc()
            out.append((jkey, jctr % 6, *ekc(), det, kind,
                        r.uniform(0.0, 0.5), r.choice([0.0, r.uniform(0.0, 10.0)]),
                        r.uniform(1.0, 3.0), 0.2, r.uniform(0.0, 2.0), 6e-5,
                        mu_m, sig_m, r.uniform(0.0, 0.1), 0.015,
                        42.72, 0.0112, 0.0098, 0.0137, sl, xi,
                        mu_q, sig_q, q_lo, q_hi, noise_sigma))
        return out
    return calls


CASES = {
    "gamma-zero": ("gamma", _gamma_calls([0.0]),
        "cb53adfd89e64b2175c12bdc91cd3f621d66c88f2c5a85f5bb906d75685410cd"),
    "gamma-below-one": ("gamma", _gamma_calls([0.05, 0.37, 0.99]),
        "d4af002be5ce51e829449870780ce4fb25337426d6a16f4ac4ea3a3c11c5a0cc"),
    "gamma-one-and-up": ("gamma", _gamma_calls([1.0, 3.2, 17.5]),
        "e97aaefdbd9ca4daec4ce7d590cb1b4f8c4fe6eb8137d583e84fd7b1788cebb0"),
    "normal": ("normal", _normal_calls,
        "a208c68187b4d236cce80afee95e367cf47c5ef43cfc620df57dccc4132b0de3"),
    "truncated_normal": ("truncated_normal", _truncated_calls,
        "8da1a90af314cc3ecd8d3a0a9ccbbc451f8f496d016decb12f605beef96fdcfd"),
    "job_step-random-job": ("job_step", _job_step_calls(0, 0),
        "5d13d4d551f9e688351796badf359c43fbda80fd7cc58e9f3c4c8f94c522d266"),
    "job_step-random-idle": ("job_step", _job_step_calls(0, 1),
        "cac8a3a2194dea7cdacaeb52216ce16c70cb8e8a65ee4cfca04fad0ca54c8538"),
    "job_step-mean-job": ("job_step", _job_step_calls(1, 0),
        "59e5006b4dc25e6e04d14eec19423c11a9f71c731a88197b824b2f269c82a503"),
    "job_step-mean-idle": ("job_step", _job_step_calls(1, 1),
        "4f36e0cc3d4cce873c9b736129f3b48b7310244105347236a49a470ff36adc8e"),
}


def _digest(fn, calls):
    h = hashlib.sha256()
    for args in calls:
        h.update(repr(fn(*args)).encode())
    return h.hexdigest()


def _check(mod, name):
    draw, make, want = CASES[name]
    fn = getattr(mod, draw, None) or getattr(through_job_step(mod), draw)
    calls = make(random.Random(name))
    assert _digest(fn, calls) == want
    with shared_draws():
        assert _digest(fn, calls) == want
        assert _digest(fn, calls) == want


@pytest.mark.parametrize("backend", sorted(backends()))
@pytest.mark.parametrize("name", sorted(CASES))
def test_draws_match_their_pinned_digest(name, backend):
    _check(backends()[backend], name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_built_kernel_draws_match_their_pinned_digest(name, built_core):
    _check(built_core, name)
