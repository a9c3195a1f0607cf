"""Wear/quality sampling: distribution moments, deterministic
substitution, and equality of the fused kernel step with the documented
per-draw composition."""

import math
import struct

from reworkopt import _kernel
from reworkopt._kernel import pure
from reworkopt.instances import base_machines
from reworkopt.model import GlobalParams, QualitySpec
from reworkopt.rng import RngStream
from sampling import (actual_processing_time, classify_quality,
                      degradation_increment, draw, quality_characteristic,
                      sample_initial_quality, sample_wear_environment,
                      sample_wear_nonconforming, sample_wear_qualified)

M0 = base_machines("alternate")[0]


def test_nonconforming_wear_mean_tracks_deviation():
    rng = RngStream.from_seed(101)
    n = 20000
    mean = sum(sample_wear_nonconforming(0.1, M0, rng) for _ in range(n)) / n
    assert abs(mean - 0.1 * 82.4) / (0.1 * 82.4) < 0.05


def test_clamped_mean_at_zero_deviation():
    # mu = 0: clamping a centred Gaussian at zero leaves sigma/sqrt(2*pi)
    rng = RngStream.from_seed(102)
    n = 40000
    mean = sum(sample_wear_nonconforming(0.0, M0, rng) for _ in range(n)) / n
    expect = 0.00306 / math.sqrt(2.0 * math.pi)
    assert abs(mean - expect) / expect < 0.05


def test_processing_wear_mean_zero_rate():
    rng = RngStream.from_seed(103)
    n = 40000
    mean = sum(sample_wear_qualified(2.5, M0, rng) for _ in range(n)) / n
    expect = 0.015 / math.sqrt(2.0 * math.pi)
    assert abs(mean - expect) / expect < 0.05


def test_environment_mean_scales_with_window():
    rng = RngStream.from_seed(104)
    n = 20000
    dt = 3.0
    mean = sum(sample_wear_environment(dt, M0, rng) for _ in range(n)) / n
    expect = M0.alpha * dt * M0.beta
    assert abs(mean - expect) / expect < 0.05


def test_environment_windows_add_in_mean():
    rng = RngStream.from_seed(105)
    n = 20000
    whole = sum(sample_wear_environment(5.0, M0, rng) for _ in range(n)) / n
    split = sum(sample_wear_environment(2.0, M0, rng)
                + sample_wear_environment(3.0, M0, rng) for _ in range(n)) / n
    assert abs(whole - split) / whole < 0.1


def test_processing_time_goldens():
    assert abs(actual_processing_time(2.616, 0.2, 0.1) - 2.66832) < 1e-9
    assert abs(actual_processing_time(1.92, 0.2, 0.35) - 2.0544) < 1e-9
    assert actual_processing_time(2.0, 0.0, 0.9) == 2.0


def test_quality_characteristic_golden():
    d = quality_characteristic(M0, 0.1, 1.0)
    assert abs(d - 42.73229) < 1e-9


def test_classify_quality_boundary_is_strict():
    spec = QualitySpec(target=42.72, tol=0.08, mu_q=42.72, sigma_q=0.06,
                       lo=42.54, hi=42.9)
    assert not classify_quality(42.81, spec)      # 0.09 off, outside
    assert classify_quality(42.72 + 0.0799, spec)
    assert classify_quality(42.72, spec)
    # the exact boundary needs numbers the float grid can represent
    exact = QualitySpec(target=10.0, tol=0.25, mu_q=10.0, sigma_q=0.01,
                        lo=9.0, hi=11.0)
    assert not classify_quality(10.25, exact)
    assert classify_quality(10.2499, exact)


def test_initial_quality_respects_truncation():
    spec = QualitySpec(target=42.72, tol=0.08, mu_q=42.72, sigma_q=0.06,
                       lo=42.54, hi=42.9)
    rng = RngStream.from_seed(106)
    for _ in range(2000):
        u = sample_initial_quality(spec, rng)
        assert spec.lo <= u <= spec.hi


def test_degradation_increment_composes():
    rng_j = RngStream.from_seed(107)
    rng_e = RngStream.from_seed(108)
    wb = degradation_increment(2.0, 0.1, False, 1.5, M0, rng_j, rng_e)
    assert wb.total == (wb.du_minus + wb.du_plus) + wb.dv
    wb2 = degradation_increment(2.0, 0.0, True, 1.5, M0, rng_j, rng_e)
    assert wb2.du_minus == 0.0


def _bits(x):
    return struct.pack("<d", x)


def test_fused_step_equals_documented_composition():
    """The simulator's one-call kernel step must agree draw for draw
    with the composition of the public sampling functions."""
    g = GlobalParams(eta=0.2, theta=0.2, varphi=0.08, noise_sigma=1.0)
    spec = QualitySpec(target=42.72, tol=0.08, mu_q=42.72, sigma_q=0.06,
                       lo=42.54, hi=42.9)
    for case in range(50):
        seed_j, seed_e = 1000 + case, 5000 + case
        jkey = RngStream.from_seed(seed_j).key
        ekey = RngStream.from_seed(seed_e).key
        w, dt, o = 0.07 + 0.003 * case, 0.5 + 0.1 * case, 2.4
        (p, d, q, ups, eps, dv, du_m, du_p, w3, jctr, ectr) = _kernel.job_step(
            jkey, 0, ekey, 0, 0, 0, w, dt, o,
            g.eta, M0.alpha, M0.beta, M0.mu_minus, M0.sigma_minus,
            M0.mu_plus, M0.sigma_plus, M0.ups0, M0.a, M0.b0, M0.gamma,
            spec.target, spec.tol, spec.mu_q, spec.sigma_q,
            spec.lo, spec.hi, g.noise_sigma)
        env = RngStream(ekey)
        job = RngStream(jkey)
        dv2 = sample_wear_environment(dt, M0, env)
        w1 = w + dv2
        p2 = actual_processing_time(o, g.eta, w1)
        ups2 = sample_initial_quality(spec, job)
        eps2 = draw(job, pure.normal, 0.0, g.noise_sigma)
        d2 = quality_characteristic(M0, w1, eps2)
        delta = abs(ups2 - spec.target)
        du_m2 = 0.0 if delta < spec.tol else sample_wear_nonconforming(
            delta, M0, job)
        du_p2 = sample_wear_qualified(p2, M0, job)
        w3_2 = (w1 + du_m2) + du_p2
        assert _bits(dv) == _bits(dv2)
        assert _bits(p) == _bits(p2)
        assert _bits(ups) == _bits(ups2)
        assert _bits(eps) == _bits(eps2)
        assert _bits(d) == _bits(d2)
        assert _bits(du_m) == _bits(du_m2)
        assert _bits(du_p) == _bits(du_p2)
        assert _bits(w3) == _bits(w3_2)
        assert q == (1 if classify_quality(d2, spec) else 0)
        assert jctr == job.ctr
        assert ectr == env.ctr


def test_det_mode_substitutes_means_without_ticks():
    g = GlobalParams(eta=0.2, theta=0.2, varphi=0.08)
    spec = QualitySpec(target=42.72, tol=0.08, mu_q=42.75, sigma_q=0.06,
                       lo=42.54, hi=42.9)
    (p, d, q, ups, eps, dv, du_m, du_p, w3, jctr, ectr) = _kernel.job_step(
        11, 5, 22, 9, 1, 0, 0.1, 2.0, 2.616,
        g.eta, M0.alpha, M0.beta, M0.mu_minus, M0.sigma_minus,
        M0.mu_plus, M0.sigma_plus, M0.ups0, M0.a, M0.b0, M0.gamma,
        spec.target, spec.tol, spec.mu_q, spec.sigma_q,
        spec.lo, spec.hi, 1.0)
    assert (jctr, ectr) == (5, 9)
    assert dv == M0.alpha * 2.0 * M0.beta
    assert eps == 0.0
    assert ups == 42.75
    # deviation 0.03 sits inside the 0.08 band: no input-induced wear
    assert du_m == 0.0
    assert du_p == p * M0.mu_plus


def test_det_mode_nonconforming_input_wear():
    spec_mu_off = 42.85    # 0.13 off target, past the 0.08 band
    (p, d, q, ups, eps, dv, du_m, du_p, w3, jctr, ectr) = _kernel.job_step(
        11, 0, 22, 0, 1, 0, 0.0, 0.0, 2.0,
        0.2, M0.alpha, M0.beta, M0.mu_minus, M0.sigma_minus,
        M0.mu_plus, M0.sigma_plus, M0.ups0, M0.a, M0.b0, M0.gamma,
        42.72, 0.08, spec_mu_off, 0.06, 42.54, 42.9, 1.0)
    assert abs(du_m - 0.13 * 82.4) < 1e-9
    # the hand value for a 0.05 deviation
    assert abs(0.05 * M0.mu_minus - 4.12) < 1e-9
