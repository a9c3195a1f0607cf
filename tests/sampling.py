"""Sampling primitives for the wear/quality process, one per draw.

The draw-by-draw reference of ``test_sampling``: each primitive takes
its draw from the pure kernel at its stream's key and counter, and
moves the counter past it.  The simulator steps with the kernel's
``run_machine``, whose event is ``job_step``'s; ``test_sampling`` checks
``job_step`` against the composition of these primitives, draw by draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from reworkopt._kernel import pure
from reworkopt.model import MachineParams, QualitySpec
from reworkopt.rng import RngStream


def draw(rng: RngStream, fn, *params) -> float:
    """fn(key, ctr, *params), a pure kernel draw, at rng's key and
    counter; the counter moves past the draw."""
    x, rng.ctr = fn(rng.key, rng.ctr, *params)
    return x


def _clamped(x: float) -> float:
    """x, or 0 where it is negative, as job_step clamps an increment."""
    return 0.0 if x < 0.0 else x


@dataclass(frozen=True)
class WearBreakdown:
    """Additive wear increments of one processing event."""

    du_minus: float     # induced by an ineligible input
    du_plus: float      # induced by processing itself
    dv: float           # environment shocks over the exposure window

    @property
    def total(self) -> float:
        return (self.du_minus + self.du_plus) + self.dv


def sample_initial_quality(spec: QualitySpec, rng: RngStream) -> float:
    """Incoming material quality, truncated Gaussian."""
    return draw(rng, pure.truncated_normal, spec.mu_q, spec.sigma_q, spec.lo,
                spec.hi)


def sample_wear_nonconforming(delta: float, m: MachineParams, rng: RngStream) -> float:
    """Wear induced by loading an ineligible input with deviation delta.

    Mean scales linearly with the deviation; clamped at zero.
    """
    return _clamped(draw(rng, pure.normal, delta * m.mu_minus, m.sigma_minus))


def sample_wear_qualified(p: float, m: MachineParams, rng: RngStream) -> float:
    """Wear induced by p time units of processing, clamped at zero."""
    return _clamped(draw(rng, pure.normal, p * m.mu_plus, m.sigma_plus))


def sample_wear_environment(dt: float, m: MachineParams, rng: RngStream) -> float:
    """Accumulated environment shocks over an exposure window dt.

    Gamma with shape alpha*dt, so windows add: the draw over dt1+dt2 has
    the same law as the sum of draws over dt1 and dt2.
    """
    return draw(rng, pure.gamma, m.alpha * dt, m.beta)


def degradation_increment(p: float, delta: float, eligible: bool, dt: float,
                          m: MachineParams, job_rng: RngStream,
                          env_rng: RngStream) -> WearBreakdown:
    """All wear contributions of one processing event.

    Draw order (environment, then input-induced, then processing-induced)
    matches the event simulator.
    """
    dv = sample_wear_environment(dt, m, env_rng)
    du_m = 0.0 if eligible else sample_wear_nonconforming(delta, m, job_rng)
    du_p = sample_wear_qualified(p, m, job_rng)
    return WearBreakdown(du_minus=du_m, du_plus=du_p, dv=dv)


def actual_processing_time(o: float, eta: float, w: float) -> float:
    """Nominal time stretched by current wear."""
    return o * (1.0 + eta * w)


def quality_characteristic(m: MachineParams, w: float, eps: float) -> float:
    """Output quality: base value drifted by wear, noise amplified by wear."""
    return m.ups0 + m.a * w + m.b0 * eps + w * m.gamma * eps


def classify_quality(d: float, spec: QualitySpec) -> bool:
    """Strict conformity: |d - target| < tol."""
    return abs(d - spec.target) < spec.tol
