"""Pure-Python kernel: counter-based RNG and the per-event shop-floor math.

This module is the reference implementation and the fallback; the
hand-written C twin in ``_core.c`` mirrors its arithmetic expression by
expression.  Every arithmetic expression here is a contract: evaluation
order must not change, or the two backends stop being bit-identical.

RNG scheme: splitmix64-style hash of (key, counter).  Each uniform draw
consumes one counter tick; derived draws consume a deterministic (data
independent per attempt) number of ticks, so identical (key, ctr) inputs
give identical outputs on both backends.

Shared draws: callers that replay the same worlds many times (planner
labels, suffix projections of one trigger) open ``shared_draws()``.
While it is open, the standard normal behind ``normal`` and gamma's
uniforms are kept in per-key tables by counter, and a real job's
job-stream draws in ``job_step`` by stream position, with the type spec
they were drawn for (all label replications of a scope replay the same
job keys).  No value can change: a memo is used only for the very
inputs of its draws, it holds the very doubles the expressions
produced, and the wear increments are recomputed at each call from the
kept standard normals.  The memos
spare the big-integer hashing and Python-level sampling that dominate
this module.  The compiled twin hashes in machine words and needs no
such memo, so it has none and the kernel API is the same on both
backends.

The hot draws read the tables without a chain of calls: ``gamma``
indexes its key's rows itself, ``job_step`` looks a real job's kept
draws up itself, and ``_std_normal`` hashes both of its uniforms
inline (the expressions of ``u01`` and ``mix64``).  Each draw still has
one implementation, the same in and out of a scope.
"""

import math
from array import array
from contextlib import contextmanager

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 6.283185307179586
_INV_2_53 = 2.0 ** -53
_HOLE = array("d", [float("nan")])
_NO_ROW = array("d")


def mix64(z):
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def u01(key, ctr):
    """Uniform double in the open interval (0, 1)."""
    z = mix64((key + ((ctr + 1) * _GOLDEN)) & _M64)
    return ((z >> 11) + 0.5) * _INV_2_53


# Draw tables of the open shared_draws() scope: key -> array('d') of
# values by counter, NaN where nothing was drawn yet (no draw is NaN),
# and the job-stream draws of real jobs by stream position.
# None outside a scope, so nothing is stored there.
_normals = None
_uniforms = None
_jobs = None


@contextmanager
def shared_draws():
    """Scope in which repeated (key, ctr) draws are computed once.

    Re-entrant: a nested scope keeps the outer tables, and the outermost
    exit drops them, also when the body raises.  The tables grow with
    what the scope draws, so open it only around work that replays the
    same streams.
    """
    global _normals, _uniforms, _jobs
    outer = _normals, _uniforms, _jobs
    if _normals is None:
        _normals, _uniforms, _jobs = {}, {}, {}
    try:
        yield
    finally:
        _normals, _uniforms, _jobs = outer


def _row(table, key, ctr):
    """key's row of table, grown to hold ctr."""
    row = table.get(key)
    if row is None:
        row = table[key] = _HOLE * max(ctr + 1, 8)
    elif ctr >= len(row):
        row.extend(_HOLE * (max(ctr + 1, 2 * len(row)) - len(row)))
    return row


def _shared(table, draw, key, ctr):
    """draw(key, ctr), read from or stored in table when one is open."""
    if table is None:
        return draw(key, ctr)
    row = _row(table, key, ctr)
    x = row[ctr]
    if x != x:
        x = row[ctr] = draw(key, ctr)
    return x


def _std_normal(key, ctr):
    """Box-Muller's cosine branch on u01(key, ctr) and u01(key, ctr + 1),
    both hashed inline."""
    z = (key + ((ctr + 1) * _GOLDEN)) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    u1 = (((z ^ (z >> 31)) >> 11) + 0.5) * _INV_2_53
    z = (key + ((ctr + 2) * _GOLDEN)) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    u2 = (((z ^ (z >> 31)) >> 11) + 0.5) * _INV_2_53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def normal(key, ctr, mu, sigma):
    """Gaussian draw via Box-Muller (cosine branch only, 2 ticks).

    Returns (value, new_ctr).
    """
    z = _shared(_normals, _std_normal, key, ctr)
    return mu + sigma * z, ctr + 2


def clamped_normal(key, ctr, mu, sigma):
    """Gaussian draw truncated below at zero (wear increments cannot be
    negative)."""
    x, ctr = normal(key, ctr, mu, sigma)
    if x < 0.0:
        x = 0.0
    return x, ctr


def gamma(key, ctr, shape, scale):
    """Gamma draw, Marsaglia-Tsang squeeze method.

    shape == 0 returns 0 without consuming ticks (a zero-length exposure
    window draws nothing).  shape < 1 is boosted through Gamma(shape+1)
    and one extra uniform.  An attempt's standard normal and uniform are
    read from the scope's tables directly (``normal``'s draw is
    0.0 + 1.0 * z, which is z: z is never zero).
    """
    if shape <= 0.0:
        return 0.0, ctr
    if shape < 1.0:
        g, ctr = gamma(key, ctr, shape + 1.0, scale)
        u = _shared(_uniforms, u01, key, ctr)
        ctr += 1
        return g * math.pow(u, 1.0 / shape), ctr
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    normals, uniforms = _normals, _uniforms
    if normals is not None:
        nrow, urow = normals.get(key, _NO_ROW), uniforms.get(key, _NO_ROW)
    while True:
        if normals is None:
            x = _std_normal(key, ctr)
        else:
            if ctr >= len(nrow):
                nrow = _row(normals, key, ctr)
            x = nrow[ctr]
            if x != x:
                x = nrow[ctr] = _std_normal(key, ctr)
        ctr += 2
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        if uniforms is None:
            u = u01(key, ctr)
        else:
            if ctr >= len(urow):
                urow = _row(uniforms, key, ctr)
            u = urow[ctr]
            if u != u:
                u = urow[ctr] = u01(key, ctr)
        ctr += 1
        if u < 1.0 - 0.0331 * (x * x) * (x * x):
            return d * v * scale, ctr
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v * scale, ctr


def truncated_normal(key, ctr, mu, sigma, lo, hi):
    """Gaussian draw rejected outside [lo, hi].

    sigma == 0 degenerates to mu clamped into the interval.
    """
    if sigma == 0.0:
        if mu < lo:
            return lo, ctr
        if mu > hi:
            return hi, ctr
        return mu, ctr
    while True:
        x, ctr = normal(key, ctr, mu, sigma)
        if lo <= x <= hi:
            return x, ctr


def _job_draws(jkey, jctr, spec):
    """A real job's job-stream draws from stream position (jkey, jctr)
    for the type spec = (sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma):
    (spec, ups, eps, z_m, z_p, jctr), where z_m and z_p are the standard
    normals behind the two wear increments (z_m is None when ups is
    within tolerance).  Kept by position inside a scope, with the spec
    they were drawn for; job_step looks them up itself.  Specs compare
    -0.0 == 0.0, and only a zero ups can tell such specs apart, so a
    zero ups is not kept."""
    pos = jkey, jctr
    sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma = spec
    ups, jctr = truncated_normal(jkey, jctr, mu_q, sig_q, q_lo, q_hi)
    eps, jctr = normal(jkey, jctr, 0.0, noise_sigma)
    z_m = None
    if not abs(ups - sl) < xi:
        z_m = _shared(_normals, _std_normal, jkey, jctr)
        jctr += 2
    z_p = _shared(_normals, _std_normal, jkey, jctr)
    got = spec, ups, eps, z_m, z_p, jctr + 2
    if _jobs is not None and ups != 0.0:
        _jobs[pos] = got
    return got


def job_step(jkey, jctr, ekey, ectr, det, kind, w, dt, o,
             eta, alpha, beta, mu_m, sig_m, mu_p, sig_p,
             ups0, a, b0, gam, sl, xi,
             mu_q, sig_q, q_lo, q_hi, noise_sigma):
    """One processing event on a machine: environment wear, processing
    time, quality outcome, induced wear.

    kind 0 is a real job, kind 1 an idle placeholder (wear and time only,
    no quality outcome).  det != 0 replaces every draw by its mean and
    leaves both counters untouched.

    Order of operations is the contract: the environment increment for
    the exposure window dt lands on the wear *before* the processing time
    and the quality characteristic are computed; the input-induced and
    processing-induced increments land after.

    Returns (p, d, q, ups, eps, dv, du_m, du_p, w_after, jctr, ectr)
    where q is 1/0 for real jobs and -1 for idle placeholders.
    """
    if det:
        dv = alpha * dt * beta
    else:
        dv, ectr = gamma(ekey, ectr, alpha * dt, beta)
    w1 = w + dv
    p = o * (1.0 + eta * w1)

    # the increments are clamped_normal's mu + sigma * z, clamped at 0
    if kind:
        d, q, ups, eps, du_m = 0.0, -1, 0.0, 0.0, 0.0
        if not det:
            z_p = _shared(_normals, _std_normal, jkey, jctr)
            jctr += 2
    else:
        if det:
            ups = mu_q
            if ups < q_lo:
                ups = q_lo
            elif ups > q_hi:
                ups = q_hi
            eps = 0.0
        else:
            spec = sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma
            got = None if _jobs is None else _jobs.get((jkey, jctr))
            if got is None or got[0] != spec:
                got = _job_draws(jkey, jctr, spec)
            _, ups, eps, z_m, z_p, jctr = got

        d = ups0 + a * w1 + b0 * eps + w1 * gam * eps
        q = 1 if abs(d - sl) < xi else 0

        delta = abs(ups - sl)
        if delta < xi:
            du_m = 0.0
        else:
            du_m = delta * mu_m if det else delta * mu_m + sig_m * z_m
            if du_m < 0.0:
                du_m = 0.0
    du_p = p * mu_p if det else p * mu_p + sig_p * z_p
    if du_p < 0.0:
        du_p = 0.0

    w3 = (w1 + du_m) + du_p
    return p, d, q, ups, eps, dv, du_m, du_p, w3, jctr, ectr
