"""Pure-Python kernel: counter-based RNG and the per-event shop-floor math.

This module is the reference implementation and the fallback; the
hand-written C twin in ``_core.c`` mirrors its arithmetic expression by
expression.  Every arithmetic expression here is a contract: evaluation
order must not change, or the two backends stop being bit-identical.
The kernel API is ``mix64``, ``u01``, ``job_step`` and ``run_machine``
on both backends; ``normal``, ``gamma`` and ``truncated_normal`` are
the draws ``job_step`` is built on, which the C twin keeps inside its
step, and ``use_tables`` takes the tables of a shared-draw scope.

RNG scheme: splitmix64-style hash of (key, counter).  Each uniform draw
consumes one counter tick; derived draws consume a deterministic (data
independent per attempt) number of ticks, so identical (key, ctr) inputs
give identical outputs on both backends.

Shared draws: callers that replay the same worlds many times (planner
labels, suffix projections of one trigger) open ``rng.shared_draws()``,
which hands this module its draw tables (``use_tables``) and owns them.
While they are in use, the standard normal behind ``normal`` and
gamma's uniforms are kept in per-key tables by counter, and a real
job's job-stream draws in ``job_step`` by stream position, with the
type spec they were drawn for.  No value can change, whichever scope
filled a table: a memo is used only for the very inputs of its draws,
it holds the very doubles the expressions produced, and the wear
increments are recomputed at each call from the kept standard normals.
The memos spare the big-integer hashing and Python-level sampling that
dominate this module.  The compiled twin hashes in machine words and
needs no such memo, so it reads no tables.

A machine's first draws come in one batch: when a stochastic
``run_machine`` starts inside a scope on an environment key its tables
hold no row for (the first label replication of a planning run, the
first projection of a trigger), it hashes the first ticks of that key
and of its row's real jobs' keys at once (``_prefetch``), in the 128-bit
lanes of one Python int (``_mix64_lanes``: exact, so every uniform is
bit for bit ``u01``'s), and fills the tables with what the scalar draws
would store there: each job's ``_job_draws`` from counter 0, and the
environment stream's uniforms and the normals at the ticks where gamma
reads them.  Whatever the batch does not cover (a rejected draw past
its ticks, a longer run) the scalar draws compute as before.

The hot draws read the tables without a chain of calls: ``gamma``
indexes its key's rows itself, ``job_step`` looks a real job's kept
draws up itself, and ``_std_normal`` hashes both of its uniforms
inline (the expressions of ``u01`` and ``mix64``).  Each draw has one
scalar implementation, the same in and out of a scope; the batch reuses
its float expressions (``_box_muller`` is ``_std_normal``'s transform).

``run_machine`` steps one machine of any run in one call, and so repeats,
in the same order, the expressions of ``job_step`` (the wear and time of
the event, the quality outcome, the increments) and of ``gamma`` (the
Marsaglia-Tsang loop, the boost below shape 1, the table reads); the job
draws it leaves to ``_job_draws`` and ``_std_normal``.  The parity tests
of ``tests/test_simulate.py`` hold it to ``job_step`` (through the
reference loop of ``tests/reference.py``), and
``tests/test_kernel_parity.py`` holds the compiled ``run_machine``,
which calls the compiled step itself, to it bit for bit.
"""

import math
import sys
from array import array

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 6.283185307179586
_INV_2_53 = 2.0 ** -53
_HOLE = array("d", [float("nan")])
_NO_ROW = array("d")
# lanes are packed in native byte order, where a lane's low 64 bits are
# word _LO of its two
_ORDER = sys.byteorder
_LO = 0 if _ORDER == "little" else 1
_LANE_M64 = _M64.to_bytes(16, _ORDER)
_JOB_TICKS = 8          # batched ticks of a job key: 4 standard normals
_golden = b""           # (t + 1) * _GOLDEN by tick t, grown by _u01_lanes


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


def _mix64_lanes(x, n, shift=0):
    """mix64(lane) >> shift for each of the n 128-bit lanes of x, as a
    memoryview of n 64-bit words.

    As in mix64, each lane is first reduced to 64 bits, and every round
    masks the lanes to 64 bits before it multiplies, so no product
    carries into the next lane; a right shift moves the next lane's low
    bits only into the top half of a lane, which the next mask clears or
    the unpacking drops.  The mask is built from bytes on each call, not
    kept."""
    mask = int.from_bytes(_LANE_M64 * n, _ORDER)
    x &= mask
    x = (((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    x = (((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB) & mask
    x = (x ^ (x >> 31)) >> shift
    return memoryview(x.to_bytes(16 * n, _ORDER)).cast("Q")[_LO::2]


def _u01_lanes(groups):
    """u01(key, ctr) for every key of each (keys, ticks) group and every
    ctr below its ticks, key by key, in one list.  Keys are below 2**64.
    A lane holds key + (ctr + 1) * _GOLDEN, built from bytes: each key
    repeated, plus a prefix of the golden-ratio lanes _golden."""
    global _golden
    top = max(ticks for _, ticks in groups)
    if 16 * top > len(_golden):
        _golden += b"".join((((t + 1) * _GOLDEN) & _M64).to_bytes(16, _ORDER)
                            for t in range(len(_golden) // 16, top))
    golden = _golden
    keys_b, golden_b, n = [], [], 0
    for keys, ticks in groups:
        keys_b += [k.to_bytes(16, _ORDER) * ticks for k in keys]
        golden_b.append(golden[:16 * ticks] * len(keys))
        n += ticks * len(keys)
    x = (int.from_bytes(b"".join(keys_b), _ORDER)
         + int.from_bytes(b"".join(golden_b), _ORDER))
    return [(z + 0.5) * _INV_2_53 for z in _mix64_lanes(x, n, 11)]


# Draw tables of the open shared-draw scope: key -> array('d') of
# values by counter, NaN where nothing was drawn yet (no draw is NaN),
# and the job-stream draws of real jobs by stream position.
# None outside a scope, so nothing is stored there.
_normals = None
_uniforms = None
_jobs = None


def use_tables(tables):
    """Read and fill the draw tables (normals, uniforms, jobs) from now
    on, or none when tables is None.  rng.shared_draws() hands them
    over."""
    global _normals, _uniforms, _jobs
    if tables is None:
        tables = None, None, None
    _normals, _uniforms, _jobs = tables


def _prefetch(row, i, mid, job_keys, ekey):
    """Fill the open scope's tables at once for machine mid's stochastic
    run of row[i:] from environment key ekey, for which they hold no row
    yet.

    Every value is the one its scalar draw gives.  Each real job of
    row[i:] gets _jobs[jkey, 0] = _job_draws(jkey, 0, spec) from ticks
    0-7 of its key jkey = job_keys[e.eid], spec being the last seven
    values of e.args[mid] (a job that needs more ticks, or draws a zero
    ups, is left to _job_draws).  ekey's _uniforms row holds u01 for its
    first 3 * (len(row) - i + 2) ticks, and its _normals row the standard
    normal at every third of them, where gamma reads its normals while
    no attempt is rejected and no shape is below 1.  All uniforms are
    hashed in one call of _u01_lanes."""
    jobs = [(job_keys[e.eid], e.args[mid][-7:]) for e in row[i:]
            if e.job is not None]
    ticks = 3 * (len(row) - i + 2)
    u = _u01_lanes([([jkey for jkey, _ in jobs], _JOB_TICKS),
                    ([ekey], ticks)])
    for k, (jkey, spec) in enumerate(jobs):
        got = _batched_job_draws(u, k * _JOB_TICKS, spec)
        if got is not None and got[1] != 0.0:
            _jobs[jkey, 0] = got
    urow = _uniforms[ekey] = array("d", u[-ticks:])
    nrow = _normals[ekey] = _HOLE * ticks
    nrow[::3] = array("d", [_box_muller(urow[t], urow[t + 1])
                            for t in range(0, ticks, 3)])


def _batched_job_draws(u, i, spec):
    """_job_draws(jkey, 0, spec) from jkey's uniforms u[i:i + _JOB_TICKS],
    or None when its draws need more ticks.  The same draws in the same
    order and the same float expressions: truncated_normal's (ups), then
    normal's (eps), then the standard normals z_m and z_p."""
    sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma = spec
    start, end = i, i + _JOB_TICKS
    if sig_q == 0.0:
        ups = q_lo if mu_q < q_lo else q_hi if mu_q > q_hi else mu_q
    else:
        while True:
            if i == end:
                return None
            ups = mu_q + sig_q * _box_muller(u[i], u[i + 1])
            i += 2
            if q_lo <= ups <= q_hi:
                break
    outside = not abs(ups - sl) < xi
    if i + (6 if outside else 4) > end:
        return None
    eps = 0.0 + noise_sigma * _box_muller(u[i], u[i + 1])
    i += 2
    z_m = None
    if outside:
        z_m = _box_muller(u[i], u[i + 1])
        i += 2
    z_p = _box_muller(u[i], u[i + 1])
    return spec, ups, eps, z_m, z_p, i + 2 - start


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
    return _box_muller(u1, u2)


def _box_muller(u1, u2):
    """Box-Muller's cosine branch: the standard normal of two uniforms."""
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def normal(key, ctr, mu, sigma):
    """Gaussian draw via Box-Muller (cosine branch only, 2 ticks).

    Returns (value, new_ctr).
    """
    z = _shared(_normals, _std_normal, key, ctr)
    return mu + sigma * z, ctr + 2


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

    # the increments are normal's mu + sigma * z, clamped at 0
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


def run_machine(row, i, mid, job_keys, ekey, ectr, det, skip_idle, cap, w0,
                t_cm, zeta, n_u, w, ready, last_start, maint_acc, n_pm,
                suspended, cyc_jobs, cyc_busy, lt, end, q_count, record=None):
    """Step machine mid of a run through row[i:], its state in locals,
    up to the row's end or the first step at which maintenance is due:
    a worn-out machine's repair or a preventive action.

    row holds the simulator's entries: each has release, job (None for
    an idle placeholder), eid, times[mid] (the nominal time o) and
    args[mid] (job_step's arguments after o).  Entry e draws from job
    key job_keys[e.eid] at counter 0 and the machine from (ekey, ectr);
    a det run draws nothing and reads no job key.  skip_idle skips idle
    placeholders instead of stepping them.  Per entry, in this order:
    its start t = max(ready, release); a stop before it if w > cap or a
    preventive action is due (not suspended, w / cap >= zeta,
    n_pm < n_u); a skipped placeholder; otherwise job_step's event, a
    real job's completion counted into end, q_count, cyc_jobs and
    cyc_busy, and a corrective reset at the completion that crossed
    cap.  The reset sets w to w0, n_pm to 0, suspended to False, the
    cycle counts to 0, ready to completion + t_cm and adds t_cm to
    maint_acc.  lt is the start of the last step taken.

    Returns (i, stop, ectr, w, ready, last_start, maint_acc, n_pm,
    suspended, cyc_jobs, cyc_busy, lt, end, q_count, resets): stop is
    the due step's start or None at the row's end, and resets lists
    (step start, completion, wear before) of each reset in order.
    When record is a list, each stepped entry appends (row index, start,
    p, d, q, ups, eps, dv, du_m, du_p, w_before, w_after) to it, the
    values as job_step returns them.

    The event is job_step's and the environment draw gamma's, expression
    for expression and in the same order; the shared-draw tables are
    read as those functions read them, once _prefetch has filled them
    for a stochastic run on an ekey the open tables have no row for (it
    reads the key of every real job of row[i:]).  tests/test_simulate.py
    pins this copy to job_step through its reference loop, and
    tests/test_kernel_parity.py pins the compiled twin to it.
    """
    normals, uniforms, jobs = _normals, _uniforms, _jobs
    sqrt, log, pow = math.sqrt, math.log, math.pow
    if normals is not None:
        if not det and ekey not in uniforms:
            _prefetch(row, i, mid, job_keys, ekey)
        nrow, urow = normals.get(ekey, _NO_ROW), uniforms.get(ekey, _NO_ROW)
    resets = []
    stop = None
    n = len(row)
    unpacked = None     # the args tuple whose values are in locals
    while i < n:
        ent = row[i]
        t = ready
        if ent.release > t:
            t = ent.release
        if w > cap or not suspended and w / cap >= zeta and n_pm < n_u:
            stop = t
            break
        job = ent.job
        if job is None and skip_idle:
            i += 1
            lt = t
            continue
        dt = (t - last_start) - maint_acc
        if dt < 0.0:
            dt = 0.0
        o = ent.times[mid]
        args = ent.args[mid]
        if args is not unpacked:
            unpacked = args
            (eta, alpha, beta, mu_m, sig_m, mu_p, sig_p, ups0, a, b0, gam, sl,
             xi, mu_q, sig_q, q_lo, q_hi, noise_sigma) = args
            spec = sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma

        # job_step's environment wear: gamma(ekey, ectr, alpha * dt, beta)
        shape = alpha * dt
        if det:
            dv = alpha * dt * beta
        elif shape <= 0.0:
            dv = 0.0
        else:
            # a shape below 1 is boosted: Gamma(shape + 1), one uniform
            boost = shape < 1.0
            dd = (shape + 1.0 if boost else shape) - 1.0 / 3.0
            c = 1.0 / sqrt(9.0 * dd)
            while True:
                if normals is None:
                    x = _std_normal(ekey, ectr)
                else:
                    if ectr >= len(nrow):
                        nrow = _row(normals, ekey, ectr)
                    x = nrow[ectr]
                    if x != x:
                        x = nrow[ectr] = _std_normal(ekey, ectr)
                ectr += 2
                v = 1.0 + c * x
                if v <= 0.0:
                    continue
                v = v * v * v
                if uniforms is None:
                    u = u01(ekey, ectr)
                else:
                    if ectr >= len(urow):
                        urow = _row(uniforms, ekey, ectr)
                    u = urow[ectr]
                    if u != u:
                        u = urow[ectr] = u01(ekey, ectr)
                ectr += 1
                if u < 1.0 - 0.0331 * (x * x) * (x * x):
                    break
                if log(u) < 0.5 * x * x + dd * (1.0 - v + log(v)):
                    break
            dv = dd * v * beta
            if boost:
                if uniforms is None:
                    u = u01(ekey, ectr)
                else:
                    if ectr >= len(urow):
                        urow = _row(uniforms, ekey, ectr)
                    u = urow[ectr]
                    if u != u:
                        u = urow[ectr] = u01(ekey, ectr)
                ectr += 1
                dv = dv * pow(u, 1.0 / shape)
        w1 = w + dv
        p = o * (1.0 + eta * w1)

        # job_step's outcome and increments
        if job is None:
            d, q, ups, eps, du_m = 0.0, -1, 0.0, 0.0, 0.0
            if not det:
                jkey = job_keys[ent.eid]
                if normals is None:
                    z_p = _std_normal(jkey, 0)
                else:
                    jrow = normals.get(jkey)
                    if jrow is None:
                        jrow = _row(normals, jkey, 0)
                    z_p = jrow[0]
                    if z_p != z_p:
                        z_p = jrow[0] = _std_normal(jkey, 0)
        else:
            if det:
                ups = mu_q
                if ups < q_lo:
                    ups = q_lo
                elif ups > q_hi:
                    ups = q_hi
                eps = 0.0
            else:
                jkey = job_keys[ent.eid]
                got = None if jobs is None else jobs.get((jkey, 0))
                if got is None or got[0] != spec:
                    got = _job_draws(jkey, 0, spec)
                _, ups, eps, z_m, z_p, _ = got
            d = ups0 + a * w1 + b0 * eps + w1 * gam * eps
            delta = abs(ups - sl)
            if delta < xi:
                du_m = 0.0
            else:
                du_m = delta * mu_m if det else delta * mu_m + sig_m * z_m
                if du_m < 0.0:
                    du_m = 0.0
            if t + p > end:
                end = t + p
            q = 1 if abs(d - sl) < xi else 0
            q_count += q
            cyc_jobs += 1
            cyc_busy += p
        du_p = p * mu_p if det else p * mu_p + sig_p * z_p
        if du_p < 0.0:
            du_p = 0.0
        w3 = (w1 + du_m) + du_p
        if record is not None:
            record.append((i, t, p, d, q, ups, eps, dv, du_m, du_p, w, w3))
        w = w3

        last_start = t
        maint_acc = 0.0
        ready = t + p
        i += 1
        lt = t
        if w > cap:
            resets.append((t, ready, w))
            w, n_pm, suspended, cyc_jobs, cyc_busy = w0, 0, False, 0, 0.0
            ready = ready + t_cm
            maint_acc += t_cm
    return (i, stop, ectr, w, ready, last_start, maint_acc, n_pm, suspended,
            cyc_jobs, cyc_busy, lt, end, q_count, resets)
