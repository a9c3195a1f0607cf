/* Compiled kernel: a statement-level twin of pure.py.

   Bit-identity with the pure backend is a hard requirement.  Every
   expression keeps pure.py's evaluation order, and setup.py builds this
   file with -ffp-contract=off so that the compiler cannot fuse
   multiply-adds.  Change an expression here only together with pure.py,
   then run tests/test_kernel_parity.py and tests/test_kernel_digest.py:
   they build this file themselves.

   The module's four functions, mix64, u01, job_step and run_machine,
   take the same arguments, positional or by keyword, and return the
   same values as pure.py's; the normal, gamma and truncated normal
   draws are static helpers of step() here.  Keys are taken modulo
   2**64, as pure.py's masks take them; counters must be nonnegative
   and fit in 64 bits.  Hashing in machine words is cheap, so there is no
   shared_draws() memo here.  run_machine steps a row with the same step()
   as job_step, so the event's arithmetic has one copy here; it stops
   where maintenance is due and repairs only at a failing completion. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define TWO_PI 6.283185307179586
#define INV_2_53 0x1p-53

/* ---- draws on (key, counter) streams ---------------------------------- */

static inline uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline double
u01(uint64_t key, uint64_t ctr)
{
    uint64_t z = mix64(key + (ctr + 1) * GOLDEN);
    return ((double)(z >> 11) + 0.5) * INV_2_53;
}

/* Box-Muller's cosine branch on the uniforms at ctr and ctr + 1. */
static inline double
std_normal(uint64_t key, uint64_t ctr)
{
    double u1 = u01(key, ctr), u2 = u01(key, ctr + 1);
    return sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2);
}

static inline double
draw_normal(uint64_t key, uint64_t *ctr, double mu, double sigma)
{
    double z = std_normal(key, *ctr);
    *ctr += 2;
    return mu + sigma * z;
}

static double
draw_gamma(uint64_t key, uint64_t *ctr, double shape, double scale)
{
    double d, c;
    if (shape <= 0.0)
        return 0.0;
    if (shape < 1.0) {
        double g = draw_gamma(key, ctr, shape + 1.0, scale);
        double u = u01(key, *ctr);
        *ctr += 1;
        return g * pow(u, 1.0 / shape);
    }
    d = shape - 1.0 / 3.0;
    c = 1.0 / sqrt(9.0 * d);
    for (;;) {
        double x = std_normal(key, *ctr), v, u;
        *ctr += 2;
        v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        u = u01(key, *ctr);
        *ctr += 1;
        if (u < 1.0 - 0.0331 * (x * x) * (x * x))
            return d * v * scale;
        if (log(u) < 0.5 * x * x + d * (1.0 - v + log(v)))
            return d * v * scale;
    }
}

static double
draw_truncated_normal(uint64_t key, uint64_t *ctr, double mu, double sigma,
                      double lo, double hi)
{
    if (sigma == 0.0)
        return mu < lo ? lo : mu > hi ? hi : mu;
    for (;;) {
        double x = draw_normal(key, ctr, mu, sigma);
        if (lo <= x && x <= hi)
            return x;
    }
}

/* ---- argument conversion ---------------------------------------------- */

/* Fill out[0..n) with the arguments of a METH_FASTCALL | METH_KEYWORDS
   call of fname, whose parameters are names[0..n), the first nreq of
   them required; an optional one not given is NULL. */
static int
bind(const char *fname, const char *const *names, Py_ssize_t n,
     Py_ssize_t nreq, PyObject *const *args, Py_ssize_t nargs,
     PyObject *kwnames, PyObject **out)
{
    Py_ssize_t i, k, nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;

    if (nargs > n) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments "
                     "but %zd were given", fname, n, nargs);
        return -1;
    }
    for (i = 0; i < n; i++)
        out[i] = i < nargs ? args[i] : NULL;
    for (k = 0; k < nkw; k++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, k);
        for (i = 0; i < n; i++)
            if (PyUnicode_CompareWithASCIIString(key, names[i]) == 0)
                break;
        if (i == n) {
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected keyword "
                         "argument '%U'", fname, key);
            return -1;
        }
        if (out[i]) {
            PyErr_Format(PyExc_TypeError, "%s() got multiple values for "
                         "argument '%s'", fname, names[i]);
            return -1;
        }
        out[i] = args[nargs + k];
    }
    for (i = 0; i < nreq; i++)
        if (!out[i]) {
            PyErr_Format(PyExc_TypeError, "%s() missing required argument "
                         "'%s'", fname, names[i]);
            return -1;
        }
    return 0;
}

static int
as_key(PyObject *o, uint64_t *out)
{
    *out = PyLong_AsUnsignedLongLongMask(o);
    return *out == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static int
as_ctr(PyObject *o, uint64_t *out)
{
    PyObject *i = PyNumber_Index(o);
    if (!i)
        return -1;
    *out = PyLong_AsUnsignedLongLong(i);
    Py_DECREF(i);
    return *out == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static int
as_double(PyObject *o, double *out)
{
    *out = PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The tuple of the n new references in items; NULL, with every item
   released, when one of them or the tuple could not be made. */
static PyObject *
pack(PyObject **items, Py_ssize_t n)
{
    PyObject *t = NULL;
    Py_ssize_t i;

    for (i = 0; i < n; i++)
        if (!items[i])
            goto fail;
    if (!(t = PyTuple_New(n)))
        goto fail;
    for (i = 0; i < n; i++)
        PyTuple_SET_ITEM(t, i, items[i]);
    return t;
fail:
    for (i = 0; i < n; i++)
        Py_XDECREF(items[i]);
    return NULL;
}

/* ---- module functions ------------------------------------------------- */

#define FASTCALL_KW(name) \
    static PyObject *py_##name(PyObject *Py_UNUSED(m), PyObject *const *args, \
                               Py_ssize_t nargs, PyObject *kwnames)

PyDoc_STRVAR(mix64_doc, "mix64($module, z)\n--\n\n"
"splitmix64 finalizer on a 64-bit integer.");

FASTCALL_KW(mix64)
{
    static const char *const names[] = {"z"};
    PyObject *a[1];
    uint64_t z;

    if (bind("mix64", names, 1, 1, args, nargs, kwnames, a)
        || as_key(a[0], &z))
        return NULL;
    return PyLong_FromUnsignedLongLong(mix64(z));
}

PyDoc_STRVAR(u01_doc, "u01($module, key, ctr)\n--\n\n"
"Uniform double in the open interval (0, 1).");

FASTCALL_KW(u01)
{
    static const char *const names[] = {"key", "ctr"};
    PyObject *a[2];
    uint64_t key, ctr;

    if (bind("u01", names, 2, 2, args, nargs, kwnames, a) || as_key(a[0], &key)
        || as_ctr(a[1], &ctr))
        return NULL;
    return PyFloat_FromDouble(u01(key, ctr));
}

/* ---- the processing event ------------------------------------------- */

#define N_STEP_DOUBLES 21

/* job_step's outcome besides the counters. */
struct step {
    double p, d, ups, eps, dv, du_m, du_p, w3;
    long q;
};

/* One processing event on a machine; v holds job_step's doubles, w
   first.  The counters advance in place. */
static void
step(uint64_t jkey, uint64_t *jctr, uint64_t ekey, uint64_t *ectr, int det,
     int kind, const double *v, struct step *s)
{
    const double w = v[0], dt = v[1], o = v[2], eta = v[3], alpha = v[4],
        beta = v[5], mu_m = v[6], sig_m = v[7], mu_p = v[8], sig_p = v[9],
        ups0 = v[10], a = v[11], b0 = v[12], gam = v[13], sl = v[14],
        xi = v[15], mu_q = v[16], sig_q = v[17], q_lo = v[18], q_hi = v[19],
        noise_sigma = v[20];
    double w1, p, ups = 0.0, eps = 0.0, du_m = 0.0, du_p;

    s->d = 0.0;
    s->q = -1;
    if (det)
        s->dv = alpha * dt * beta;
    else
        s->dv = draw_gamma(ekey, ectr, alpha * dt, beta);
    w1 = w + s->dv;
    p = o * (1.0 + eta * w1);

    /* kind 1 is an idle placeholder: no quality outcome, no input wear */
    if (!kind) {
        double delta;
        if (det) {
            ups = mu_q;
            if (ups < q_lo)
                ups = q_lo;
            else if (ups > q_hi)
                ups = q_hi;
        } else {
            ups = draw_truncated_normal(jkey, jctr, mu_q, sig_q, q_lo, q_hi);
            eps = draw_normal(jkey, jctr, 0.0, noise_sigma);
        }
        s->d = ups0 + a * w1 + b0 * eps + w1 * gam * eps;
        s->q = fabs(s->d - sl) < xi ? 1 : 0;
        delta = fabs(ups - sl);
        if (!(delta < xi)) {
            du_m = det ? delta * mu_m
                       : draw_normal(jkey, jctr, delta * mu_m, sig_m);
            if (du_m < 0.0)
                du_m = 0.0;
        }
    }
    du_p = det ? p * mu_p : draw_normal(jkey, jctr, p * mu_p, sig_p);
    if (du_p < 0.0)
        du_p = 0.0;
    s->w3 = (w1 + du_m) + du_p;
    s->p = p;
    s->ups = ups;
    s->eps = eps;
    s->du_m = du_m;
    s->du_p = du_p;
}

PyDoc_STRVAR(job_step_doc,
"job_step($module, jkey, jctr, ekey, ectr, det, kind, w, dt, o, eta, alpha,\n"
"         beta, mu_m, sig_m, mu_p, sig_p, ups0, a, b0, gam, sl, xi, mu_q,\n"
"         sig_q, q_lo, q_hi, noise_sigma)\n--\n\n"
"One processing event on a machine; see pure.job_step for the contract.\n\n"
"Returns (p, d, q, ups, eps, dv, du_m, du_p, w_after, jctr, ectr).");

FASTCALL_KW(job_step)
{
    static const char *const names[] = {
        "jkey", "jctr", "ekey", "ectr", "det", "kind",
        "w", "dt", "o", "eta", "alpha", "beta", "mu_m", "sig_m", "mu_p",
        "sig_p", "ups0", "a", "b0", "gam", "sl", "xi", "mu_q", "sig_q",
        "q_lo", "q_hi", "noise_sigma"};
    PyObject *arg[6 + N_STEP_DOUBLES];
    uint64_t jkey, jctr, ekey, ectr;
    double v[N_STEP_DOUBLES];
    struct step s;
    int det, kind, i;

    if (bind("job_step", names, 6 + N_STEP_DOUBLES, 6 + N_STEP_DOUBLES,
                args, nargs, kwnames, arg)
        || as_key(arg[0], &jkey) || as_ctr(arg[1], &jctr)
        || as_key(arg[2], &ekey) || as_ctr(arg[3], &ectr)
        || (det = PyObject_IsTrue(arg[4])) < 0
        || (kind = PyObject_IsTrue(arg[5])) < 0)
        return NULL;
    for (i = 0; i < N_STEP_DOUBLES; i++)
        if (as_double(arg[6 + i], &v[i]))
            return NULL;
    step(jkey, &jctr, ekey, &ectr, det, kind, v, &s);
    {
        PyObject *items[11] = {
            PyFloat_FromDouble(s.p), PyFloat_FromDouble(s.d),
            PyLong_FromLong(s.q), PyFloat_FromDouble(s.ups),
            PyFloat_FromDouble(s.eps), PyFloat_FromDouble(s.dv),
            PyFloat_FromDouble(s.du_m), PyFloat_FromDouble(s.du_p),
            PyFloat_FromDouble(s.w3), PyLong_FromUnsignedLongLong(jctr),
            PyLong_FromUnsignedLongLong(ectr)};
        return pack(items, 11);
    }
}

/* ---- one machine of a summary run ------------------------------------- */

/* attribute names of the simulator's row entries, interned at import */
static PyObject *s_release, *s_job, *s_eid, *s_times, *s_args;

/* The double at mapping[key]. */
static int
item_double(PyObject *mapping, PyObject *key, double *out)
{
    PyObject *o = PyObject_GetItem(mapping, key);
    int err;

    if (!o)
        return -1;
    err = as_double(o, out);
    Py_DECREF(o);
    return err;
}

/* The double attribute name of o. */
static int
attr_double(PyObject *o, PyObject *name, double *out)
{
    PyObject *a = PyObject_GetAttr(o, name);
    int err;

    if (!a)
        return -1;
    err = as_double(a, out);
    Py_DECREF(a);
    return err;
}

/* Entry ent's job key, job_keys[ent.eid]. */
static int
job_key(PyObject *job_keys, PyObject *ent, uint64_t *out)
{
    PyObject *eid = PyObject_GetAttr(ent, s_eid), *k;
    int err;

    if (!eid)
        return -1;
    k = PyObject_GetItem(job_keys, eid);
    Py_DECREF(eid);
    if (!k)
        return -1;
    err = as_key(k, out);
    Py_DECREF(k);
    return err;
}

/* ent.times[mid] into v[2] and the 18 doubles of ent.args[mid] into
   v[3..20]. */
static int
entry_doubles(PyObject *ent, PyObject *mid, double *v)
{
    PyObject *times, *byid, *spec;
    Py_ssize_t k;
    int err;

    if (!(times = PyObject_GetAttr(ent, s_times)))
        return -1;
    err = item_double(times, mid, &v[2]);
    Py_DECREF(times);
    if (err || !(byid = PyObject_GetAttr(ent, s_args)))
        return -1;
    spec = PyObject_GetItem(byid, mid);
    Py_DECREF(byid);
    if (!spec)
        return -1;
    if (!PyTuple_Check(spec) || PyTuple_GET_SIZE(spec) != N_STEP_DOUBLES - 3) {
        PyErr_SetString(PyExc_TypeError, "run_machine() needs a tuple of "
                        "18 job_step arguments in each entry's args");
        Py_DECREF(spec);
        return -1;
    }
    for (k = 0; k < N_STEP_DOUBLES - 3; k++)
        if (as_double(PyTuple_GET_ITEM(spec, k), &v[3 + k])) {
            Py_DECREF(spec);
            return -1;
        }
    Py_DECREF(spec);
    return 0;
}

static int
as_long(PyObject *o, long long *out)
{
    *out = PyLong_AsLongLong(o);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* A machine's state along run_machine. */
struct machine {
    double w, ready, last_start, maint_acc, cyc_busy, lt;
    long long n_pm, cyc_jobs;
    int suspended;
};

/* The corrective reset at the completion of a step starting at t,
   reported to resets as (t, completion, wear before). */
static int
reset(struct machine *m, double t, double w0, double t_cm, PyObject *resets)
{
    PyObject *r = Py_BuildValue("(ddd)", t, m->ready, m->w);

    if (!r || PyList_Append(resets, r)) {
        Py_XDECREF(r);
        return -1;
    }
    Py_DECREF(r);
    m->w = w0;
    m->n_pm = 0;
    m->suspended = 0;
    m->cyc_jobs = 0;
    m->cyc_busy = 0.0;
    m->ready = m->ready + t_cm;
    m->maint_acc += t_cm;
    return 0;
}

PyDoc_STRVAR(run_machine_doc,
"run_machine($module, row, i, mid, job_keys, ekey, ectr, det, skip_idle,\n"
"            cap, w0, t_cm, zeta, n_u, w, ready, last_start, maint_acc,\n"
"            n_pm, suspended, cyc_jobs, cyc_busy, lt, end, q_count,\n"
"            record=None)\n--\n\n"
"Step one machine of a run up to its row's end or its first due\n"
"maintenance; see pure.run_machine for the contract.  A list\n"
"record receives (row index, start, p, d, q, ups, eps, dv, du_m, du_p,\n"
"w_before, w_after) of each stepped entry.\n\n"
"Returns (i, stop, ectr, w, ready, last_start, maint_acc, n_pm, suspended,\n"
"cyc_jobs, cyc_busy, lt, end, q_count, resets).");

FASTCALL_KW(run_machine)
{
    static const char *const names[] = {
        "row", "i", "mid", "job_keys", "ekey", "ectr", "det", "skip_idle",
        "cap", "w0", "t_cm", "zeta", "n_u", "w", "ready", "last_start",
        "maint_acc", "n_pm", "suspended", "cyc_jobs", "cyc_busy", "lt", "end",
        "q_count", "record"};
    PyObject *arg[25], *row, *record, *resets, *stop = NULL, *held = NULL;
    uint64_t ekey, ectr, jkey = 0, jctr;
    long long i, n_u, q_count;
    double cap, w0, t_cm, zeta, end, v[N_STEP_DOUBLES];
    int det, skip_idle;
    struct machine m;
    struct step s;

    if (bind("run_machine", names, 25, 24, args, nargs, kwnames, arg)
        || as_long(arg[1], &i) || as_key(arg[4], &ekey)
        || as_ctr(arg[5], &ectr) || (det = PyObject_IsTrue(arg[6])) < 0
        || (skip_idle = PyObject_IsTrue(arg[7])) < 0
        || as_double(arg[8], &cap) || as_double(arg[9], &w0)
        || as_double(arg[10], &t_cm) || as_double(arg[11], &zeta)
        || as_long(arg[12], &n_u) || as_double(arg[13], &m.w)
        || as_double(arg[14], &m.ready) || as_double(arg[15], &m.last_start)
        || as_double(arg[16], &m.maint_acc) || as_long(arg[17], &m.n_pm)
        || (m.suspended = PyObject_IsTrue(arg[18])) < 0
        || as_long(arg[19], &m.cyc_jobs) || as_double(arg[20], &m.cyc_busy)
        || as_double(arg[21], &m.lt) || as_double(arg[22], &end)
        || as_long(arg[23], &q_count))
        return NULL;
    row = arg[0];
    record = arg[24] == Py_None ? NULL : arg[24];
    if (!PyList_Check(row) || i < 0 || (record && !PyList_Check(record))) {
        PyErr_SetString(PyExc_ValueError, "run_machine() needs a list row, "
                        "a nonnegative i and a list or None record");
        return NULL;
    }
    if (!(resets = PyList_New(0)))
        return NULL;
    while (i < PyList_GET_SIZE(row)) {
        PyObject *ent = PyList_GET_ITEM(row, i), *job;
        double t = m.ready, release;
        int idle;

        /* held: the row may change while a job key is looked up */
        Py_INCREF(ent);
        Py_XDECREF(held);
        held = ent;
        if (attr_double(ent, s_release, &release))
            goto fail;
        if (release > t)
            t = release;
        if (m.w > cap || (!m.suspended && m.w / cap >= zeta && m.n_pm < n_u)) {
            if (!(stop = PyFloat_FromDouble(t)))
                goto fail;
            break;
        }
        if (!(job = PyObject_GetAttr(ent, s_job)))
            goto fail;
        idle = job == Py_None;
        Py_DECREF(job);
        if (idle && skip_idle) {
            i++;
            m.lt = t;
            continue;
        }
        v[0] = m.w;
        v[1] = (t - m.last_start) - m.maint_acc;
        if (v[1] < 0.0)
            v[1] = 0.0;
        if (entry_doubles(ent, arg[2], v)
            || (!det && job_key(arg[3], ent, &jkey)))
            goto fail;
        jctr = 0;
        step(jkey, &jctr, ekey, &ectr, det, idle, v, &s);
        if (record) {
            PyObject *r = Py_BuildValue("(Ldddlddddddd)", i, t, s.p, s.d,
                                        s.q, s.ups, s.eps, s.dv, s.du_m,
                                        s.du_p, m.w, s.w3);
            if (!r || PyList_Append(record, r)) {
                Py_XDECREF(r);
                goto fail;
            }
            Py_DECREF(r);
        }
        if (!idle) {
            if (t + s.p > end)
                end = t + s.p;
            q_count += s.q;
            m.cyc_jobs += 1;
            m.cyc_busy += s.p;
        }
        m.w = s.w3;
        m.last_start = t;
        m.maint_acc = 0.0;
        m.ready = t + s.p;
        i++;
        m.lt = t;
        if (m.w > cap && reset(&m, t, w0, t_cm, resets))
            goto fail;
    }
    Py_XDECREF(held);
    if (!stop) {
        stop = Py_None;
        Py_INCREF(stop);
    }
    {
        PyObject *items[15] = {
            PyLong_FromLongLong(i), stop, PyLong_FromUnsignedLongLong(ectr),
            PyFloat_FromDouble(m.w), PyFloat_FromDouble(m.ready),
            PyFloat_FromDouble(m.last_start), PyFloat_FromDouble(m.maint_acc),
            PyLong_FromLongLong(m.n_pm), PyBool_FromLong(m.suspended),
            PyLong_FromLongLong(m.cyc_jobs), PyFloat_FromDouble(m.cyc_busy),
            PyFloat_FromDouble(m.lt), PyFloat_FromDouble(end),
            PyLong_FromLongLong(q_count), resets};
        return pack(items, 15);
    }
fail:
    Py_XDECREF(held);
    Py_XDECREF(stop);
    Py_DECREF(resets);
    return NULL;
}

#define FASTCALL_ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, \
     METH_FASTCALL | METH_KEYWORDS, name##_doc}

static PyMethodDef methods[] = {
    FASTCALL_ENTRY(mix64),
    FASTCALL_ENTRY(u01),
    FASTCALL_ENTRY(job_step),
    FASTCALL_ENTRY(run_machine),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "reworkopt._kernel._core",
    "Compiled kernel: a statement-level twin of pure.py.", -1, methods};

PyMODINIT_FUNC
PyInit__core(void)
{
    if (!(s_release = PyUnicode_InternFromString("release"))
        || !(s_job = PyUnicode_InternFromString("job"))
        || !(s_eid = PyUnicode_InternFromString("eid"))
        || !(s_times = PyUnicode_InternFromString("times"))
        || !(s_args = PyUnicode_InternFromString("args")))
        return NULL;
    return PyModule_Create(&module);
}
