/* Compiled kernel: a statement-level twin of pure.py.

   Bit-identity with the pure backend is a hard requirement.  Every
   expression keeps pure.py's evaluation order, and setup.py builds this
   file with -ffp-contract=off so that the compiler cannot fuse
   multiply-adds.  Change an expression here only together with pure.py,
   then run tests/test_kernel_parity.py and tests/test_kernel_digest.py:
   they build this file themselves.

   The functions take the same arguments, positional or by keyword, and
   return the same tuples as pure.py's.  Keys are taken modulo 2**64, as
   pure.py's masks take them; counters must be nonnegative and fit in 64
   bits.  Hashing in machine words is cheap, so there is no
   shared_draws() memo here. */

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

static inline double
draw_clamped_normal(uint64_t key, uint64_t *ctr, double mu, double sigma)
{
    double x = draw_normal(key, ctr, mu, sigma);
    return x < 0.0 ? 0.0 : x;
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
   call of fname, whose parameters, all required, are names[0..n). */
static int
bind(const char *fname, const char *const *names, Py_ssize_t n,
     PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
     PyObject **out)
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
    for (i = 0; i < n; i++)
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

/* Bind fname's arguments: a key, a counter, then n - 2 <= 4 doubles. */
static int
key_ctr_doubles(const char *fname, const char *const *names, Py_ssize_t n,
                PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                uint64_t *key, uint64_t *ctr, double *x)
{
    PyObject *a[6];
    Py_ssize_t i;

    if (bind(fname, names, n, args, nargs, kwnames, a) || as_key(a[0], key)
        || as_ctr(a[1], ctr))
        return -1;
    for (i = 2; i < n; i++)
        if (as_double(a[i], &x[i - 2]))
            return -1;
    return 0;
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

/* (x, ctr).  Callers make the draw before the call: C evaluates
   arguments in no fixed order, so ctr may be read before a draw in the
   argument list advances it. */
static PyObject *
value_ctr(double x, uint64_t ctr)
{
    PyObject *items[2] = {PyFloat_FromDouble(x),
                          PyLong_FromUnsignedLongLong(ctr)};
    return pack(items, 2);
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

    if (bind("mix64", names, 1, args, nargs, kwnames, a) || as_key(a[0], &z))
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

    if (bind("u01", names, 2, args, nargs, kwnames, a) || as_key(a[0], &key)
        || as_ctr(a[1], &ctr))
        return NULL;
    return PyFloat_FromDouble(u01(key, ctr));
}

PyDoc_STRVAR(normal_doc, "normal($module, key, ctr, mu, sigma)\n--\n\n"
"Gaussian draw via Box-Muller (cosine branch only, 2 ticks).\n\n"
"Returns (value, new_ctr).");

FASTCALL_KW(normal)
{
    static const char *const names[] = {"key", "ctr", "mu", "sigma"};
    uint64_t key, ctr;
    double x[2], value;

    if (key_ctr_doubles("normal", names, 4, args, nargs, kwnames,
                        &key, &ctr, x))
        return NULL;
    value = draw_normal(key, &ctr, x[0], x[1]);
    return value_ctr(value, ctr);
}

PyDoc_STRVAR(clamped_normal_doc,
"clamped_normal($module, key, ctr, mu, sigma)\n--\n\n"
"Gaussian draw truncated below at zero.  Returns (value, new_ctr).");

FASTCALL_KW(clamped_normal)
{
    static const char *const names[] = {"key", "ctr", "mu", "sigma"};
    uint64_t key, ctr;
    double x[2], value;

    if (key_ctr_doubles("clamped_normal", names, 4, args, nargs, kwnames,
                        &key, &ctr, x))
        return NULL;
    value = draw_clamped_normal(key, &ctr, x[0], x[1]);
    return value_ctr(value, ctr);
}

PyDoc_STRVAR(gamma_doc, "gamma($module, key, ctr, shape, scale)\n--\n\n"
"Gamma draw, Marsaglia-Tsang squeeze method.  Returns (value, new_ctr).");

FASTCALL_KW(gamma)
{
    static const char *const names[] = {"key", "ctr", "shape", "scale"};
    uint64_t key, ctr;
    double x[2], value;

    if (key_ctr_doubles("gamma", names, 4, args, nargs, kwnames,
                        &key, &ctr, x))
        return NULL;
    value = draw_gamma(key, &ctr, x[0], x[1]);
    return value_ctr(value, ctr);
}

PyDoc_STRVAR(truncated_normal_doc,
"truncated_normal($module, key, ctr, mu, sigma, lo, hi)\n--\n\n"
"Gaussian draw rejected outside [lo, hi].  Returns (value, new_ctr).");

FASTCALL_KW(truncated_normal)
{
    static const char *const names[] = {"key", "ctr", "mu", "sigma", "lo",
                                        "hi"};
    uint64_t key, ctr;
    double x[4], value;

    if (key_ctr_doubles("truncated_normal", names, 6, args, nargs, kwnames,
                        &key, &ctr, x))
        return NULL;
    value = draw_truncated_normal(key, &ctr, x[0], x[1], x[2], x[3]);
    return value_ctr(value, ctr);
}

PyDoc_STRVAR(job_step_doc,
"job_step($module, jkey, jctr, ekey, ectr, det, kind, w, dt, o, eta, alpha,\n"
"         beta, mu_m, sig_m, mu_p, sig_p, ups0, a, b0, gam, sl, xi, mu_q,\n"
"         sig_q, q_lo, q_hi, noise_sigma)\n--\n\n"
"One processing event on a machine; see pure.job_step for the contract.\n\n"
"Returns (p, d, q, ups, eps, dv, du_m, du_p, w_after, jctr, ectr).");

#define N_STEP_DOUBLES 21

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
    double dv, w1, p, d = 0.0, ups = 0.0, eps = 0.0, du_m = 0.0, du_p, w3;
    long q = -1;
    int det, kind, i;

    if (bind("job_step", names, 6 + N_STEP_DOUBLES, args, nargs, kwnames, arg)
        || as_key(arg[0], &jkey) || as_ctr(arg[1], &jctr)
        || as_key(arg[2], &ekey) || as_ctr(arg[3], &ectr)
        || (det = PyObject_IsTrue(arg[4])) < 0
        || (kind = PyObject_IsTrue(arg[5])) < 0)
        return NULL;
    for (i = 0; i < N_STEP_DOUBLES; i++)
        if (as_double(arg[6 + i], &v[i]))
            return NULL;
    const double w = v[0], dt = v[1], o = v[2], eta = v[3], alpha = v[4],
        beta = v[5], mu_m = v[6], sig_m = v[7], mu_p = v[8], sig_p = v[9],
        ups0 = v[10], a = v[11], b0 = v[12], gam = v[13], sl = v[14],
        xi = v[15], mu_q = v[16], sig_q = v[17], q_lo = v[18], q_hi = v[19],
        noise_sigma = v[20];

    if (det)
        dv = alpha * dt * beta;
    else
        dv = draw_gamma(ekey, &ectr, alpha * dt, beta);
    w1 = w + dv;
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
            ups = draw_truncated_normal(jkey, &jctr, mu_q, sig_q, q_lo, q_hi);
            eps = draw_normal(jkey, &jctr, 0.0, noise_sigma);
        }
        d = ups0 + a * w1 + b0 * eps + w1 * gam * eps;
        q = fabs(d - sl) < xi ? 1 : 0;
        delta = fabs(ups - sl);
        if (!(delta < xi)) {
            du_m = det ? delta * mu_m
                       : draw_normal(jkey, &jctr, delta * mu_m, sig_m);
            if (du_m < 0.0)
                du_m = 0.0;
        }
    }
    du_p = det ? p * mu_p : draw_normal(jkey, &jctr, p * mu_p, sig_p);
    if (du_p < 0.0)
        du_p = 0.0;
    w3 = (w1 + du_m) + du_p;

    {
        PyObject *items[11] = {
            PyFloat_FromDouble(p), PyFloat_FromDouble(d), PyLong_FromLong(q),
            PyFloat_FromDouble(ups), PyFloat_FromDouble(eps),
            PyFloat_FromDouble(dv), PyFloat_FromDouble(du_m),
            PyFloat_FromDouble(du_p), PyFloat_FromDouble(w3),
            PyLong_FromUnsignedLongLong(jctr),
            PyLong_FromUnsignedLongLong(ectr)};
        return pack(items, 11);
    }
}

#define FASTCALL_ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, \
     METH_FASTCALL | METH_KEYWORDS, name##_doc}

static PyMethodDef methods[] = {
    FASTCALL_ENTRY(mix64),
    FASTCALL_ENTRY(u01),
    FASTCALL_ENTRY(normal),
    FASTCALL_ENTRY(clamped_normal),
    FASTCALL_ENTRY(gamma),
    FASTCALL_ENTRY(truncated_normal),
    FASTCALL_ENTRY(job_step),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "reworkopt._kernel._core",
    "Compiled kernel: a statement-level twin of pure.py.", -1, methods};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModule_Create(&module);
}
