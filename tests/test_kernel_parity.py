"""The compiled kernel must be bit-identical to the pure reference.

The compiled kernel under test is the one ``built_core`` builds from
this checkout's ``_core.c``.  The draws live inside the compiled
kernel's step, so they are compared through ``job_step``
(``step_draws``) and ``run_machine``, in-process; the end-to-end check
respawns the interpreter, because the backend binds at import.
"""

import contextlib
import math
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt import _kernel
from reworkopt._kernel import pure
from reworkopt.model import Job
from reworkopt.rng import RngStream, shared_draws
from reworkopt.simulate import _Ent
from step_draws import through_job_step


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def pairs(n, seed):
    r = random.Random(seed)
    return [(r.getrandbits(64), r.randrange(0, 10**6)) for _ in range(n)]


# the kernel API: the draws and the steps both backends define
API = {"mix64", "u01", "job_step", "run_machine"}


def test_the_backends_expose_the_kernel_api(built_core):
    assert {n for n in dir(built_core) if not n.startswith("_")} == API
    exported = {n for n, v in vars(_kernel).items()
                if callable(v) and not n.startswith("_")}
    assert exported == API
    # and the draws job_step is built on and the setter of a shared-draw
    # scope's tables, which only pure has
    defined = {n for n, v in vars(pure).items()
               if callable(v) and not n.startswith("_")
               and v.__module__ == pure.__name__}
    assert defined == API | {"normal", "gamma", "truncated_normal",
                             "use_tables"}


def test_u01_bitwise_equal(built_core):
    for key, ctr in pairs(500, 1):
        assert bits(pure.u01(key, ctr)) == bits(built_core.u01(key, ctr))


def test_mix64_equal(built_core):
    for key, _ in pairs(500, 2):
        assert pure.mix64(key) == built_core.mix64(key)


# the compiled kernel's draws, reached through its job_step, against
# pure's own
@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (3.5, 0.25), (-2.0, 7.0)])
def test_normal_bitwise_equal(mu, sigma, built_core):
    normal = through_job_step(built_core).normal
    for key, ctr in pairs(200, 3):
        xp, cp = pure.normal(key, ctr, mu, sigma)
        xc, cc = normal(key, ctr, mu, sigma)
        assert (bits(xp), cp) == (bits(xc), cc)


@pytest.mark.parametrize("shape,scale", [(0.37, 2.5), (1.0, 1.0), (3.2, 0.4),
                                         (17.5, 0.01), (0.0, 1.0)])
def test_gamma_bitwise_equal(shape, scale, built_core):
    gamma = through_job_step(built_core).gamma
    for key, ctr in pairs(200, 4):
        xp, cp = pure.gamma(key, ctr, shape, scale)
        xc, cc = gamma(key, ctr, shape, scale)
        assert (bits(xp), cp) == (bits(xc), cc)


@pytest.mark.parametrize("mu,sigma,lo,hi", [
    (5.0, 0.01, 4.97, 5.03),
    (0.0, 1.0, -0.5, 0.5),
    (10.0, 0.0, 2.0, 8.0),
])
def test_truncated_normal_bitwise_equal(mu, sigma, lo, hi, built_core):
    truncated_normal = through_job_step(built_core).truncated_normal
    for key, ctr in pairs(200, 5):
        xp, cp = pure.truncated_normal(key, ctr, mu, sigma, lo, hi)
        xc, cc = truncated_normal(key, ctr, mu, sigma, lo, hi)
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


def _job_step_cases():
    """job_step inputs (jkey, jctr, ekey, ectr, keywords): random ones,
    and a copy of each of the first 20 with an empty exposure window,
    where the environment draws nothing."""
    r = random.Random(7)
    cases = []
    for _ in range(400):
        key_j, key_e = r.getrandbits(64), r.getrandbits(64)
        ctr_j, ctr_e = r.randrange(10**4), r.randrange(10**4)
        cases.append((key_j, ctr_j, key_e, ctr_e, _step_args(r)))
    return cases + [(*c[:4], dict(c[4], det=0, dt=0.0)) for c in cases[:20]]


def test_job_step_bitwise_equal(built_core):
    for *keys, kw in _job_step_cases():
        rp = pure.job_step(*keys, **kw)
        rc = built_core.job_step(*keys, **kw)
        for xp, xc in zip(rp, rc):
            if isinstance(xp, float):
                assert bits(xp) == bits(xc)
            else:
                assert xp == xc


def _draw_branches(case):
    """The draw branches job_step takes on case, told apart by how far
    it moves each counter: an accepted gamma attempt takes 3 ticks, the
    boost below shape 1 one more, and each normal 2."""
    jkey, jctr, ekey, ectr, kw = case
    if kw["det"]:
        return {"det"}
    out = pure.job_step(jkey, jctr, ekey, ectr, **kw)
    shape = kw["alpha"] * kw["dt"]
    seen = {"gamma shape 0" if shape <= 0.0 else
            "gamma below 1" if shape < 1.0 else
            "gamma rejected" if out[10] - ectr > 3 else "gamma"}
    if not kw["kind"]:
        outside = not abs(out[3] - kw["sl"]) < kw["xi"]
        if outside:
            seen.add("z_m drawn")
        # ups, eps, z_m when outside and z_p: 6 or 8 ticks unless rejected
        if kw["sig_q"] == 0.0:
            seen.add("truncated sigma 0")
        elif out[9] - jctr > 6 + 2 * outside:
            seen.add("truncated rejected")
    return seen


def test_the_job_step_cases_reach_every_draw_branch():
    """The job_step comparison above reaches every branch of the draws
    that the compiled kernel keeps inside its step."""
    seen = set().union(*map(_draw_branches, _job_step_cases()))
    assert seen >= {"det", "gamma shape 0", "gamma below 1", "gamma rejected",
                    "z_m drawn", "truncated sigma 0", "truncated rejected"}


# job_step's arguments after the nominal time o, in order
_ENTRY_ARGS = ("eta", "alpha", "beta", "mu_m", "sig_m", "mu_p", "sig_p",
               "ups0", "a", "b0", "gam", "sl", "xi", "mu_q", "sig_q", "q_lo",
               "q_hi", "noise_sigma")


def _machine_case(r):
    """The arguments of one run_machine call on machine 3: a row of real
    jobs, idle placeholders and released copies, wear that crosses the
    threshold within a few steps, and a state that may start past the
    threshold or due."""
    mid = 3
    row = []
    for eid in range(r.randrange(12)):
        kw = _step_args(r)
        idle = r.random() < 0.25
        release = 0.0 if idle or r.random() < 0.7 else r.uniform(0.0, 30.0)
        row.append(_Ent(eid, eid, None if idle else Job(eid, 0, {mid: kw["o"]}),
                        0, {mid: kw["o"]},
                        {mid: tuple(kw[k] for k in _ENTRY_ARGS)}, release))
    cap = r.uniform(0.3, 1.0)
    ready = r.uniform(0.0, 10.0)
    last_start = ready - r.uniform(0.0, 5.0)
    return dict(
        row=row, i=r.randrange(len(row) + 1) if r.random() < 0.2 else 0,
        mid=mid, job_keys=RngStream(r.getrandbits(64)).subkeys(),
        ekey=r.getrandbits(64), ectr=r.randrange(50),
        det=r.random() < 0.3, skip_idle=r.random() < 0.5, cap=cap,
        w0=r.uniform(0.0, 0.5) * cap, t_cm=r.uniform(0.5, 4.0),
        zeta=r.choice([r.uniform(0.2, 1.0), 2.0]), n_u=r.randrange(4),
        w=r.uniform(0.0, 1.3) * cap, ready=ready, last_start=last_start,
        maint_acc=r.choice([0.0, r.uniform(0.0, 3.0)]), n_pm=r.randrange(3),
        suspended=r.random() < 0.2, cyc_jobs=r.randrange(5),
        cyc_busy=r.uniform(0.0, 10.0), lt=last_start,
        end=r.choice([-math.inf, r.uniform(0.0, 20.0)]), q_count=r.randrange(5),
        record=r.random() < 0.7)


def _run_machine(kernel, case):
    """kernel's run_machine on case and the steps it recorded: into a
    fresh list when case records, else with record left to its
    default."""
    kw = dict(case)
    record = [] if kw.pop("record") else None
    if record is not None:
        kw["record"] = record
    return kernel.run_machine(**kw), record


def _assert_run_machine_equal(core, case, scope):
    """Pure run_machine, on a first call and, inside a shared_draws()
    scope, on a repeat that reads the tables, equals the compiled one,
    the steps it records included."""
    want = repr(_run_machine(core, case))
    with shared_draws() if scope else contextlib.nullcontext():
        for _ in range(1 + scope):
            assert repr(_run_machine(pure, case)) == want
    return _run_machine(core, case)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_run_machine_bitwise_equal(built_core, r, scope):
    _assert_run_machine_equal(built_core, _machine_case(r), scope)


def test_the_run_machine_cases_reach_every_branch(built_core):
    """The cases above reach each way a machine run can go."""
    seen = set()
    r = random.Random(11)
    for k in range(300):
        case = _machine_case(r)
        (i, stop, _, w, _, _, _, n_pm, suspended, *_, resets), record = \
            _assert_run_machine_equal(built_core, case, k % 2)
        taken = case["row"][case["i"]:i]
        if record:
            seen.add("recorded")
            # a step's record starts from the wear the step before left
            assert all(b[10] == a[11] for a, b in zip(record, record[1:])
                       if a[11] <= case["cap"])
        seen |= {("det" if case["det"] else "random",
                  "scope" if k % 2 else "no scope")}
        seen.add("due stop" if stop is not None else "row end")
        # a machine past its threshold stops for its repair also when no
        # preventive action is due; the kernel repairs only at the
        # completion that crossed it
        if (stop is not None and w > case["cap"]
                and (suspended or n_pm >= case["n_u"])):
            seen.add("over-cap stop")
        assert all(at > t for t, at, _ in resets)
        seen |= {"reset after" for _ in resets}
        seen |= {"idle skipped" if case["skip_idle"] else "idle stepped"
                 for e in taken if e.job is None}
        seen |= {"released" for e in taken if e.release > 0.0}
    assert seen >= {("det", "scope"), ("det", "no scope"),
                    ("random", "scope"), ("random", "no scope"),
                    "due stop", "row end", "over-cap stop", "reset after",
                    "idle skipped", "idle stepped", "released", "recorded"}


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
            ("gamma", (key, ctr, r.choice([0.0, 0.37, 1.0, 3.2]), 2.5), {}),
            ("truncated_normal", (key, ctr, 0.0, 1.0, -0.5, 0.5), {}),
            ("job_step", (r.choice(keys), r.randrange(4), key,
                          r.randrange(60)), _step_args(r)),
        ]
    return calls


def test_shared_draws_bitwise_equal(built_core):
    """Pure draws read from the tables of a shared_draws() scope, on a
    first call and on a repeated one, equal the draws outside a scope:
    job_step's the compiled kernel's, the other draws pure's."""
    calls = _draw_calls()
    want = [repr(getattr(built_core if name == "job_step" else pure, name)(
        *args, **kw)) for name, args, kw in calls]
    with shared_draws():
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
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.planner import (PlannerConfig, det_preview, label_static_obj,
                               plan)
from reworkopt.rng import RngStream, shared_draws
from reworkopt.simulate import (ONLINE, SimConfig, append_copies,
                                fill_idle_slots, simulate, simulate_suffix)

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
# a full STATIC run: the deterministic preview, placeholders stepped
_, pre = det_preview(inst, chrom, rng, PlannerConfig())
for ev in pre.job_events + pre.idle_events + pre.maint_events:
    h.update(repr(ev).encode())

# summary runs: labels, random and deterministic, and the suffix
# projections of every trigger of an online run
inst = generate_instance(30, 2)
ctxs = []

def hook(ctx):
    ctxs.append(ctx)
    return fill_idle_slots(ctx), None

for k in range(3):
    chrom = random_chromosome(inst, (0, 1), RngStream.from_seed(k))
    with shared_draws():
        for det in (False, True):
            h.update(repr(label_static_obj(
                inst, chrom, rng, PlannerConfig(label_reps=3, det=det))).encode())
    chrom.thr_r = 0.2
    simulate(inst, decode(chrom, inst), RngStream.from_seed(k),
             SimConfig(mode=ONLINE, rescheduler=hook))
for ctx in ctxs:
    with shared_draws():
        for queues in (fill_idle_slots(ctx), append_copies(ctx)):
            h.update(repr(simulate_suffix(ctx, queues, ctx.rng)).encode())
h.update(repr(len(ctxs)).encode())
# two planning calls of one run: the second reads the draws the first kept
master = RngStream.from_seed(3)
cfg = PlannerConfig(pop_size=4, label_reps=2)
pop = None
for k in range(2):
    pop, hist = plan(inst, 1, master, cfg, (0, 1), pop=pop, iter_offset=k,
                     max_iter=2)
    h.update(repr([(ind.chrom.digest(), ind.label, ind.obj) for ind in pop]
                  + hist).encode())
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
