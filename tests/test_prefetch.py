"""A fresh root's draws hashed at once equal the scalar draws.

``pure.prefetch`` hashes the first ticks of a root's job and environment
keys in the 128-bit lanes of one integer and fills the shared-draw
tables with what the scalar draws would store there.  Every entry must
be the scalar value bit for bit; a job whose draws need more ticks than
the batch holds, or whose characteristic is zero, must be left out.
"""

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reworkopt import _kernel, rng
from reworkopt._kernel import pure
from reworkopt.encoding import decode, random_chromosome
from reworkopt.instances import generate_instance
from reworkopt.planner import PlannerConfig, det_preview, label_static_obj
from reworkopt.rng import NS_INIT, NS_LABEL, RngStream
from reworkopt.simulate import STATIC, SimConfig, idle_space_count, simulate

KEYS = st.one_of(st.sampled_from([0, 2**64 - 1]),
                 st.integers(0, 2**64 - 1))


def _pack(values):
    """values in the 128-bit lanes of one int, the kernel's lane order."""
    return int.from_bytes(b"".join(v.to_bytes(16, sys.byteorder)
                                   for v in values), sys.byteorder)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(KEYS, st.integers(0, 2**62)),
                min_size=1, max_size=300))
@example([(0, 0), (2**64 - 1, 0), (2**64 - 1, 2**62)])
def test_lanes_hash_like_mix64_and_u01(pairs):
    n = len(pairs)
    lanes = pure._mix64_lanes(_pack([k for k, _ in pairs]), n)
    assert list(lanes) == [pure.mix64(k) for k, _ in pairs]
    # unreduced u01 inputs: each lane's sum exceeds 64 bits
    x = _pack([k + (c + 1) * pure._GOLDEN for k, c in pairs])
    got = [(z + 0.5) * pure._INV_2_53 for z in pure._mix64_lanes(x, n, 11)]
    assert got == [pure.u01(k, c) for k, c in pairs]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.lists(KEYS, max_size=20), st.integers(1, 40)),
                min_size=1, max_size=4))
def test_u01_lanes_follow_the_counters_key_by_key(groups):
    want = [pure.u01(k, c) for keys, ticks in groups for k in keys
            for c in range(ticks)]
    assert pure._u01_lanes(groups) == want


# type specs (sl, xi, mu_q, sig_q, q_lo, q_hi, noise_sigma)
SPECS = {
    "zero sigma_q": (42.72, 0.08, 42.72, 0.0, 42.54, 42.9, 1.0),
    "clamped zero sigma_q": (42.72, 0.08, 43.0, 0.0, 42.54, 42.9, 0.0),
    # accepts about one draw in eight: rejections run past the 8 ticks
    "narrow interval": (42.72, 0.08, 42.72, 0.06, 42.71, 42.73, 1.0),
    # out of tolerance almost always, so z_m is drawn, and one draw in
    # three is rejected: then 10 ticks are needed
    "out of tolerance": (42.72, 1e-3, 42.72, 0.06, 42.66, 42.78, 1.0),
    "wide": (42.72, 0.08, 42.72, 0.06, 42.54, 42.9, 1.0),
    "zero ups": (0.0, 0.08, 0.0, 0.0, -0.1, 0.1, 1.0),
    "negative zero ups": (0.0, 0.08, -0.0, 0.0, -0.1, 0.1, 1.0),
}


def _scalar(jkey, spec):
    """_job_draws outside a scope, where it stores nothing."""
    assert pure._jobs is None
    return pure._job_draws(jkey, 0, spec)


def test_each_case_is_kept_or_left_as_the_scalar_draws_say():
    keys = [pure.mix64(i) for i in range(200)]
    for name, spec in SPECS.items():
        with pure.shared_draws():
            pure.prefetch(((k, spec) for k in keys), [])
            kept = dict(pure._jobs)
        n_kept = n_z_m = n_long = 0
        for k in keys:
            w = _scalar(k, spec)
            if w[5] > pure._JOB_TICKS or w[1] == 0.0:
                assert (k, 0) not in kept, name
                n_long += w[5] > pure._JOB_TICKS
                continue
            assert repr(kept[k, 0]) == repr(w), name
            n_kept += 1
            n_z_m += w[3] is not None
        if name.endswith("zero ups"):
            assert not kept
        else:
            assert n_kept, name
        if name in ("narrow interval", "out of tolerance"):
            assert n_long, name       # some keys need more than 8 ticks
        if name == "out of tolerance":
            assert n_z_m, name


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(KEYS, st.sampled_from(sorted(SPECS.values()))),
                max_size=12, unique_by=lambda j: j[0]),
       st.lists(st.tuples(KEYS, st.integers(0, 30)), max_size=4,
                unique_by=lambda e: e[0]))
def test_prefetched_tables_hold_the_scalar_values(jobs, envs):
    env_keys = {k for k, _ in envs}
    jobs = [j for j in jobs if j[0] not in env_keys]
    with pure.shared_draws():
        pure.prefetch(jobs, envs)
        kept = dict(pure._jobs)
        uniforms, normals = dict(pure._uniforms), dict(pure._normals)
    for k, spec in jobs:
        w = _scalar(k, spec)
        if w[5] <= pure._JOB_TICKS and w[1] != 0.0:
            assert repr(kept.pop((k, 0))) == repr(w)
    assert not kept
    assert set(uniforms) == set(normals) == env_keys
    for k, steps in envs:
        urow, nrow = uniforms[k], normals[k]
        assert len(urow) == len(nrow) >= 3 * steps
        assert list(urow) == [pure.u01(k, c) for c in range(len(urow))]
        for c, z in enumerate(nrow):
            if c % 3:
                assert z != z           # a hole
            else:
                assert z == pure._std_normal(k, c)


def test_prefetch_does_nothing_outside_a_scope():
    drawn = []

    def jobs():
        drawn.append(1)
        yield 7, SPECS["wide"]

    pure.prefetch(jobs(), [(9, 5)])
    assert not drawn
    assert (pure._normals, pure._uniforms, pure._jobs) == (None, None, None)


def _setup():
    inst = generate_instance(30, 1)
    master = RngStream.from_seed(4)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))
    return inst, master, chrom


def test_a_root_is_prefetched_once_per_scope_and_never_by_a_det_run(
        monkeypatch):
    inst, master, chrom = _setup()
    plan = decode(chrom, inst)
    calls = []
    orig = _kernel.prefetch
    monkeypatch.setattr(_kernel, "prefetch", lambda jobs, envs: (
        calls.append(len(envs)), orig(jobs, envs)))
    det = SimConfig(mode=STATIC, det=True, summary=True)
    stochastic = SimConfig(mode=STATIC, summary=True)
    with rng.shared_draws():
        simulate(inst, plan, master.substream(NS_LABEL, 0), det)
        assert calls == []
        if _kernel.BACKEND == "pure":
            assert not pure._jobs and not pure._uniforms
        root = master.substream(NS_LABEL, 1)
        first = simulate(inst, plan, root, stochastic)
        assert calls == [len(inst.machines)]
        if _kernel.BACKEND == "pure":
            assert pure._jobs and pure._uniforms
        again = simulate(inst, plan, root, stochastic)
        assert len(calls) == 1
    assert again == first
    assert (pure._normals, pure._uniforms, pure._jobs) == (None, None, None)
    assert simulate(inst, plan, root, stochastic) == first



def test_the_first_label_after_a_det_preview_is_prefetched(monkeypatch):
    """A det preview runs on the root of label replication 0 and draws
    nothing, so it hashes no job key there: that replication's first
    label is still batched."""
    inst, master, chrom = _setup()
    calls = []
    orig = _kernel.prefetch
    monkeypatch.setattr(_kernel, "prefetch", lambda jobs, envs: (
        calls.append(len(envs)), orig(jobs, envs)))
    cfg = PlannerConfig(label_reps=2)
    with rng.shared_draws():
        det_preview(inst, chrom, master, cfg)
        assert calls == []
        label_static_obj(inst, chrom, master, cfg)
    assert calls == [len(inst.machines)] * cfg.label_reps
