"""A machine's first draws hashed at once equal the scalar draws.

``pure._prefetch`` hashes the first ticks of a machine's environment key
and of its row's real jobs' keys in the 128-bit lanes of one integer and
fills the shared-draw tables with what the scalar draws would store
there; ``run_machine`` calls it when a stochastic run starts inside a
scope on an environment key the scope has no row for.  Every entry must
be the scalar value bit for bit; a job whose draws need more ticks than
the batch holds, or whose characteristic is zero, must be left out.
"""

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reworkopt import rng
from reworkopt._kernel import pure
from reworkopt.encoding import decode, random_chromosome
from reworkopt.instances import generate_instance
from reworkopt.planner import PlannerConfig, det_preview, label_static_obj
from reworkopt.rng import NS_ENV, NS_INIT, NS_LABEL, RngStream
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


class _Stub:
    """A row entry as the batch reads it: job (None for an idle
    placeholder), eid, and args by machine, whose last seven values are
    the type spec."""

    def __init__(self, eid, spec, real=True):
        self.job = object() if real else None
        self.eid = eid
        # machine 0 carries the spec; machine 1 a different one
        self.args = {0: (0.0,) * 11 + spec, 1: (0.0,) * 11 + SPECS["wide"]}


def _batch(jobs, ekey, n_idle=0, head=()):
    """The tables after one batch of machine 0 from ekey over a row of
    the head entries, then the (jkey, spec) jobs with n_idle idle
    placeholders after them, starting past the head.  Only the jobs'
    keys are in job_keys, so reading a head key fails."""
    head = [_Stub(-1 - n, spec) for n, spec in enumerate(head)]
    row = head + [_Stub(n, spec) for n, (_, spec) in enumerate(jobs)]
    row += [_Stub(len(jobs) + n, SPECS["wide"], real=False)
            for n in range(n_idle)]
    job_keys = {n: jkey for n, (jkey, _) in enumerate(jobs)}
    with rng.shared_draws():
        pure._prefetch(row, len(head), 0, job_keys, ekey)
        return dict(pure._jobs), dict(pure._uniforms), dict(pure._normals)


def test_each_case_is_kept_or_left_as_the_scalar_draws_say():
    keys = [pure.mix64(i) for i in range(200)]
    for name, spec in SPECS.items():
        kept, _, _ = _batch([(k, spec) for k in keys], 2**64 - 1)
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
       KEYS, st.integers(0, 30),
       st.lists(st.sampled_from(sorted(SPECS.values())), max_size=3))
def test_prefetched_tables_hold_the_scalar_values(jobs, ekey, n_idle, head):
    jobs = [j for j in jobs if j[0] != ekey]
    kept, uniforms, normals = _batch(jobs, ekey, n_idle, head)
    for k, spec in jobs:
        w = _scalar(k, spec)
        if w[5] <= pure._JOB_TICKS and w[1] != 0.0:
            assert repr(kept.pop((k, 0))) == repr(w)
    assert not kept
    assert set(uniforms) == set(normals) == {ekey}
    urow, nrow = uniforms[ekey], normals[ekey]
    assert len(urow) == len(nrow) == 3 * (len(jobs) + n_idle + 2)
    assert list(urow) == [pure.u01(ekey, c) for c in range(len(urow))]
    for c, z in enumerate(nrow):
        if c % 3:
            assert z != z           # a hole
        else:
            assert z == pure._std_normal(ekey, c)


def _setup():
    inst = generate_instance(30, 1)
    master = RngStream.from_seed(4)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))
    return inst, master, chrom


def _env_keys(inst, root):
    return {root.substream(NS_ENV, m.id).key for m in inst.machines}


def test_prefetch_does_nothing_outside_a_scope(batched):
    inst, master, chrom = _setup()
    simulate(inst, decode(chrom, inst), master.substream(NS_LABEL, 0),
             SimConfig(mode=STATIC, summary=True))
    assert batched == []
    assert (pure._normals, pure._uniforms, pure._jobs) == (None, None, None)


def test_each_environment_key_is_batched_once_per_scope_and_never_by_a_det_run(
        batched):
    inst, master, chrom = _setup()
    plan = decode(chrom, inst)
    det = SimConfig(mode=STATIC, det=True, summary=True)
    stochastic = SimConfig(mode=STATIC, summary=True)
    with rng.shared_draws():
        simulate(inst, plan, master.substream(NS_LABEL, 0), det)
        assert batched == []
        assert not pure._jobs and not pure._uniforms
        root = master.substream(NS_LABEL, 1)
        first = simulate(inst, plan, root, stochastic)
        assert sorted(batched) == sorted(_env_keys(inst, root))
        assert pure._jobs and set(pure._uniforms) == set(batched)
        again = simulate(inst, plan, root, stochastic)
        assert len(batched) == len(inst.machines)
    assert again == first
    assert (pure._normals, pure._uniforms, pure._jobs) == (None, None, None)
    assert simulate(inst, plan, root, stochastic) == first
    assert len(batched) == len(inst.machines)


def test_the_first_label_after_a_det_preview_is_prefetched(batched):
    """A det preview runs on the root of label replication 0 and draws
    nothing, so it leaves no row for its environment keys: that
    replication's first label is still batched."""
    inst, master, chrom = _setup()
    cfg = PlannerConfig(label_reps=2)
    with rng.shared_draws():
        det_preview(inst, chrom, master, cfg)
        assert batched == []
        label_static_obj(inst, chrom, master, cfg)
    roots = [master.substream(NS_LABEL, r) for r in range(cfg.label_reps)]
    assert sorted(batched) == sorted(k for root in roots
                                     for k in _env_keys(inst, root))
