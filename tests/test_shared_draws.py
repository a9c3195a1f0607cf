"""Shared-draw scopes change no value; unowned scopes keep nothing past
their end, and owned ones keep the tables of one owner only.

Inside ``shared_draws()`` the pure kernel reads repeated (key, ctr)
draws back from per-key tables and a real job's job-stream draws back
from a table by stream position and type spec; ``rng.shared_draws()``
adds job keys by stream.  Every result must be the one computed outside
a scope, on a first call and on a repeated call alike, also when draws
of different kinds land on the same counters of one key, when one job
stream position is reached under different type specs, and when an
owned scope starts from the tables an earlier scope of its owner kept.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt import _kernel, planner, rng
from reworkopt._kernel import pure
from reworkopt.encoding import decode, random_chromosome
from reworkopt.improver import reschedule
from reworkopt.instances import generate_instance
from reworkopt.orchestrator import DpeiaConfig, dpeia
from reworkopt.rng import (NS_ENV, NS_INIT, NS_JOB, NS_LABEL, NS_ONLINE,
                           RngStream)
from reworkopt.simulate import ONLINE, SimConfig, idle_space_count, simulate

# job_step's arguments from eta on, of one machine and one type
STEP_ARGS = (0.2, 1.0, 6e-5, 80.0, 0.003, 0.05, 0.015, 42.72, 0.0112,
             0.0098, 0.0137, 42.72, 0.08, 42.72, 0.06, 42.54, 42.9, 1.0)

# few keys and counters, so that calls of different kinds collide
KEYS = st.sampled_from([0, 7, 2**63 + 5, 2**64 - 1])
CTRS = st.integers(0, 40)
REALS = st.floats(-5.0, 5.0)
SIGMAS = st.floats(0.01, 3.0)


def _gamma_calls():
    shapes = st.one_of(st.just(0.0), st.floats(0.05, 0.99),
                       st.floats(1.0, 20.0))
    return st.tuples(st.just(pure.gamma), st.tuples(
        KEYS, CTRS, shapes, st.floats(0.01, 3.0)))


def _truncated_calls():
    def build(key, ctr, mu, sigma, below, above):
        return key, ctr, mu, sigma, mu - below * sigma, mu + above * sigma
    return st.tuples(st.just(pure.truncated_normal), st.builds(
        build, KEYS, CTRS, REALS, st.one_of(st.just(0.0), SIGMAS),
        st.floats(0.3, 3.0), st.floats(0.3, 3.0)))


def _job_step_calls():
    # few job counters and few values per field, so that one (key, ctr)
    # is reached under different type specs and wear parameters; zeros
    # of both signs reach the memo's float keys
    zero = st.sampled_from([0.0, -0.0])

    def build(jkey, jctr, ekey, ectr, det, kind, w, dt, o, alpha, wear,
              mu_p, ups0, sl, xi, mu_q, sig_q, below, above, noise_sigma):
        mu_m, sig_m, sig_p = wear
        return (jkey, jctr, ekey, ectr, det, kind, w, dt, o,
                0.2, alpha, 6e-5, mu_m, sig_m, mu_p, sig_p,
                ups0, 0.0112, 0.0098, 0.0137, sl, xi,
                mu_q, sig_q, mu_q - below, mu_q + above, noise_sigma)
    return st.tuples(st.just(pure.job_step), st.builds(
        build, KEYS, st.integers(0, 6), KEYS, CTRS, st.integers(0, 1),
        st.integers(0, 1), st.floats(0.0, 0.5), st.floats(0.0, 10.0),
        st.floats(1.0, 3.0), st.floats(0.0, 2.0),
        st.sampled_from([(80.0, 0.003, 0.015), (8.0, 0.3, 0.1)]),
        st.one_of(zero, st.floats(0.0, 0.1)),
        st.sampled_from([42.72, 0.0]),
        st.one_of(zero, st.sampled_from([42.72, 42.61])),
        st.sampled_from([0.08, 0.07, 1e-3]),
        st.one_of(zero, st.sampled_from([42.72, 42.5])),
        st.one_of(zero, st.sampled_from([0.06, 0.3])),
        st.sampled_from([0.1, 0.5]),
        st.one_of(zero, st.sampled_from([0.1, 0.5])),
        st.one_of(zero, st.sampled_from([1.0, 0.5]))))


CALLS = st.lists(st.one_of(
    st.tuples(st.just(pure.normal), st.tuples(KEYS, CTRS, REALS, SIGMAS)),
    _gamma_calls(), _truncated_calls(), _job_step_calls()),
    min_size=1, max_size=16)


def _run(calls):
    # repr keeps every bit of a float, the sign of zero included
    return [repr(fn(*args)) for fn, args in calls]


@settings(max_examples=300, deadline=None)
@given(CALLS)
def test_draws_inside_a_scope_equal_draws_outside(calls):
    outside = _run(calls)
    with pure.shared_draws():
        first = _run(calls)
        repeated = _run(calls)
    assert first == outside
    assert repeated == outside


def _tables():
    return pure._normals, pure._uniforms, pure._jobs, rng._subkeys


def _one_stream_steps():
    """job_step calls on one job stream at two counters, under varying
    type specs and wear: a memo keyed too narrowly hands one call the
    draws of another.  Degenerate specs (sig_q = 0) return ups = mu_q
    clamped into [q_lo, q_hi], so zeros of both signs reach the memo's
    float keys and its values."""
    zero = st.sampled_from([0.0, -0.0])
    spread = st.tuples(st.sampled_from([42.72, 42.6]),
                       st.sampled_from([0.06, 0.3]),
                       st.sampled_from([42.5, 42.55]),
                       st.sampled_from([42.8, 42.9]))
    degenerate = st.tuples(st.one_of(zero, st.just(42.72)), zero,
                           st.sampled_from([-0.1, 42.5]),
                           st.one_of(zero, st.just(42.9)))

    def build(jctr, w, dt, wear, sl, xi, quality, noise_sigma):
        mu_m, sig_m, mu_p, sig_p = wear
        return (7, jctr, 9, 0, 0, 0, w, dt, 2.0,
                0.2, 1.0, 6e-5, mu_m, sig_m, mu_p, sig_p,
                42.72, 0.0112, 0.0098, 0.0137, sl, xi,
                *quality, noise_sigma)
    return st.lists(st.builds(
        build, st.sampled_from([0, 2]), st.sampled_from([0.0, 0.3]),
        st.sampled_from([0.0, 4.0]),
        st.sampled_from([(80.0, 0.003, 0.05, 0.015), (8.0, 0.3, 0.0, 0.1)]),
        st.sampled_from([42.72, 42.61]), st.sampled_from([0.08, 1e-3]),
        st.one_of(spread, degenerate), st.one_of(zero, st.just(1.0))),
        min_size=2, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_one_stream_steps())
def test_job_steps_on_one_stream_position_keep_their_own_draws(calls):
    outside = [repr(pure.job_step(*args)) for args in calls]
    with pure.shared_draws():
        first = [repr(pure.job_step(*args)) for args in calls]
        repeated = [repr(pure.job_step(*args)) for args in reversed(calls)]
    assert first == outside
    assert repeated == outside[::-1]


def test_a_zero_characteristic_keeps_its_sign():
    # specs equal as floats but for the sign of mu_q's zero share a memo
    # key; the draws they return must still differ in that sign
    def step(mu_q):
        return pure.job_step(7, 0, 9, 0, 0, 0, 0.1, 1.0, 2.0, *STEP_ARGS[:13],
                             mu_q, 0.0, -0.1, 0.1, 1.0)
    outside = [repr(step(x)) for x in (-0.0, 0.0, -0.0)]
    assert outside[0] != outside[1]
    with pure.shared_draws():
        assert [repr(step(x)) for x in (-0.0, 0.0, -0.0)] == outside


def test_nothing_is_stored_outside_a_scope():
    pure.normal(7, 0, 0.0, 1.0)
    pure.gamma(7, 4, 2.5, 1.0)
    pure.job_step(7, 0, 9, 0, 0, 0, 0.1, 1.0, 2.0, *STEP_ARGS)
    RngStream(7).subkeys()[3]
    assert _tables() == (None, None, None, None)


def test_a_nested_scope_keeps_the_outer_tables():
    with pure.shared_draws():
        pure.normal(7, 0, 0.0, 1.0)
        outer = pure._normals
        with pure.shared_draws():
            assert pure._normals is outer and 7 in outer
            pure.gamma(9, 0, 2.5, 1.0)
        assert pure._normals is outer
        assert 9 in pure._normals and 9 in pure._uniforms
    assert pure._normals is None and pure._uniforms is None


def test_tables_are_dropped_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with pure.shared_draws():
            with pure.shared_draws():
                pure.gamma(9, 0, 2.5, 1.0)
                raise RuntimeError("boom")
    assert pure._normals is None and pure._uniforms is None
    with pure.shared_draws():
        assert pure._normals == {} and pure._uniforms == {}
        assert pure._jobs == {}


def _idle_types(inst, master):
    counts = idle_space_count(inst, master.substream(NS_INIT))
    return tuple(t for t in sorted(counts) for _ in range(counts[t]))


def _setup():
    inst = generate_instance(30, 1)
    master = RngStream.from_seed(4)
    chrom = random_chromosome(inst, _idle_types(inst, master),
                              master.substream(NS_INIT, 1))
    chrom.thr_r = 0.2
    return inst, master, chrom


def test_a_label_fills_the_tables_and_the_scope_exit_drops_them(batched):
    inst, master, chrom = _setup()
    cfg = planner.PlannerConfig(label_reps=3)
    with rng.shared_draws():
        with rng.shared_draws():
            first = planner.label_static_obj(inst, chrom, master, cfg)
        assert len(rng._subkeys) == 3       # one table per replication root
        # each machine of each root batched once
        assert len(batched) == len(set(batched)) == 3 * len(inst.machines)
        assert pure._jobs
        assert set(batched) <= set(pure._uniforms)
        again = planner.label_static_obj(inst, chrom, master, cfg)
        assert len(batched) == 3 * len(inst.machines)
    assert again == first
    assert _tables() == (None, None, None, None)
    assert planner.label_static_obj(inst, chrom, master, cfg) == first


def test_the_tables_are_dropped_when_a_label_raises():
    inst, master, chrom = _setup()
    cfg = planner.PlannerConfig(label_reps=2)
    with pytest.raises(RuntimeError):
        with rng.shared_draws():
            planner.label_static_obj(inst, chrom, master, cfg)
            raise RuntimeError("boom")
    assert _tables() == (None, None, None, None)


def test_an_online_execution_runs_outside_any_scope():
    """Only the rescheduler's projections share draws; the execution
    itself keeps nothing between its triggers."""
    inst, master, chrom = _setup()
    seen = []

    def hook(ctx):
        seen.append(_tables())
        return reschedule(ctx, 2)

    simulate(inst, decode(chrom, inst),
             master.substream(NS_ONLINE, 0, 0),
             SimConfig(mode=ONLINE, rescheduler=hook))
    assert seen
    assert set(seen) == {(None, None, None, None)}
    assert _tables() == (None, None, None, None)


# -- owned scopes: the planner's tables kept from one call to the next --

PLAN_CFG = planner.PlannerConfig(pop_size=3, label_reps=2)


@pytest.fixture
def cold(batched, monkeypatch):
    """No owned scope has kept tables yet; simulations step through the
    pure kernel (see batched), whose environment-key batches it lists."""
    monkeypatch.setattr(rng, "_kept", None)
    monkeypatch.setattr(pure, "_kept", None)
    return batched


def _plan(inst, master):
    """One planning call of one generation, as the benchmark makes."""
    return planner.plan(inst, 1, master, PLAN_CFG, _idle_types(inst, master))


def _labels(inst, master, chroms):
    return [repr(planner.label_static_obj(inst, ch, master, PLAN_CFG))
            for ch in chroms]


def _warm_labels(inst, master, chroms):
    """Labels in a scope that master owns, which starts from the tables
    the last scope it owned kept; none of its runs batches a first draw
    then, as every environment key of the label worlds is kept."""
    with rng.shared_draws(master.key):
        n = len(pure._uniforms)
        labels = _labels(inst, master, chroms)
        assert len(pure._uniforms) == n
    return labels


def _chroms(inst, master, n=3):
    irng = master.substream(NS_INIT, 2)
    return [random_chromosome(inst, _idle_types(inst, master), irng)
            for _ in range(n)]


def _kept_keys():
    """The keys the slots of both modules hold tables under."""
    normals, uniforms, jobs = pure._kept[1]
    return (set(rng._kept[1]), set(normals) | set(uniforms),
            {k for k, _ in jobs})


def test_a_later_plan_reads_the_kept_tables_and_changes_no_value(cold):
    inst, master, _ = _setup()
    pop, _ = _plan(inst, master)
    assert rng._kept[0] == pure._kept[0] == master.key
    chroms = [ind.chrom for ind in pop] + _chroms(inst, master)
    assert _warm_labels(inst, master, chroms) == _labels(inst, master, chroms)
    n = len(cold)
    # the second call of a run, warm, and the same call from cold tables
    warm, _ = planner.plan(inst, 1, master, PLAN_CFG, (), pop=pop,
                           iter_offset=1, max_iter=2)
    assert len(cold) == n
    rng._kept = pure._kept = None
    again, _ = planner.plan(inst, 1, master, PLAN_CFG, (), pop=pop,
                            iter_offset=1, max_iter=2)
    assert len(cold) > n
    assert [(i.chrom.digest(), repr(i.label), repr(i.obj)) for i in warm] == [
        (i.chrom.digest(), repr(i.label), repr(i.obj)) for i in again]


def test_kept_job_draws_of_another_instance_are_drawn_again(cold):
    """Another instance planned from the same seed replays the same job
    keys under other type specs: each job's draws are checked against
    its spec, not read back blindly."""
    inst, master, _ = _setup()
    _plan(inst, master)
    other = generate_instance(30, 1, sigma_q=0.1)
    chroms = _chroms(other, master)
    kept_jobs = pure._kept[1][2]
    job_keys = master.substream(NS_LABEL, 0).substream(NS_JOB).subkeys()
    specs = {kept_jobs[job_keys[e], 0][0] for e in range(inst.n_jobs)
             if (job_keys[e], 0) in kept_jobs}
    assert specs and all(q.sigma_q not in {s[3] for s in specs}
                         for q in other.quality.values())
    assert _warm_labels(other, master, chroms) == _labels(other, master,
                                                          chroms)


def test_interleaved_masters_change_no_value(cold):
    inst, a, _ = _setup()
    b = RngStream.from_seed(5)
    for master in (a, b, a):
        _plan(inst, master)
    assert rng._kept[0] == pure._kept[0] == a.key
    chroms = _chroms(inst, a)
    assert _warm_labels(inst, a, chroms) == _labels(inst, a, chroms)


def test_a_second_dpeia_run_from_kept_tables_repeats_the_first(cold):
    inst = generate_instance(15, 2)
    cfg = DpeiaConfig(pop_size=4, max_iter=4, n_rounds=2, label_reps=2)
    runs, batches = [], []
    for _ in range(2):
        n = len(cold)
        runs.append(dpeia(inst, cfg, seed=3))
        batches.append(len(cold) - n)
    assert rng._kept[0] == RngStream.from_seed(3).key
    assert batches[1] < batches[0]
    a, b = ([(repr(e.objectives), e.digest, repr(e.f_eva), e.round_index,
              e.elite_index) for e in r.archive.entries] for r in runs)
    assert a and a == b
    assert runs[0].sim_calls == runs[1].sim_calls
    assert runs[0].rounds_log == runs[1].rounds_log


def test_the_slot_keeps_one_owner(cold):
    inst, a, _ = _setup()
    roots = [a.substream(NS_LABEL, r) for r in range(PLAN_CFG.label_reps)]
    env = {root.substream(NS_ENV, m.id).key
           for root in roots for m in inst.machines}
    streams = {root.substream(NS_JOB).key for root in roots}
    _plan(inst, a)
    jobs = {k for s in streams for k in rng._kept[1][s].values()}
    subkeys, draws, job_draws = _kept_keys()
    assert streams <= subkeys and env <= draws and jobs & job_draws
    _plan(inst, RngStream.from_seed(5))
    assert rng._kept[0] == pure._kept[0] == RngStream.from_seed(5).key
    subkeys, draws, job_draws = _kept_keys()
    assert not streams & subkeys
    assert not (env | jobs) & draws
    assert not jobs & job_draws


def test_an_unowned_scope_between_plans_leaves_the_slot_alone(
        cold, monkeypatch):
    """The projections of an online execution's reschedules, in unowned
    scopes, neither read nor change the tables the planner kept."""
    inst, master, chrom = _setup()
    _plan(inst, master)
    kept = rng._kept, pure._kept
    before = _kept_keys(), [len(t) for t in pure._kept[1]]
    seen = []

    def run_machine(*args):
        seen.append(pure._uniforms)
        return pure.run_machine(*args)

    monkeypatch.setattr(_kernel, "run_machine", run_machine)
    simulate(inst, decode(chrom, inst), master.substream(NS_ONLINE, 0, 0),
             SimConfig(mode=ONLINE,
                       rescheduler=lambda ctx: reschedule(ctx, 2)))
    projected = [t for t in seen if t is not None]
    assert projected and all(t is not kept[1][1][1] for t in projected)
    assert rng._kept is kept[0] and pure._kept is kept[1]
    assert (_kept_keys(), [len(t) for t in pure._kept[1]]) == before


def test_a_raise_in_an_owned_scope_leaves_no_slot(cold):
    inst, master, chrom = _setup()
    _plan(inst, master)
    assert rng._kept and pure._kept
    with pytest.raises(RuntimeError):
        with rng.shared_draws(master.key):
            planner.label_static_obj(inst, chrom, master, PLAN_CFG)
            raise RuntimeError("boom")
    assert rng._kept is None and pure._kept is None
    assert _tables() == (None, None, None, None)
