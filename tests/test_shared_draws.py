"""Shared-draw scopes change no value and keep nothing past their end.

Inside ``shared_draws()`` the pure kernel reads repeated (key, ctr)
draws back from per-key tables and a real job's job-stream draws back
from a table by stream position and type spec; ``rng.shared_draws()``
adds job keys by stream.  Every result must be the one computed outside
a scope, on a first call and on a repeated call alike, also when draws
of different kinds land on the same counters of one key and when one
job stream position is reached under different type specs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt import planner, rng
from reworkopt._kernel import pure
from reworkopt.encoding import decode, random_chromosome
from reworkopt.improver import reschedule
from reworkopt.instances import generate_instance
from reworkopt.rng import NS_INIT, NS_ONLINE, RngStream
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


def _setup():
    inst = generate_instance(30, 1)
    master = RngStream.from_seed(4)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))
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
