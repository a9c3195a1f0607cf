"""Shared-draw scopes of the pure kernel change no value.

Inside ``shared_draws()`` the pure kernel reads repeated (key, ctr)
draws back from per-key tables.  Every result must be the one computed
outside a scope, on a first call and on a repeated call alike, also
when draws of different kinds land on the same counters of one key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt._kernel import pure

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
    def build(jkey, jctr, ekey, ectr, det, kind, w, dt, o, alpha, mu_p):
        return (jkey, jctr, ekey, ectr, det, kind, w, dt, o,
                0.2, alpha, 6e-5, 80.0, 0.003, mu_p, 0.015,
                42.72, 0.0112, 0.0098, 0.0137, 42.72, 0.08,
                42.72, 0.06, 42.54, 42.9, 1.0)
    return st.tuples(st.just(pure.job_step), st.builds(
        build, KEYS, CTRS, KEYS, CTRS, st.integers(0, 1), st.integers(0, 1),
        st.floats(0.0, 0.5), st.floats(0.0, 10.0), st.floats(1.0, 3.0),
        st.floats(0.0, 2.0), st.floats(0.0, 0.1)))


CALLS = st.lists(st.one_of(
    st.tuples(st.just(pure.normal), st.tuples(KEYS, CTRS, REALS, SIGMAS)),
    st.tuples(st.just(pure.clamped_normal),
              st.tuples(KEYS, CTRS, REALS, SIGMAS)),
    _gamma_calls(), _truncated_calls(), _job_step_calls()),
    min_size=1, max_size=12)


def _run(calls):
    # repr keeps every bit of a float, the sign of zero included
    return [repr(fn(*args)) for fn, args in calls]


@settings(max_examples=150, deadline=None)
@given(CALLS)
def test_draws_inside_a_scope_equal_draws_outside(calls):
    outside = _run(calls)
    with pure.shared_draws():
        first = _run(calls)
        repeated = _run(calls)
    assert first == outside
    assert repeated == outside


def test_nothing_is_stored_outside_a_scope():
    pure.normal(7, 0, 0.0, 1.0)
    pure.gamma(7, 4, 2.5, 1.0)
    assert pure._normals is None and pure._uniforms is None


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
