"""Every ExperimentConfig field, fuzzed: construction plus a tiny run
either completes or is refused with InvalidOptionError or
InvalidInstanceError, never with another error."""

import math
import tempfile
import typing
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt.harness import ExperimentConfig, run_experiment
from reworkopt.model import InvalidInstanceError, InvalidOptionError

# finite, NaN, infinite, zero, negative and huge values
EDGES = [0, 0.0, -0.0, -1, -2.5, 5e-324, 1e300, -1e300, 10**30, -10**30,
         10**400, math.nan, math.inf, -math.inf]
NUMBERS = st.one_of(st.sampled_from(EDGES), st.integers(), st.floats())
# a huge valid value of these fields asks for a huge run, so they draw
# tiny counts or values that must be refused
SIZES = {"n_jobs", "pop_size", "max_iter", "label_reps", "jobs"}
REFUSED_SIZES = st.sampled_from([0, -1, -10**30, 1.5, 1e300, math.nan,
                                 math.inf, -math.inf, None])
TINY = dict(n_jobs=4, pop_size=2, max_iter=2, n_rounds=1, label_reps=1,
            seeds=(0,))
HINTS = typing.get_type_hints(ExperimentConfig)


def _values(name):
    if name == "jobs":
        return st.one_of(st.integers(-2, 2), REFUSED_SIZES)
    if name in SIZES:
        return st.one_of(st.integers(-2, 4), REFUSED_SIZES)
    if name == "seeds":
        return st.one_of(st.lists(NUMBERS, max_size=2).map(tuple), NUMBERS)
    if HINTS[name] is bool:
        return st.one_of(st.booleans(), NUMBERS)
    return st.one_of(NUMBERS, st.none())


OVERRIDES = st.sets(st.sampled_from([f.name for f in fields(ExperimentConfig)]),
                    min_size=1, max_size=3).flatmap(
    lambda names: st.fixed_dictionaries({n: _values(n) for n in names}))


def _run_or_refuse(overrides):
    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = ExperimentConfig(**{**TINY, "outdir": out, **overrides})
            run_experiment(cfg)
        except (InvalidOptionError, InvalidInstanceError):
            pass


@settings(max_examples=300, deadline=None)
@given(OVERRIDES)
def test_any_options_run_or_are_refused_by_name(overrides):
    _run_or_refuse(overrides)


def test_each_option_runs_or_is_refused_by_name_at_every_edge():
    for f in fields(ExperimentConfig):
        for value in EDGES + [None, True]:
            if f.name in SIZES and isinstance(value, int) and value > 4:
                continue
            _run_or_refuse({f.name: value})
