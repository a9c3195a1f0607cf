"""Every instance record field, fuzzed: an instance that passes
validation runs to completion and scores, and one that does not is
refused with InvalidInstanceError or FormatError, never another error.

Each example sets one to three fields of a small generated instance (a
machine's, a quality spec's, the globals', or a job's nominal time) to
zero, a tiny, huge or negative value, NaN or an infinity, writes the
instance out and reads it back, and runs a tiny experiment on the file.
An accepted instance must also give structurally feasible static and
online traces.
"""

import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt.encoding import decode, random_chromosome
from reworkopt.harness import ExperimentConfig, run_experiment
from reworkopt.improver import make_rescheduler
from reworkopt.instances import generate_instance
from reworkopt.model import (GlobalParams, InvalidInstanceError,
                             MachineParams, QualitySpec, require_valid)
from reworkopt.oracle import check_feasibility
from reworkopt.rng import RngStream
from reworkopt.simulate import ONLINE, STATIC, SimConfig, simulate
from reworkopt.storage import (FormatError, dump_instance, load_report,
                               parse_instance)

EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.0, -1e300,
         math.nan, math.inf, -math.inf]
N_JOBS = 6


def _slots():
    """Every fuzzed field of generate_instance(N_JOBS, s): (record kind,
    index, field name); a machine's id is its section number, not a
    value."""
    inst = generate_instance(N_JOBS, 0)
    out = [("globals", None, f.name) for f in fields(GlobalParams)]
    out += [("machine", k, f.name) for k in range(len(inst.machines))
            for f in fields(MachineParams) if f.name != "id"]
    out += [("quality", t, f.name) for t in sorted(inst.quality)
            for f in fields(QualitySpec)]
    out += [("nominal", k, mid) for k, j in enumerate(inst.jobs)
            for mid in sorted(j.nominal_times)]
    return out


SPOILS = st.lists(st.tuples(st.sampled_from(_slots()), st.sampled_from(EDGES)),
                  min_size=1, max_size=3)


def _spoil(inst, spoils):
    for (kind, k, name), value in spoils:
        if kind == "globals":
            setattr(inst.globals, name, value)
        elif kind == "machine":
            setattr(inst.machines[k], name, value)
        elif kind == "quality":
            setattr(inst.quality[k], name, value)
        else:
            inst.jobs[k].nominal_times[name] = value


def _traces(inst):
    """A static and an online trace of one random plan."""
    chrom = random_chromosome(inst, (0, 1), RngStream.from_seed(3))
    plan, rng = decode(chrom, inst), RngStream.from_seed(4)
    return [simulate(inst, plan, rng, SimConfig(mode=STATIC)),
            simulate(inst, plan, rng, SimConfig(
                mode=ONLINE, rescheduler=make_rescheduler(2)))]


def _run_or_refuse(inst, tmp):
    """The spoiled instance through its file and a tiny run; False when
    it is refused by name."""
    path = tmp / "inst.txt"
    path.write_text(dump_instance(inst))
    try:
        inst = require_valid(parse_instance(path.read_text()))
        traces = _traces(inst)
        results, report = run_experiment(ExperimentConfig(
            instance_path=str(path), pop_size=2, max_iter=2, n_rounds=1,
            label_reps=1, seeds=(0,), jobs=1, outdir=str(tmp / "run")))
    except (InvalidInstanceError, FormatError):
        return False
    for tr in traces:
        assert check_feasibility(inst, tr) == []
    assert all(math.isfinite(x) for rows in results.values()
               for _, cmax, cost, _ in rows for x in (cmax, cost))
    per_seed, aggregate = load_report(report)
    assert all(math.isfinite(x) for row in per_seed for x in row[1:])
    assert all(math.isfinite(x) for x in aggregate.values())
    return True


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), SPOILS)
def test_any_instance_runs_or_is_refused_by_name(tmp_path_factory, seed,
                                                 spoils):
    inst = generate_instance(N_JOBS, seed)
    _spoil(inst, spoils)
    _run_or_refuse(inst, tmp_path_factory.mktemp("fuzz"))


def test_each_field_runs_or_is_refused_by_name_at_every_edge(tmp_path):
    """One field at a time, on one machine, one type and one job: the
    edges that pass validation run to completion."""
    accepted = 0
    for n, slot in enumerate(s for s in _slots()
                             if s[0] == "globals" or s[1] in (0, None)):
        for m, value in enumerate(EDGES):
            inst = generate_instance(N_JOBS, 0)
            _spoil(inst, [(slot, value)])
            tmp = tmp_path / ("%d-%d" % (n, m))
            tmp.mkdir()
            accepted += _run_or_refuse(inst, tmp)
    assert accepted
