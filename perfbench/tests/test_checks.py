"""The benchmark's output checks accept sound output and reject
tampered output, one fault at a time."""

import copy
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from reworkopt import encoding, improver, oracle, planner
from reworkopt.encoding import GeneBounds
from reworkopt.instances import generate_instance
from reworkopt.rng import NS_ONLINE, RngStream

import checks
import workloads
from layers import append_score

simulate_mod = importlib.import_module("reworkopt.simulate")


def _setup(n_jobs=20, seed=0, k=0):
    inst = generate_instance(n_jobs, seed)
    master = RngStream.from_seed(seed)
    idle_types = workloads._pilot(inst, master)
    chrom = encoding.random_chromosome(inst, idle_types, master.substream(9, k),
                                       GeneBounds())
    return inst, master, chrom


@pytest.fixture(scope="module")
def static_run():
    inst, master, chrom = _setup()
    trace = simulate_mod.simulate(inst, encoding.decode(chrom, inst),
                                  master.substream(NS_ONLINE, 0, 0))
    return inst, chrom, trace


@pytest.fixture(scope="module")
def online_run():
    inst, master, chrom = _setup()
    chrom.thr_r = 0.2
    calls = []

    def hook(ctx):
        queues, f_r = improver.reschedule(ctx, 2)
        calls.append((ctx, f_r))
        return queues, f_r

    trace = simulate_mod.simulate(
        inst, encoding.decode(chrom, inst), master.substream(NS_ONLINE, 0, 0),
        simulate_mod.SimConfig(mode=simulate_mod.ONLINE, rescheduler=hook))
    return inst, trace, calls


def _tampered(trace):
    return copy.deepcopy(trace)


def _has(errs, text):
    return any(text in e for e in errs)


def test_sound_traces_pass(static_run, online_run):
    inst, chrom, trace = static_run
    assert checks.check_trace(inst, trace, chrom) == []
    inst, trace, calls = online_run
    assert any(ev.origin is not None for ev in trace.job_events)
    assert checks.check_trace(inst, trace) == []
    assert oracle.check_feasibility(inst, trace) == []
    records = [(f_r, append_score(ctx)) for ctx, f_r in calls]
    assert len(records) == len(trace.resched_points) > 0
    assert checks.check_reschedules(records) == []


def test_dropped_job_is_caught(static_run):
    inst, chrom, trace = static_run
    bad = _tampered(trace)
    gone = bad.job_events.pop(3)
    assert _has(checks.check_trace(inst, bad), "jobs never run: [%d]" % gone.job_id)


def test_overlapping_events_are_caught(static_run):
    inst, chrom, trace = static_run
    bad = _tampered(trace)
    a, b = [ev for ev in bad.job_events if ev.machine_id == 1][:2]
    b.start = a.start + 0.5 * a.duration
    assert _has(checks.check_trace(inst, bad), "overlaps")


def test_incapable_machine_is_caught(static_run):
    inst, chrom, trace = static_run
    bad = _tampered(trace)
    ev = next(ev for ev in bad.job_events if 0 not in inst.jobs[ev.job_id].nominal_times)
    ev.machine_id = 0
    assert _has(checks.check_trace(inst, bad), "incapable machine 0")


def test_wrong_aggregates_are_caught(static_run):
    inst, chrom, trace = static_run
    for field, text in (("makespan", "makespan"), ("maint_cost", "maintenance cost"),
                        ("q_count", "q_count")):
        bad = _tampered(trace)
        setattr(bad, field, getattr(bad, field) + 1)
        assert _has(checks.check_trace(inst, bad), text)


def test_short_duration_is_caught(static_run):
    inst, chrom, trace = static_run
    bad = _tampered(trace)
    ev = bad.job_events[0]
    ev.duration = 0.5 * inst.jobs[ev.job_id].nominal_times[ev.machine_id]
    assert _has(checks.check_trace(inst, bad), "shorter than its nominal time")


def test_makespan_below_bound_is_caught(static_run):
    inst, chrom, trace = static_run
    bad = _tampered(trace)
    scale = 0.5 * checks.makespan_lower_bound(inst) / bad.makespan
    for ev in bad.job_events + bad.idle_events:
        ev.start *= scale
        ev.duration *= scale
    for ev in bad.maint_events:
        ev.time *= scale
        ev.duration *= scale
    bad.makespan *= scale
    assert _has(checks.check_trace(inst, bad), "below the instance bound")


def test_static_order_is_checked(static_run):
    inst, chrom, trace = static_run
    other = chrom.copy()
    mid = other.assign[0]
    s1, s2 = [s for s, m in enumerate(other.assign) if m == mid][:2]
    other.key[s1], other.key[s2] = other.key[s2], other.key[s1]
    assert _has(checks.check_trace(inst, trace, other), "the plan orders")


def test_copy_of_a_passing_job_is_caught(online_run):
    inst, trace, _ = online_run
    bad = _tampered(trace)
    cp = next(ev for ev in bad.job_events if ev.origin is not None)
    first = next(ev for ev in bad.job_events if ev.job_id == cp.origin)
    first.qualified = True
    bad.q_count += 1
    errs = checks.check_trace(inst, bad)
    assert _has(errs, "which passed quality")


def test_copy_before_its_original_is_caught(online_run):
    inst, trace, _ = online_run
    bad = _tampered(trace)
    cp = next(ev for ev in bad.job_events if ev.origin is not None)
    first = next(ev for ev in bad.job_events if ev.job_id == cp.origin)
    cp.start = first.start
    assert checks.copies_before_origin(bad) == [
        "copy %d starts before job %d ends" % (cp.job_id, cp.origin)]
    assert _has(checks.check_trace(inst, bad), "starts before job")


def test_f_r_below_the_fallback_is_caught(online_run):
    _, _, calls = online_run
    records = [(f_r, append_score(ctx)) for ctx, f_r in calls]
    f_app = records[1][1]
    records[1] = (f_app * 0.99, f_app)
    assert checks.check_reschedules(records) == [
        "trigger 1: f_r %r below the append fallback %r" % (f_app * 0.99, f_app)]


@pytest.fixture(scope="module")
def population():
    inst, master, _ = _setup()
    idle_types = workloads._pilot(inst, master)
    cfg = planner.PlannerConfig(pop_size=6, label_reps=2)
    pop = planner.init_population(inst, idle_types, master, cfg)
    return inst, idle_types, cfg, pop


def test_population_checks(population):
    inst, idle_types, cfg, pop = population
    best = max(ind.label for ind in pop)
    assert checks.check_population(inst, pop, 6, cfg.bounds, idle_types, best) == []
    assert _has(checks.check_population(inst, pop, 6, cfg.bounds, idle_types,
                                        best * 1.01), "best label fell")
    assert _has(checks.check_population(inst, pop[:5], 6, cfg.bounds, idle_types),
                "population of 5")
    bad = copy.deepcopy(pop)
    bad[0].label = float("nan")
    assert _has(checks.check_population(inst, bad, 6, cfg.bounds, idle_types),
                "not finite")
    bad = copy.deepcopy(pop)
    bad[1].chrom.zeta = 2.0
    assert _has(checks.check_population(inst, bad, 6, cfg.bounds, idle_types),
                "zeta")
    bad = copy.deepcopy(pop)
    slot = next(s for s in range(inst.n_jobs)
                if 0 not in inst.jobs[s].nominal_times)
    bad[2].chrom.assign[slot] = 0
    assert _has(checks.check_population(inst, bad, 6, cfg.bounds, idle_types),
                "slot %d on incapable machine 0" % slot)


def test_archive_and_report_checks():
    assert checks.check_archive([(10.0, 5.0), (12.0, 3.0)], 9.0) == []
    assert _has(checks.check_archive([(10.0, 5.0), (12.0, 6.0)]), "dominated")
    assert _has(checks.check_archive([(10.0, 5.0), (10.0, 5.0)]), "repeats")
    assert _has(checks.check_archive([(8.0, 5.0)], 9.0), "below the bound")
    assert _has(checks.check_archive([]), "empty")
    head = "# reworkopt-report v1\nseed\thv\tigd\trpd\n"
    good = head + "0\t0.5\t0.1\t0.0\n1\t1.0\t0.0\t2.5\n\nmean_hv = 0.75\n"
    assert checks.check_report(good, (0, 1)) == []
    assert _has(checks.check_report(good.replace("\t1.0\t", "\t1.5\t"), (0, 1)),
                "outside [0, 1]")
    assert _has(checks.check_report(good.replace("\t0.1\t", "\t-0.1\t"), (0, 1)),
                "negative igd")
    assert _has(checks.check_report(good, (0, 1, 2)), "expected")


@settings(max_examples=15, deadline=None)
@given(n_jobs=st.integers(3, 25), seed=st.integers(0, 1000),
       k=st.integers(0, 1000), det=st.booleans())
def test_static_runs_of_random_plans_pass(n_jobs, seed, k, det):
    inst, master, chrom = _setup(n_jobs, seed, k)
    trace = simulate_mod.simulate(inst, encoding.decode(chrom, inst),
                                  master.substream(NS_ONLINE, 0, 0),
                                  simulate_mod.SimConfig(det=det))
    assert checks.check_trace(inst, trace, chrom) == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), drop=st.integers(0, 10 ** 6))
def test_any_dropped_event_is_caught(seed, drop):
    inst, master, chrom = _setup(12, seed)
    trace = simulate_mod.simulate(inst, encoding.decode(chrom, inst),
                                  master.substream(NS_ONLINE, 0, 0))
    bad = _tampered(trace)
    bad.job_events.pop(drop % len(bad.job_events))
    assert checks.check_trace(inst, bad, chrom) != []
