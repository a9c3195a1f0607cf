import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt.encoding import Chromosome, decode, random_chromosome
from reworkopt.improver import make_rescheduler
from reworkopt.instances import generate_instance, oracle_toy, toy_instance
from reworkopt.model import (GlobalParams, Job, MachineParams, ProblemInstance,
                             QualitySpec, dominates, require_valid)
from reworkopt.oracle import (OracleSolution, _feasible, check_feasibility,
                              enumerate_pareto)
from reworkopt.rng import NS_INIT, NS_LABEL, NS_ONLINE, RngStream
from reworkopt.simulate import (ONLINE, STATIC, MaintenanceEvent, SimConfig,
                                idle_space_count, simulate)
from reworkopt.storage import dump_instance, parse_instance


def _toy_trace(seed=0, mode=STATIC):
    inst = toy_instance(10, seed=seed)
    ch = random_chromosome(inst, (0, 1), RngStream.from_seed(seed + 100))
    cfg = SimConfig(mode=mode,
                    rescheduler=make_rescheduler(4) if mode == ONLINE else None)
    return inst, simulate(inst, decode(ch, inst), RngStream.from_seed(seed), cfg)


def test_audit_accepts_simulated_traces():
    for seed in range(4):
        inst, tr = _toy_trace(seed, STATIC)
        assert check_feasibility(inst, tr) == []
        inst, tr = _toy_trace(seed, ONLINE)
        assert check_feasibility(inst, tr) == []


def test_audit_follows_the_wear_chain_through_events_tied_in_time():
    """After a preventive action of 1e300 time units, each later event's
    duration is lost in rounding, so a machine's events tie in (start,
    end); the audit orders them by their wear chain, and still flags a
    break in it."""
    inst = generate_instance(6, 0)
    inst.machines[0].t_pm = 1e300
    ch = random_chromosome(inst, (0, 1), RngStream.from_seed(3))
    tr = simulate(inst, decode(ch, inst), RngStream.from_seed(4),
                  SimConfig(mode=STATIC))
    tied = [ev for ev in tr.job_events if ev.start == ev.completion]
    assert len(tied) > 1
    assert check_feasibility(inst, tr) == []
    tied[0].w_before += 1.0
    assert any("wear discontinuity" in e for e in check_feasibility(inst, tr))


def test_audit_flags_duplicated_job():
    inst, tr = _toy_trace(1)
    tr.job_events.append(tr.job_events[0])
    errs = check_feasibility(inst, tr)
    assert any("processed twice" in e for e in errs)


def test_audit_flags_missing_job():
    inst, tr = _toy_trace(2)
    lost = tr.job_events.pop()
    errs = check_feasibility(inst, tr)
    assert any("never processed" in e for e in errs)
    tr.job_events.append(lost)


def test_audit_flags_maintenance_overlapping_work():
    inst, tr = _toy_trace(3)
    ev = tr.job_events[0]
    mid = ev.machine_id
    bogus = MaintenanceEvent("pm", mid, ev.start + ev.duration / 4, ev.duration / 4,
                             5.0, group=99, w_before=ev.w_before,
                             w_after=ev.w_before, n_pm_after=1)
    tr.maint_events.append(bogus)
    errs = check_feasibility(inst, tr)
    assert any("overlaps" in e for e in errs)


def test_audit_flags_repair_without_failure():
    inst, tr = _toy_trace(4)
    last = max(ev.completion for ev in tr.job_events)
    mid = tr.job_events[0].machine_id
    w_end = tr.final_states[mid].w
    tr.maint_events.append(MaintenanceEvent(
        "cm", mid, last + 5.0, 1.0, 50.0, None,
        w_before=w_end, w_after=w_end))
    errs = check_feasibility(inst, tr)
    assert any("without failure" in e for e in errs)


def test_audit_flags_wear_discontinuity():
    inst, tr = _toy_trace(5)
    counts = {}
    for ev in tr.job_events:
        counts[ev.machine_id] = counts.get(ev.machine_id, 0) + 1
    mid = max(counts, key=counts.get)
    mine = sorted((ev for ev in tr.job_events if ev.machine_id == mid),
                  key=lambda e: e.start)
    assert len(mine) >= 2
    mine[1].w_before += 0.5
    errs = check_feasibility(inst, tr)
    assert any("wear discontinuity" in e for e in errs)


def test_audit_flags_incapable_assignment():
    # type-1 jobs exist only on machine 1 in the toy layout
    inst, tr = _toy_trace(6)
    ev = next(e for e in tr.job_events if e.type == 1 and e.origin is None)
    ev.machine_id = 0
    errs = check_feasibility(inst, tr)
    assert any("incapable machine" in e for e in errs)


def test_audit_flags_aggregate_lies():
    inst, tr = _toy_trace(7)
    tr.makespan += 1.0
    tr.maint_cost += 1.0
    tr.q_count += 1
    errs = check_feasibility(inst, tr)
    assert any("makespan" in e for e in errs)
    assert any("maintenance cost" in e for e in errs)
    assert any("qualified count" in e for e in errs)


def test_audit_flags_ungrouped_preventive_action():
    inst, tr = _toy_trace(8)
    last = max(ev.completion for ev in tr.job_events)
    mid = tr.job_events[0].machine_id
    w_end = tr.final_states[mid].w
    npm = tr.final_states[mid].n_pm
    tr.maint_events.append(MaintenanceEvent(
        "pm", mid, last + 2.0, 1.0, 5.0, None,
        w_before=w_end, w_after=w_end, n_pm_after=npm + 1))
    errs = check_feasibility(inst, tr)
    assert any("without a group" in e for e in errs)


def test_zeta_interval_feasibility_rules():
    assert _feasible(0.2, 0.5, 0.05, 0.95)
    assert not _feasible(0.5, 0.4, 0.05, 0.95)
    assert _feasible(0.3, math.inf, 0.05, 0.95)
    assert not _feasible(0.96, math.inf, 0.05, 0.95)
    assert not _feasible(0.0, 0.04, 0.05, 0.95)


_SPEC = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)


def _det_machine(**kw):
    base = dict(id=0, w0=0.01, cap=10.0, mu_minus=0.0, sigma_minus=0.0,
                mu_plus=0.01, sigma_plus=0.0, alpha=0.0, beta=0.1,
                ups0=10.0, a=0.0, b0=0.0, gamma=0.0,
                t_pm=0.5, t_ps=0.1, t_cm=2.0, c_pm=3.0, c_ps=1.0, c_cm=40.0)
    base.update(kw)
    return MachineParams(**base)


def test_single_job_enumeration():
    inst = ProblemInstance([Job(0, 0, {0: 2.0})], [_det_machine()],
                           {0: _SPEC},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    front = enumerate_pareto(inst)
    assert len(front) == 1
    sol = front[0]
    assert sol.objectives.makespan == pytest.approx(2.0, abs=1e-12)
    assert sol.objectives.maint_cost == 0.0
    assert sol.assign == (0,)
    assert sol.orders[0] == (0,)
    assert all(p == 0 for p in sol.patterns[0])


def test_identical_jobs_on_identical_machines_collapse():
    jobs = [Job(0, 0, {0: 3.0, 1: 3.0}), Job(1, 0, {0: 3.0, 1: 3.0})]
    inst = ProblemInstance(jobs, [_det_machine(id=0), _det_machine(id=1)],
                           {0: _SPEC},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    front = enumerate_pareto(inst)
    assert len(front) == 1
    assert front[0].objectives.makespan == pytest.approx(3.0, abs=1e-9)
    assert front[0].objectives.maint_cost == 0.0
    # one job per machine
    assert sorted(front[0].assign) == [0, 1]


def test_enumeration_size_guard():
    jobs = [Job(i, 0, {0: 1.0}) for i in range(3)]
    inst = ProblemInstance(jobs, [_det_machine()], {0: _SPEC},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    with pytest.raises(ValueError):
        enumerate_pareto(inst, max_jobs=2)


def solution_chromosome(inst: ProblemInstance, sol: OracleSolution) -> Chromosome:
    """Rebuild a chromosome that the policy simulator decodes and
    executes into exactly the enumerated outcome (deterministic mode,
    no grouping window)."""
    n = inst.n_jobs
    assign = list(sol.assign)
    key = [0.0] * n
    for mid, order in sol.orders.items():
        for pos, ji in enumerate(order):
            key[ji] = (pos + 1.0) / (len(order) + 1.0)
    return Chromosome(assign, key, (), zeta=sol.zeta, psi=0.0, thr_r=0.95,
                      n_u=sol.n_u)


def test_enumerated_front_replays_exactly():
    for seed in (0, 1):
        inst = oracle_toy(seed, n_jobs=4)
        front = enumerate_pareto(inst, n_u_max=2)
        assert front
        pts = [s.objectives for s in front]
        for p in pts:
            assert not any(dominates(q, p) for q in pts)
        for sol in front:
            ch = solution_chromosome(inst, sol)
            tr = simulate(inst, decode(ch, inst), RngStream.from_seed(0),
                          SimConfig(mode=STATIC, det=True, prop2=False))
            assert tr.makespan == sol.objectives.makespan
            assert tr.maint_cost == sol.objectives.maint_cost
            assert check_feasibility(inst, tr) == []


def _piloted_chromosome(inst, master):
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    return random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 40), st.integers(0, 1000), st.integers(0, 1000),
       st.integers(0, 3), st.floats(0.05, 0.5))
def test_audit_accepts_online_runs_on_generated_instances(n_jobs, gen_seed,
                                                          seed, budget, thr_r):
    inst = generate_instance(n_jobs, gen_seed)
    master = RngStream.from_seed(seed)
    ch = _piloted_chromosome(inst, master)
    ch.thr_r = thr_r
    tr = simulate(inst, decode(ch, inst), master.substream(NS_ONLINE, 0),
                  SimConfig(mode=ONLINE, rescheduler=make_rescheduler(budget)))
    assert check_feasibility(inst, tr) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 40), st.integers(0, 1000), st.integers(0, 1000),
       st.one_of(st.just(0.0), st.floats(0.01, 0.12)), st.floats(0.1, 0.9),
       st.sampled_from(["table", "alternate"]), st.booleans(), st.booleans())
def test_audit_accepts_static_runs_of_loaded_instances(
        n_jobs, gen_seed, seed, sigma_q, type_mix, coeff_set, det, prop2):
    text = dump_instance(generate_instance(n_jobs, gen_seed, sigma_q,
                                           coeff_set, type_mix))
    inst = require_valid(parse_instance(text))
    master = RngStream.from_seed(seed)
    ch = _piloted_chromosome(inst, master)
    tr = simulate(inst, decode(ch, inst), master.substream(NS_LABEL, 0),
                  SimConfig(mode=STATIC, det=det, prop2=prop2))
    assert check_feasibility(inst, tr) == []
