import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ReferenceSim, reference_simulate

from reworkopt import _kernel
from reworkopt.encoding import Chromosome, decode, random_chromosome
from reworkopt.improver import make_rescheduler
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, Job, MachineParams, ObjectivePair,
                             ProblemInstance, QualitySpec)
from reworkopt.rng import RngStream
from reworkopt.simulate import (ONLINE, STATIC, SUFFIX, ScheduleTrace,
                                SimConfig, _Sim, append_copies,
                                fill_idle_slots, fitness_eval, fitness_resched,
                                fitness_static, idle_space_count, objectives,
                                simulate, simulate_suffix)

# A machine with every wear channel switched off: jobs run at nominal
# speed forever and quality collapses to ups0 against the type target.


def _flat(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=0.0, sigma_minus=0.0,
                mu_plus=0.0, sigma_plus=0.0, alpha=0.0, beta=0.02,
                ups0=10.0, a=0.0, b0=0.0, gamma=0.0,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


_GOOD = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)   # d = 10 conforms
_BAD = QualitySpec(9.0, 0.5, 9.0, 0.0, 8.5, 9.5)       # d = 10 misses


def _inst(jobs, machines, quality=None):
    return ProblemInstance(jobs, machines, quality or {0: _GOOD, 1: _BAD},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))


def _chrom(assign, key, idle_types=(), **genes):
    genes.setdefault("n_u", 0)
    return Chromosome(list(assign), list(key), tuple(idle_types), **genes)


def _run(inst, ch, mode=STATIC, seed=0, **cfg):
    plan = decode(ch, inst)
    return simulate(inst, plan, RngStream.from_seed(seed),
                    SimConfig(mode=mode, **cfg))


def _digest(trace):
    h = hashlib.sha1()
    for ev in trace.job_events:
        h.update(repr((ev.eid, ev.job_id, ev.machine_id, ev.start,
                       ev.duration, ev.d, ev.qualified, ev.w_after)).encode())
    for ev in trace.maint_events:
        h.update(repr((ev.kind, ev.machine_id, ev.time, ev.cost)).encode())
    return h.hexdigest()


def test_sequential_jobs_without_wear_finish_back_to_back():
    jobs = [Job(0, 0, {0: 2.0}), Job(1, 0, {0: 3.0})]
    tr = _run(_inst(jobs, [_flat()]), _chrom([0, 0], [0.1, 0.2]))
    assert [ev.start for ev in tr.job_events] == [0.0, 2.0]
    assert tr.makespan == 5.0
    assert tr.maint_cost == 0.0
    assert tr.q_count == 2
    assert objectives(tr) == ObjectivePair(5.0, 0.0)


def test_makespan_is_latest_completion_across_machines():
    jobs = [Job(0, 0, {0: 5.0}), Job(1, 0, {1: 9.0}), Job(2, 0, {2: 7.0})]
    machines = [_flat(id=0), _flat(id=1), _flat(id=2)]
    tr = _run(_inst(jobs, machines), _chrom([0, 1, 2], [0.5, 0.5, 0.5]))
    assert sorted(ev.completion for ev in tr.job_events) == [5.0, 7.0, 9.0]
    assert objectives(tr) == ObjectivePair(9.0, 0.0)


def test_failure_repair_fires_at_the_completion_that_crossed():
    # one job whose ineligible input pushes wear past the threshold:
    # the repair is logged at the job's completion and the machine is
    # reset, but the makespan only counts the job itself
    spec = QualitySpec(10.0, 0.08, 10.2, 0.0, 9.0, 11.0)
    m = _flat(w0=0.34, cap=0.35, mu_minus=0.5, t_cm=44.75, c_cm=1312.0)
    inst = _inst([Job(0, 0, {0: 2.0})], [m], {0: spec})
    tr = _run(inst, _chrom([0], [0.5]))
    ev = tr.job_events[0]
    assert ev.du_minus == pytest.approx(0.1)
    assert ev.w_after > m.cap
    assert len(tr.maint_events) == 1
    cm = tr.maint_events[0]
    assert cm.kind == "cm"
    assert cm.time == ev.completion == 2.0
    assert cm.duration == 44.75
    assert cm.cost == 1312.0
    assert cm.w_after == m.w0
    assert tr.makespan == 2.0
    assert tr.maint_cost == 1312.0
    assert tr.final_states[0].ready == pytest.approx(46.75)


def test_repair_cost_scales_with_machine_rate():
    spec = QualitySpec(10.0, 0.08, 10.2, 0.0, 9.0, 11.0)
    m = _flat(w0=0.34, cap=0.35, mu_minus=0.5, t_cm=5.0, c_cm=876.0)
    tr = _run(_inst([Job(0, 0, {0: 2.0})], [m], {0: spec}), _chrom([0], [0.5]))
    assert objectives(tr) == ObjectivePair(2.0, 876.0)


def test_threshold_pm_runs_before_the_start_that_found_it():
    m = _flat(w0=0.2, cap=0.4, t_pm=2.0, t_ps=0.0, c_pm=195.0, c_ps=0.0)
    inst = _inst([Job(0, 0, {0: 3.0})], [m])
    ch = _chrom([0], [0.5], zeta=0.4, psi=0.0, n_u=1)
    tr = _run(inst, ch, prop2=False)
    assert len(tr.maint_events) == 1
    pm = tr.maint_events[0]
    assert pm.kind == "pm"
    assert pm.time == 0.0
    assert pm.duration == 2.0
    assert pm.cost == 195.0
    assert pm.group is not None
    assert pm.n_pm_after == 1
    assert pm.w_after == pytest.approx(0.2 * 0.2 + 0.08 * 0)
    assert tr.job_events[0].start == 2.0
    assert objectives(tr) == ObjectivePair(5.0, 195.0)


def _trigger_inst(types, nominals=None):
    jobs = [Job(i, t, dict(nominals[i]) if nominals else {0: 1.0})
            for i, t in enumerate(types)]
    return _inst(jobs, [_flat()])


def test_rework_trigger_rate_crosses_at_fourth_completion():
    # conforming, conforming, nonconforming, nonconforming: the running
    # nonconformance rate goes 0/1, 0/2, 1/3 and first reaches the 0.5
    # threshold (inclusive) at the fourth completion
    inst = _trigger_inst([0, 0, 1, 1])
    ch = _chrom([0] * 4, [0.1, 0.2, 0.3, 0.4], thr_r=0.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert len(tr.resched_points) == 1
    pt = tr.resched_points[0]
    assert pt.time == 4.0
    assert pt.window_total == 4
    assert pt.window_nonconforming == 2
    assert pt.n_copies == 2
    # both copies rerun and fail again, but copies never spawn copies
    assert tr.makespan == 6.0
    reruns = [ev for ev in tr.job_events if ev.origin is not None]
    assert sorted(ev.origin for ev in reruns) == [2, 3]
    assert all(not ev.qualified for ev in reruns)


def test_rework_trigger_fires_at_earliest_crossing():
    inst = _trigger_inst([0, 1, 0, 1])
    ch = _chrom([0] * 4, [0.1, 0.2, 0.3, 0.4], thr_r=0.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert [p.time for p in tr.resched_points] == [2.0, 4.0]
    first = tr.resched_points[0]
    assert (first.window_total, first.window_nonconforming) == (2, 1)
    assert first.n_copies == 1


def test_trigger_needs_a_copyable_original_in_window():
    # a lone nonconforming job whose copy also fails: the second failure
    # pushes the rate to 1/1 again but no original is left to copy
    inst = _trigger_inst([1])
    ch = _chrom([0], [0.5], thr_r=0.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert len(tr.resched_points) == 1
    assert len(tr.job_events) == 2
    assert tr.job_events[1].origin == 0


def test_high_threshold_never_triggers():
    inst = _trigger_inst([1, 1, 1, 1])
    ch = _chrom([0] * 4, [0.1, 0.2, 0.3, 0.4], thr_r=1.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert tr.resched_points == []
    assert len(tr.job_events) == 4


def test_copy_fills_a_pending_idle_slot_of_matching_type():
    jobs = [Job(0, 1, {0: 1.0, 1: 1.0}),   # fails at t=1, triggers
            Job(1, 0, {1: 3.0}),
            Job(2, 0, {0: 1.0}),
            Job(3, 0, {1: 3.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = _chrom([0, 1, 0, 1, 1], [0.1, 0.1, 0.2, 0.3, 0.2],
                idle_types=(1,), thr_r=0.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert [p.time for p in tr.resched_points] == [1.0]
    rerun = [ev for ev in tr.job_events if ev.origin == 0]
    assert len(rerun) == 1
    # the copy takes the reserved space on machine 1 ahead of job 3
    assert rerun[0].machine_id == 1
    assert rerun[0].start == 3.0
    job3 = next(ev for ev in tr.job_events if ev.job_id == 3)
    assert job3.start == 4.0
    assert tr.idle_events == []


def test_static_mode_executes_idle_slots_as_reservations():
    jobs = [Job(0, 0, {0: 2.0}), Job(1, 0, {0: 2.0})]
    inst = _inst(jobs, [_flat()])
    ch = _chrom([0, 0, 0], [0.1, 0.2, 0.15], idle_types=(0,))
    tr = _run(inst, ch, mode=STATIC)
    assert len(tr.idle_events) == 1
    idle = tr.idle_events[0]
    assert idle.start == 2.0
    assert idle.duration == 2.0          # nominal mean of the type
    assert tr.job_events[1].start == 4.0
    # online mode skips the unfilled reservation entirely
    tr2 = _run(inst, ch, mode=ONLINE, prop2=False)
    assert tr2.idle_events == []
    assert tr2.job_events[1].start == 2.0


def test_wear_trace_is_continuous_and_grows_during_work():
    inst = toy_instance(10, seed=2)
    ch = random_chromosome(inst, (0, 1), RngStream.from_seed(7))
    tr = _run(inst, ch, mode=STATIC, seed=11)
    grew = False
    for mid in tr.final_states:
        chain = [(ev.start, 1, ev.w_before, ev.w_after)
                 for ev in tr.job_events if ev.machine_id == mid]
        chain += [(ev.start, 1, ev.w_before, ev.w_after)
                  for ev in tr.idle_events if ev.machine_id == mid]
        chain += [(ev.time, 0, ev.w_before, ev.w_after)
                  for ev in tr.maint_events if ev.machine_id == mid]
        chain.sort(key=lambda row: row[:2])
        assert chain[0][2] == inst.machine(mid).w0
        for (_, kind, before, after), nxt in zip(chain, chain[1:]):
            assert nxt[2] == after
            if kind == 1:
                assert after >= before
                grew = grew or after > before
        assert tr.final_states[mid].w == chain[-1][3]
    assert grew


def test_simulation_is_reproducible_per_seed():
    inst = toy_instance(12, seed=4)
    ch = random_chromosome(inst, (0, 1), RngStream.from_seed(1))
    a = _digest(_run(inst, ch, mode=STATIC, seed=5))
    b = _digest(_run(inst, ch, mode=STATIC, seed=5))
    c = _digest(_run(inst, ch, mode=STATIC, seed=6))
    assert a == b
    assert a != c


def test_idle_reservation_counts_round_up_per_capable_machine():
    bad_jobs = [Job(i, 1, {0: 1.0, 1: 1.0, 2: 1.0}) for i in range(6)]
    ok_jobs = [Job(6, 0, {0: 1.0, 1: 1.0, 2: 1.0}), Job(7, 0, {0: 1.0, 1: 1.0, 2: 1.0})]
    inst = _inst(bad_jobs + ok_jobs, [_flat(id=0), _flat(id=1), _flat(id=2)])
    counts = idle_space_count(inst, RngStream.from_seed(0))
    assert counts == {0: 0, 1: 2}


def test_idle_reservation_counts_with_two_capable_machines():
    jobs = [Job(i, 1, {0: 1.0, 1: 1.0}) for i in range(5)]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    assert idle_space_count(inst, RngStream.from_seed(0)) == {1: 3}


def test_no_nonconformance_means_no_reservations():
    jobs = [Job(i, 0, {0: 1.0}) for i in range(4)]
    inst = _inst(jobs, [_flat()])
    assert idle_space_count(inst, RngStream.from_seed(0)) == {0: 0}


def _trace(makespan, cost, q):
    return ScheduleTrace(STATIC, False, [], [], [], [], {}, makespan, cost, q)


def test_planning_fitness_golden():
    assert fitness_static(_trace(10.0, 20.0, 2)) == pytest.approx(0.02, abs=1e-9)
    assert fitness_static(_trace(10.0, 0.5, 3)) == pytest.approx(0.9, abs=1e-9)
    assert fitness_static(_trace(0.0, 5.0, 1)) == 0.0


def test_resched_fitness_golden():
    assert fitness_resched(1, 0.0, 100.0) == pytest.approx(0.01, abs=1e-9)
    assert fitness_resched(4, 8.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert fitness_resched(3, 5.0, 0.0) == 0.0


def test_execution_fitness_golden():
    assert fitness_eval(_trace(25.0, 100.0, 5), 2.0) == pytest.approx(2e-4, abs=1e-9)
    assert fitness_eval(_trace(0.0, 1.0, 0), 1.0) == 0.0


def _suffix_sim(ctx, queues, summary, sim_cls=_Sim):
    """A SUFFIX run of queues from a trigger's snapshot, with or without
    per-event records."""
    sim = sim_cls(ctx.inst, queues,
                  {mid: s.copy() for mid, s in ctx.states.items()}, ctx.chrom,
                  ctx.rng, SimConfig(mode=SUFFIX, det=ctx.det, prop2=ctx.prop2,
                                     summary=summary))
    sim.run()
    return sim


def _fill(ctx):
    return fill_idle_slots(ctx), None


def _assert_summary_runs_match(inst, ch, seed, det, prop2):
    """Every run must equal the reference loop's, which steps every
    event in global time order: the full run event for event, and a
    summary run, which builds no events, on every result, the
    maintenance list and the final machine states.  So must the online
    run of the plan, and full and summary suffix projections from every
    trigger of it."""
    plan = decode(ch, inst)
    root = RngStream.from_seed(seed)
    full = simulate(inst, plan, root, SimConfig(det=det, prop2=prop2))
    assert full == reference_simulate(inst, plan, root,
                                      SimConfig(det=det, prop2=prop2))
    lean = simulate(inst, plan, root,
                    SimConfig(det=det, prop2=prop2, summary=True))
    assert (lean.makespan, lean.maint_cost, lean.q_count) == \
        (full.makespan, full.maint_cost, full.q_count)
    assert lean.maint_events == full.maint_events
    assert lean.final_states == full.final_states
    assert lean.job_events == [] and lean.idle_events == []
    ctxs = []

    def hook(ctx):
        ctxs.append(ctx)
        return _fill(ctx)

    online = SimConfig(mode=ONLINE, det=det, prop2=prop2, rescheduler=hook)
    assert simulate(inst, plan, root.substream(1), online) == \
        reference_simulate(inst, plan, root.substream(1),
                           SimConfig(mode=ONLINE, det=det, prop2=prop2,
                                     rescheduler=_fill))
    for ctx in ctxs:
        for queues in (fill_idle_slots(ctx), append_copies(ctx)):
            ref = _suffix_sim(ctx, queues, False, ReferenceSim)
            full = _suffix_sim(ctx, queues, False)
            lean = _suffix_sim(ctx, queues, True)
            assert full.trace() == ref.trace()
            assert lean.maint_events == ref.maint_events
            assert lean.states == ref.states
            span, cost = ref.objectives(ctx.trigger_time)
            assert simulate_suffix(ctx, queues, ctx.rng) == (
                span - ctx.trigger_time, cost, ref.q_count)


def _generated(n_jobs, inst_seed, seed, idle, zeta, n_u, psi, thr_r):
    """A generated four-machine instance and a random plan for it, with
    the given policy genes."""
    inst = generate_instance(n_jobs, inst_seed)
    ch = random_chromosome(inst, (0, 1) if idle else (),
                           RngStream.from_seed(seed))
    ch.zeta, ch.n_u, ch.psi, ch.thr_r = zeta, n_u, psi, thr_r
    return inst, ch


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(0, 30), st.integers(0, 10_000),
       st.lists(st.sampled_from([0, 1]), max_size=3), st.booleans(),
       st.booleans())
def test_summary_only_run_matches_the_full_trace(n_jobs, inst_seed, seed,
                                                 idle_types, det, prop2):
    inst = toy_instance(n_jobs, seed=inst_seed)
    idle_types = tuple(t for t in idle_types if t in inst.job_types())
    ch = random_chromosome(inst, idle_types, RngStream.from_seed(seed))
    _assert_summary_runs_match(inst, ch, seed + 1, det, prop2)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 36), st.integers(0, 30), st.integers(0, 10_000),
       st.booleans(), st.floats(0.05, 0.95), st.integers(0, 4),
       st.floats(0.0, 2.0), st.floats(0.1, 0.6), st.booleans(),
       st.booleans())
def test_summary_runs_of_generated_instances_match_the_full_trace(
        n_jobs, inst_seed, seed, idle, zeta, n_u, psi, thr_r, det, prop2):
    inst, ch = _generated(n_jobs, inst_seed, seed, idle, zeta, n_u, psi, thr_r)
    _assert_summary_runs_match(inst, ch, seed + 1, det, prop2)


def _assert_online_run_matches(inst, ch, seed, det, prop2, improve):
    """An ONLINE run, one kernel call per event, equals the reference
    loop's: job, idle and maintenance events, reschedule points, final
    states and the qualified count.  Returns the trace."""
    cfg = SimConfig(mode=ONLINE, det=det, prop2=prop2,
                    rescheduler=make_rescheduler(2) if improve else _fill)
    root = RngStream.from_seed(seed)
    got = simulate(inst, decode(ch, inst), root, cfg)
    assert got == reference_simulate(inst, decode(ch, inst), root, cfg)
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 36), st.integers(0, 30), st.integers(0, 10_000),
       st.booleans(), st.floats(0.05, 0.95), st.integers(0, 4),
       st.floats(0.0, 2.0), st.floats(0.02, 0.6), st.booleans(),
       st.booleans(), st.booleans())
def test_online_runs_match_the_reference_loop(
        n_jobs, inst_seed, seed, idle, zeta, n_u, psi, thr_r, det, prop2,
        improve):
    inst, ch = _generated(n_jobs, inst_seed, seed, idle, zeta, n_u, psi, thr_r)
    _assert_online_run_matches(inst, ch, seed + 1, det, prop2, improve)


def test_the_online_corpus_reaches_every_step_kind():
    """The cases above trigger rework under both placements, repair,
    group and screen, and skip unfilled placeholders."""
    seen = set()
    r = RngStream.from_seed(77)
    for k in range(40):
        inst, ch = _generated(
            4 + r.randrange(33), k, k, True, 0.05 + 0.9 * r.uniform(),
            r.randrange(5), 2.0 * r.uniform(), 0.02 + 0.6 * r.uniform())
        improve = k % 2 == 1
        tr = _assert_online_run_matches(inst, ch, k + 1, k % 3 == 0,
                                        k % 4 != 0, improve)
        if tr.resched_points:
            seen.add("improver" if improve else "fill")
        seen |= {ev.kind for ev in tr.maint_events}
        gids = [ev.group for ev in tr.maint_events if ev.kind == "pm"]
        if len(set(gids)) < len(gids):
            seen.add("group")
        if any(st.suspended for st in tr.final_states.values()):
            seen.add("screened")
        # more placeholders than copies: some stayed unfilled
        if sum(p.n_copies for p in tr.resched_points) < len(ch.idle_types):
            seen.add("skipped")
    assert seen >= {"improver", "fill", "cm", "pm", "group", "screened",
                    "skipped"}


def test_an_online_repair_lets_earlier_starts_go_first():
    """Machine 0's second preventive action in a row (theta = 1) leaves
    it past its threshold with no action left (n_u = 2), so it is
    repaired from 4 to 8 before its last job.  Machine 1's jobs at 5, 6
    and 7 start first: the ONLINE run repairs before it steps, as the
    reference loop does."""
    jobs = [Job(i, 0, {0: 1.0}) for i in range(3)] + [Job(3, 0, {1: 5.0})] + [
        Job(i, 0, {1: 1.0}) for i in range(4, 7)]
    m = dict(w0=0.1, cap=1.0, t_pm=0.5, t_ps=0.5)
    inst = ProblemInstance(jobs, [_flat(id=0, mu_plus=0.1, **m),
                                  _flat(id=1, **m)],
                           {0: _GOOD}, GlobalParams(0.0, 1.0, 0.8, 0.0))
    ch = _chrom([0] * 3 + [1] * 4, [0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.4],
                zeta=0.29, psi=0.0, n_u=2, thr_r=1.5)
    tr = _run(inst, ch, mode=ONLINE, prop2=False)
    assert [(ev.kind, ev.time) for ev in tr.maint_events] == [
        ("pm", 2.0), ("pm", 3.0), ("cm", 4.0)]
    assert [(ev.machine_id, ev.start) for ev in tr.job_events] == [
        (0, 0.0), (1, 0.0), (0, 1.0), (1, 5.0), (1, 6.0), (1, 7.0),
        (0, 8.0)]
    assert tr == reference_simulate(inst, decode(ch, inst),
                                    RngStream.from_seed(0),
                                    SimConfig(mode=ONLINE, prop2=False))


def _untouched_candidate_case():
    """Machine 0 falls due at t = 2, while machine 1 is in its long
    second job (1 to 5): machine 1 is a grouping candidate there, but
    falls due only at 5, past the merge window, so machine 0's action
    leaves it as it was."""
    jobs = [Job(i, 0, {0: 1.0}) for i in range(4)] + [
        Job(4, 0, {1: 1.0}), Job(5, 0, {1: 4.0}), Job(6, 0, {1: 1.0})]
    m = dict(w0=0.1, cap=1.0, mu_plus=0.1)
    inst = _inst(jobs, [_flat(id=0, **m), _flat(id=1, **m)])
    ch = _chrom([0] * 4 + [1] * 3, [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3],
                zeta=0.29, psi=0.5, n_u=1)
    return inst, ch


def test_a_due_step_reruns_only_the_machines_it_changed(monkeypatch):
    inst, ch = _untouched_candidate_case()
    runs, dues = [], []
    run_machine, take_due = _kernel.run_machine, _Sim._take_due

    def spied_run_machine(*args):
        runs.append(args[2])
        return run_machine(*args)

    def spied_take_due(self, mid, t, cands):
        dues.append((mid, t, list(cands)))
        return take_due(self, mid, t, cands)

    monkeypatch.setattr(_kernel, "run_machine", spied_run_machine)
    monkeypatch.setattr(_Sim, "_take_due", spied_take_due)
    tr = _run(inst, ch, det=True, prop2=False)
    monkeypatch.undo()
    assert dues == [(0, 2.0, [1]), (1, 5.0, [])]
    # each machine runs from the start and on from its own due step;
    # machine 0's action does not run the candidate again
    assert runs == [0, 1, 0, 1]
    assert [(ev.kind, ev.machine_id, ev.time) for ev in tr.maint_events] == [
        ("pm", 0, 2.0), ("pm", 1, 5.0)]
    assert tr == reference_simulate(inst, decode(ch, inst),
                                    RngStream.from_seed(0),
                                    SimConfig(det=True, prop2=False))


def _screened_candidate_case():
    """Two machines wear alike and fall due together at t = 2 and 6.5.
    The second time machine 0 has nine jobs left and keeps its action,
    while machine 1, a grouping candidate with one job left, gains
    nothing from it and is suspended by the screen."""
    jobs = [Job(i, 0, {0: 1.0, 1: 1.0}) for i in range(20)]
    m = dict(w0=0.1, cap=1.0, mu_plus=0.1)
    inst = _inst(jobs, [_flat(id=0, **m), _flat(id=1, **m)])
    ch = _chrom([0] * 14 + [1] * 6, [i / 20 for i in range(20)],
                zeta=0.29, psi=1.0, n_u=2)
    return inst, ch


def _overworn_candidate_case():
    """Machine 0 falls due at t = 2, and its second action in a row
    (theta = 1) leaves it past its failure threshold, still due, with
    its repair waiting for t = 4.  Machine 1 falls due at 3.9 and groups
    it into one more preventive action before the repair can run."""
    jobs = [Job(i, 0, {0: 1.0}) for i in range(3)] + [
        Job(3, 0, {1: 3.2}), Job(4, 0, {1: 0.7}), Job(5, 0, {1: 1.0})]
    m = dict(w0=0.1, cap=1.0, t_pm=0.5, t_ps=0.5)
    inst = ProblemInstance(jobs, [_flat(id=0, mu_plus=0.1, **m),
                                  _flat(id=1, mu_plus=0.05, **m)],
                           {0: _GOOD}, GlobalParams(0.0, 1.0, 0.8, 0.0))
    ch = _chrom([0, 0, 0, 1, 1, 1], [0.1, 0.2, 0.3, 0.1, 0.2, 0.3],
                zeta=0.29, psi=1.0, n_u=3)
    return inst, ch


def test_a_machine_past_its_threshold_can_still_join_a_group():
    inst, ch = _overworn_candidate_case()
    tr = _run(inst, ch, det=True, prop2=False)
    joint = [ev for ev in tr.maint_events if ev.group == 2]
    assert [(ev.machine_id, ev.kind) for ev in joint] == [(1, "pm"), (0, "pm")]
    assert joint[1].w_before > inst.machine(0).cap
    _assert_summary_runs_match(inst, ch, 0, True, False)


def test_the_summary_corpus_reaches_every_machine_interaction(monkeypatch):
    """Per-machine stepping is only sound if the due steps see the other
    machines as the global loop does.  The corpus must reach joint
    actions of several machines, screens that suspend the due machine
    itself, and screens that suspend a grouping candidate."""
    seen = {"groups": 0, "own": 0, "candidate": 0}
    try_pm, suspend = _Sim._try_pm, _Sim._suspend_if_unprofitable

    def watched_try_pm(self, mid, t, cands):
        self.due_mid = mid
        n = len(self.maint_events)
        done = try_pm(self, mid, t, cands)
        gids = [ev.group for ev in self.maint_events[n:]]
        if self.cfg.summary and len(set(gids)) < len(gids):
            seen["groups"] += 1
        return done

    def watched_suspend(self, mid):
        out = suspend(self, mid)
        if out and self.cfg.summary:
            seen["own" if mid == self.due_mid else "candidate"] += 1
        return out

    monkeypatch.setattr(_Sim, "_try_pm", watched_try_pm)
    monkeypatch.setattr(_Sim, "_suspend_if_unprofitable", watched_suspend)
    _assert_summary_runs_match(*_screened_candidate_case(), 0, True, True)
    assert seen["candidate"] == 1
    r = RngStream.from_seed(2024)
    for k in range(60):
        inst, ch = _generated(
            4 + r.randrange(33), k, k, r.uniform() < 0.5,
            0.05 + 0.9 * r.uniform(), r.randrange(5), 2.0 * r.uniform(),
            0.1 + 0.5 * r.uniform())
        _assert_summary_runs_match(inst, ch, k + 1, r.uniform() < 0.3,
                                   r.uniform() < 0.7)
    assert seen["groups"] > 0 and seen["own"] > 0
