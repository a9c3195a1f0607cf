import pytest

from reworkopt import improver
from reworkopt.encoding import (Chromosome, GeneBounds, decode,
                                random_chromosome)
from reworkopt.improver import (deviation, ji_insert, js_swap,
                                make_rescheduler, right_shift_rescheduler)
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, Job, MachineParams, ObjectivePair,
                             ProblemInstance, QualitySpec)
from reworkopt.oracle import check_feasibility
from reworkopt.orchestrator import allocate_budget
from reworkopt.rng import NS_INIT, NS_ONLINE, RngStream
from reworkopt.simulate import (ONLINE, STATIC, JobEvent, ScheduleTrace,
                                SimConfig, idle_space_count, simulate)


def test_insert_helper_copies_and_places():
    seq = [1, 2, 3]
    assert ji_insert(seq, 9, 0) == [9, 1, 2, 3]
    assert ji_insert(seq, 9, 2) == [1, 2, 9, 3]
    assert ji_insert(seq, 9, 3) == [1, 2, 3, 9]
    assert seq == [1, 2, 3]
    with pytest.raises(IndexError):
        ji_insert(seq, 9, -1)
    with pytest.raises(IndexError):
        ji_insert(seq, 9, 4)


def test_swap_helper_is_an_involution():
    seq = ["a", "b", "c", "d"]
    once = js_swap(seq, 0, 3)
    assert once == ["d", "b", "c", "a"]
    assert js_swap(once, 0, 3) == seq
    assert js_swap(seq, 1, 1) == seq
    assert seq == ["a", "b", "c", "d"]
    with pytest.raises(IndexError):
        js_swap(seq, 0, 4)
    with pytest.raises(IndexError):
        js_swap(seq, -1, 2)


def _flat(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=0.0, sigma_minus=0.0,
                mu_plus=0.0, sigma_plus=0.0, alpha=0.0, beta=0.02,
                ups0=10.0, a=0.0, b0=0.0, gamma=0.0,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


_GOOD = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)
_BAD = QualitySpec(9.0, 0.5, 9.0, 0.0, 8.5, 9.5)


def _inst(jobs, machines):
    return ProblemInstance(jobs, machines, {0: _GOOD, 1: _BAD},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))


def _jev(slot, machine, start, dur, origin=None):
    return JobEvent(eid=slot, job_id=slot, origin=origin, type=0,
                    machine_id=machine, slot=slot if origin is None else -1,
                    start=start, duration=dur, d=10.0, qualified=True,
                    upsilon=10.0, eps=0.0, du_minus=0.0, du_plus=0.0,
                    dv=0.0, w_before=0.0, w_after=0.0)


def _trace_of(events):
    return ScheduleTrace(ONLINE, False, events, [], [], [], {}, 0.0, 0.0, 0)


def _dev_fixture():
    jobs = [Job(0, 0, {0: 4.0, 1: 6.0}), Job(1, 0, {0: 4.0, 1: 6.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    plan = decode(Chromosome([0, 0], [0.1, 0.2], ()), inst)
    return inst, plan


def test_drift_of_exact_replay_is_one():
    inst, plan = _dev_fixture()
    tr = _trace_of([_jev(0, 0, 0.0, 4.0), _jev(1, 0, 4.0, 4.0)])
    assert deviation(plan, tr, inst) == 1.0


def test_drift_counts_start_delays_against_planned_work():
    inst, plan = _dev_fixture()
    tr = _trace_of([_jev(0, 0, 0.0, 4.0), _jev(1, 0, 4.8, 4.0)])
    assert deviation(plan, tr, inst) == pytest.approx(1.1, abs=1e-9)


def test_drift_counts_machine_reassignments():
    inst, plan = _dev_fixture()
    tr = _trace_of([_jev(0, 0, 0.0, 4.0), _jev(1, 1, 4.0, 6.0)])
    assert deviation(plan, tr, inst) == pytest.approx(1.5, abs=1e-9)


def test_drift_components_add_up():
    inst, plan = _dev_fixture()
    tr = _trace_of([_jev(0, 0, 0.0, 4.0), _jev(1, 1, 5.6, 6.0)])
    assert deviation(plan, tr, inst) == pytest.approx(1.7, abs=1e-9)


def test_drift_ignores_rework_copies():
    inst, plan = _dev_fixture()
    tr = _trace_of([_jev(0, 0, 0.0, 4.0), _jev(1, 0, 4.0, 4.0),
                    _jev(9, 1, 2.0, 4.0, origin=0)])
    assert deviation(plan, tr, inst) == 1.0


def test_drift_with_no_original_events_floors_at_one():
    inst, plan = _dev_fixture()
    assert deviation(plan, _trace_of([]), inst) == 1.0


def test_tail_append_keeps_pending_order():
    # same layout as the idle-reservation case, but the baseline policy
    # leaves the reservation alone and queues the copy behind the
    # lighter pending load
    jobs = [Job(0, 1, {0: 1.0, 1: 1.0}),
            Job(1, 0, {1: 3.0}),
            Job(2, 0, {0: 1.0}),
            Job(3, 0, {1: 3.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = Chromosome([0, 1, 0, 1, 1], [0.1, 0.1, 0.2, 0.3, 0.2],
                    (1,), thr_r=0.5, n_u=0)
    tr = simulate(inst, decode(ch, inst), RngStream.from_seed(0),
                  SimConfig(mode=ONLINE, prop2=False,
                            rescheduler=right_shift_rescheduler()))
    rerun = [ev for ev in tr.job_events if ev.origin == 0]
    assert len(rerun) == 1
    assert rerun[0].machine_id == 0
    assert rerun[0].start == 2.0
    job3 = next(ev for ev in tr.job_events if ev.job_id == 3)
    assert job3.start == 3.0


def test_hill_climb_never_scores_below_the_append_baseline():
    inst = toy_instance(12, seed=3)
    hits = 0
    for seed in range(36):
        ch = random_chromosome(inst, (0, 1),
                               RngStream.from_seed(1000 + seed))
        ch.thr_r = 0.2
        base_cfg = dict(mode=ONLINE, prop2=False)
        improved = simulate(inst, decode(ch, inst), RngStream.from_seed(seed),
                            SimConfig(rescheduler=make_rescheduler(8), **base_cfg))
        shifted = simulate(inst, decode(ch, inst), RngStream.from_seed(seed),
                           SimConfig(rescheduler=right_shift_rescheduler(),
                                     **base_cfg))
        if not improved.resched_points:
            continue
        hits += 1
        # identical prefixes: the first trigger sees the same context
        a = improved.resched_points[0]
        b = shifted.resched_points[0]
        assert a.time == b.time
        assert a.f_r is not None and b.f_r is not None
        assert a.f_r >= b.f_r - 1e-12
    assert hits >= 10


def test_rescheduler_accounts_every_projection(monkeypatch):
    jobs = [Job(0, 1, {0: 1.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0], [0.5], (), thr_r=0.5, n_u=0)
    counter = [0]
    projected = []
    real = improver.simulate_suffix
    monkeypatch.setattr(improver, "simulate_suffix",
                        lambda *a: projected.append(1) or real(*a))
    tr = simulate(inst, decode(ch, inst), RngStream.from_seed(0),
                  SimConfig(mode=ONLINE, prop2=False,
                            rescheduler=make_rescheduler(6, counter)))
    assert len(tr.resched_points) == 1
    # two baselines plus one evaluation per hill-climb step
    assert counter[0] == 8
    # one machine and one copy: every candidate is the same suffix plan,
    # projected once and looked up for the other seven evaluations
    assert len(projected) == 1


def test_rework_copies_never_start_before_their_trigger():
    # a machine that ran out of work keeps its frontier below the
    # trigger time; a copy the improver pulls there must still wait for
    # the trigger, which is when its original turned out nonconforming
    inst = generate_instance(200, 1)
    master = RngStream.from_seed(1)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    crng = master.substream(NS_INIT, 1)
    for _ in range(2):
        ch = random_chromosome(inst, idle_types, crng, GeneBounds())
    ch.thr_r, ch.zeta, ch.psi, ch.n_u = 0.2, 0.6, 0.5, 2
    budget = allocate_budget(20, 4).rounds[-1][1]
    tr = simulate(inst, decode(ch, inst), master.substream(NS_ONLINE, 0, 1),
                  SimConfig(mode=ONLINE, rescheduler=make_rescheduler(budget)))
    copy = next(ev for ev in tr.job_events if ev.job_id == 549)
    assert copy.origin == 73
    assert check_feasibility(inst, tr) == []
    # copies get entity ids in trigger order, after the plan's slots
    trigger_of = {}
    eid = ch.n_slots
    for pt in tr.resched_points:
        for _ in range(pt.n_copies):
            trigger_of[eid] = pt.time
            eid += 1
    copies = [ev for ev in tr.job_events if ev.origin is not None]
    assert copies
    for ev in copies:
        assert ev.start >= trigger_of[ev.eid]
