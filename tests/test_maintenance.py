"""Maintenance policy unit tests: imperfect restoration, thresholds,
grouping and the payoff screen."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reworkopt.encoding import Chromosome, decode
from reworkopt.instances import base_machines, toy_instance
from reworkopt.maintenance import (MachineState, cm_required,
                                   corrective_maintenance, imperfect_pm,
                                   pm_due, pm_suspension_check)
from reworkopt.model import GlobalParams, Job, ProblemInstance, QualitySpec
from reworkopt.rng import RngStream
from reworkopt.simulate import SimConfig, _Sim, prepare

BENCH = {m.id: m for m in base_machines("alternate")}


def test_imperfect_pm_goldens():
    assert abs(imperfect_pm(0.3, 0, 0.2, 0.08) - 0.06) < 1e-9
    assert abs(imperfect_pm(0.3, 3, 0.2, 0.08) - 0.30) < 1e-9


def test_imperfect_pm_keeps_residual_wear():
    # restoration is never full: theta > 0 keeps a fraction
    assert imperfect_pm(0.5, 0, 0.2, 0.08) > 0.0


def test_cm_threshold_is_strict():
    assert not cm_required(0.35, 0.35)
    assert cm_required(0.3500001, 0.35)
    assert not cm_required(0.1, 0.35)


def test_pm_due_ratio():
    m = BENCH[0]                      # failure threshold 0.35
    st_ = MachineState(0, 0.29)
    assert pm_due(st_, 0.8, 2, m)     # 0.29/0.35 ~ 0.829 over 0.8
    st_.w = 0.27
    assert not pm_due(st_, 0.8, 2, m)


def test_pm_due_blocked_by_suspension_and_cap():
    m = BENCH[0]
    st_ = MachineState(0, 0.34, suspended=True)
    assert not pm_due(st_, 0.5, 2, m)
    st_ = MachineState(0, 0.34, n_pm=2)
    assert not pm_due(st_, 0.5, 2, m)
    assert not pm_due(MachineState(0, 0.34), 0.5, 0, m)


def test_corrective_reset():
    m = BENCH[1]
    st_ = MachineState(1, 0.9, n_pm=3, suspended=True,
                       cyc_jobs=5, cyc_busy=12.0, cyc_cost=200.0)
    corrective_maintenance(st_, m)
    assert st_.w == m.w0
    assert st_.n_pm == 0
    assert not st_.suspended
    assert (st_.cyc_jobs, st_.cyc_busy, st_.cyc_cost) == (0, 0.0, 0.0)


def test_state_copy_keeps_every_field_and_shares_nothing():
    # suffix projections run on copies: a field the copy dropped would
    # be reset in every projection
    st_ = MachineState(**{f.name: k + 1 for k, f in enumerate(fields(MachineState))})
    cp = st_.copy()
    assert cp == st_ and cp is not st_
    cp.w = -1.0
    assert st_.w == 2


def _due_at(machines, ready, psi):
    """A STATIC run paused where each machine of ready (id: ready time)
    has one job left and is due for a preventive action, its wear at its
    failure threshold."""
    mids = list(ready)
    inst = ProblemInstance([Job(k, 0, {m: 1.0}) for k, m in enumerate(mids)],
                           [machines[m] for m in mids],
                           {0: QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)},
                           GlobalParams(0.0, 0.2, 0.08))
    ch = Chromosome(mids, [0.5] * len(mids), (), zeta=0.5, psi=psi, n_u=1)
    states = {m: MachineState(m, machines[m].cap, ready=t)
              for m, t in ready.items()}
    return _Sim(inst, prepare(inst, decode(ch, inst)).rows, states, ch,
                RngStream.from_seed(0), SimConfig(prop2=False))


def _joint_action(sim, t):
    """Machine 0's due preventive action at t, every other machine a
    possible partner: the machines it changed and the events it logged."""
    changed = sim._try_pm(0, t, list(sim.queues))
    return changed, sim.maint_events


def test_single_machine_group_duration_and_cost():
    changed, (ev,) = _joint_action(_due_at(BENCH, {0: 100.0}, 0.5), 100.0)
    assert changed == [0]
    assert (ev.kind, ev.machine_id, ev.group) == ("pm", 0, 0)
    assert abs(ev.duration - 25.14) < 1e-9     # action 12.54 plus setup 12.6
    assert abs(ev.cost - 430.0) < 1e-9
    assert ev.time == 100.0


def test_zero_window_never_merges():
    sim = _due_at(BENCH, {0: 10.0, 1: 10.4}, 0.0)
    changed, events = _joint_action(sim, 10.0)
    assert changed == [0] and [ev.machine_id for ev in events] == [0]
    assert sim.states[1].n_pm == 0


def test_window_merges_and_splits_setup_cost():
    toy = {m.id: m for m in toy_instance().machines}
    # toy setup costs are nonzero, so the shared-setup split is visible
    changed, events = _joint_action(_due_at(toy, {0: 10.0, 1: 10.2}, 1.0),
                                    10.0)
    assert changed == [0, 1]
    assert [ev.machine_id for ev in events] == [0, 1]
    assert {ev.group for ev in events} == {0}
    assert {ev.time for ev in events} == {10.2}     # members wait for the latest
    assert {ev.duration for ev in events} == {
        max(toy[0].t_pm_full, toy[1].t_pm_full)}
    assert events[0].cost == pytest.approx(toy[0].c_pm + toy[0].c_ps / 2)
    assert events[1].cost == pytest.approx(toy[1].c_pm + toy[1].c_ps / 2)


def test_far_apart_machines_stay_separate():
    changed, events = _joint_action(_due_at(BENCH, {0: 0.0, 1: 500.0}, 1.0),
                                    0.0)
    assert changed == [0] and [ev.machine_id for ev in events] == [0]


def test_an_admitted_partner_joins_the_one_action_at_the_window_edge():
    """A partner is admitted when its ready time rounds into [t, t +
    window]; it then joins the one joint action, although its ready
    time lies more than the window after t."""
    toy = {m.id: m for m in toy_instance().machines}
    sim = _due_at(toy, {0: 1.0, 1: 1.0 + 2 ** -52}, 0.0)
    sim.pm_window = 0.75 * 2 ** -52
    assert 1.0 + sim.pm_window == 1.0 + 2 ** -52
    changed, events = _joint_action(sim, 1.0)
    assert changed == [0, 1]
    assert [(ev.machine_id, ev.group) for ev in events] == [(0, 0), (1, 0)]
    assert {ev.time for ev in events} == {1.0 + 2 ** -52}
    assert events[0].cost == pytest.approx(toy[0].c_pm + toy[0].c_ps / 2)


def test_suspension_screen_ratios():
    # worthwhile fraction 0.2 from both duration and cost ratios
    assert pm_suspension_check(1, 10, 50.0, 100.0, 10.0, 20.0)
    assert not pm_suspension_check(3, 10, 50.0, 100.0, 10.0, 20.0)
    assert pm_suspension_check(0, 10, 50.0, 100.0, 10.0, 20.0)


@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=50),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3))
# at the threshold both rates round to one float
@example(1, 1, 0.1, 0.1, 0.10000000000000002, 0.10000000000000002)
def test_suspension_implies_worse_payoff_rate(n_gain, n_c, t_c, c_c, t_pm, c_pm):
    """Whenever the screen suspends, continuing with a preventive action
    would lower squared-output per cost-time.  The rates are compared
    exactly, on the same float inputs."""
    if pm_suspension_check(n_gain, n_c, t_c, c_c, t_pm, c_pm):
        t_c, c_c, t_pm, c_pm = map(Fraction, (t_c, c_c, t_pm, c_pm))
        before = n_c * n_c / (t_c * c_c)
        after = (n_c + n_gain) ** 2 / ((t_c + t_pm) * (c_c + c_pm))
        assert after < before

