"""Maintenance policy unit tests: imperfect restoration, thresholds,
grouping and the payoff screen."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reworkopt.instances import base_machines, toy_instance
from reworkopt.maintenance import (MachineState, UndefinedLifecycleStats,
                                   cm_required, corrective_maintenance,
                                   group_pms, imperfect_pm, pm_due,
                                   pm_suspension_check, pm_window)

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


def test_single_machine_group_duration_and_cost():
    grps = group_pms([(0, 100.0)], BENCH, pm_window(BENCH, 0.5))
    assert len(grps) == 1
    g = grps[0]
    assert g.members == [0]
    assert abs(g.duration - 25.14) < 1e-9     # action 12.54 plus setup 12.6
    assert abs(g.member_cost[0] - 430.0) < 1e-9
    assert g.start == 100.0


def test_zero_window_never_merges():
    grps = group_pms([(0, 10.0), (1, 10.4)], BENCH, pm_window(BENCH, 0.0))
    assert [g.members for g in grps] == [[0], [1]]


def test_window_merges_and_splits_setup_cost():
    toy = {m.id: m for m in toy_instance().machines}
    # toy setup costs are nonzero, so the shared-setup split is visible
    grps = group_pms([(0, 10.0), (1, 10.2)], toy, pm_window(toy, 1.0))
    assert len(grps) == 1
    g = grps[0]
    assert sorted(g.members) == [0, 1]
    assert g.start == 10.2                    # members wait for the latest
    assert g.duration == max(toy[0].t_pm_full, toy[1].t_pm_full)
    assert g.member_cost[0] == pytest.approx(toy[0].c_pm + toy[0].c_ps / 2)
    assert g.member_cost[1] == pytest.approx(toy[1].c_pm + toy[1].c_ps / 2)


def test_far_apart_machines_stay_separate():
    grps = group_pms([(0, 0.0), (1, 500.0)], BENCH, pm_window(BENCH, 1.0))
    assert [g.members for g in grps] == [[0], [1]]


def test_suspension_screen_ratios():
    # worthwhile fraction 0.2 from both duration and cost ratios
    assert pm_suspension_check(1, 10, 50.0, 100.0, 10.0, 20.0)
    assert not pm_suspension_check(3, 10, 50.0, 100.0, 10.0, 20.0)
    assert pm_suspension_check(0, 10, 50.0, 100.0, 10.0, 20.0)


def test_suspension_screen_zero_history_raises():
    with pytest.raises(UndefinedLifecycleStats):
        pm_suspension_check(1, 0, 50.0, 100.0, 10.0, 20.0)
    with pytest.raises(UndefinedLifecycleStats):
        pm_suspension_check(1, 10, 0.0, 100.0, 10.0, 20.0)
    with pytest.raises(UndefinedLifecycleStats):
        pm_suspension_check(1, 10, 50.0, 0.0, 10.0, 20.0)


@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=50),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.1, max_value=1e3))
def test_suspension_implies_worse_payoff_rate(n_gain, n_c, t_c, c_c, t_pm, c_pm):
    """Whenever the screen suspends, continuing with a preventive action
    would lower squared-output per cost-time."""
    if pm_suspension_check(n_gain, n_c, t_c, c_c, t_pm, c_pm):
        before = n_c * n_c / (t_c * c_c)
        after = (n_c + n_gain) ** 2 / ((t_c + t_pm) * (c_c + c_pm))
        assert after < before

