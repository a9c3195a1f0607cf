import pickle

import pytest

from reworkopt.encoding import Chromosome, decode
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, IncapableMachineError,
                             InvalidInstanceError, Job, MachineParams,
                             ObjectivePair, ProblemInstance, QualitySpec,
                             dominates, require_valid, validate_instance)


def _machine(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=1.0, sigma_minus=0.01,
                mu_plus=0.0, sigma_plus=0.01, alpha=1.0, beta=1e-4,
                ups0=10.0, a=0.01, b0=0.01, gamma=0.01,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


def _tiny(jobs, machines):
    quality = {0: QualitySpec(10.0, 0.1, 10.0, 0.01, 9.9, 10.1)}
    return ProblemInstance(jobs, machines, quality,
                           GlobalParams(0.2, 0.2, 0.08))


def test_slot_table_gives_each_slot_its_own_machines():
    jobs = [Job(0, 0, {2: 1.0, 0: 3.0}), Job(1, 0, {1: 2.0})]
    inst = _tiny(jobs, [_machine(id=m) for m in (0, 1, 2)])
    table = inst.slot_times((0, 0))
    assert table[0] is jobs[0].nominal_times and table[1] is jobs[1].nominal_times
    # a reserved space may use every machine of its type, keys ascending
    assert list(table[2].items()) == [(0, 3.0), (1, 2.0), (2, 1.0)]
    assert table[3] == table[2]
    assert inst.slot_times((0, 0)) is table
    assert inst.slot_times(()) == table[:2]


def test_slot_targets_spread_each_group_over_its_machines():
    jobs = [Job(0, 0, {2: 1.0, 0: 3.0}), Job(1, 0, {1: 2.0}),
            Job(2, 0, {0: 2.0, 2: 1.5})]
    inst = _tiny(jobs, [_machine(id=m) for m in (0, 1, 2)])
    # groups: type 0 on {0, 2} twice, on {1} once, reserved on {0, 1, 2}
    target = inst.slot_targets((0,))
    assert target == {0: 1.0 + 1 / 3, 1: 1.0 + 1 / 3, 2: 1.0 + 1 / 3}
    assert inst.slot_targets((0,)) is target
    assert inst.slot_targets(()) == {0: 1.0, 1: 1.0, 2: 1.0}


def test_capable_machines_union_over_jobs():
    inst = _tiny([Job(0, 0, {0: 1.0}), Job(1, 0, {1: 2.0})],
                 [_machine(id=0), _machine(id=1)])
    assert inst.capable_machines(0) == [0, 1]


def test_derived_maintenance_aggregates():
    m = _machine(t_pm=12.54, t_ps=12.6, c_pm=430.0, c_ps=0.0)
    assert m.t_pm_full == 25.14
    assert m.c_pm_full == 430.0


def test_idle_nominal_defaults_to_mean_times():
    inst = _tiny([Job(0, 0, {0: 2.0}), Job(1, 0, {0: 4.0})], [_machine()])
    assert inst.idle_nominal[0][0] == pytest.approx(3.0)


def test_objective_dominance():
    a = ObjectivePair(10.0, 5.0)
    assert dominates(a, ObjectivePair(11.0, 5.0))
    assert dominates(a, ObjectivePair(10.0, 6.0))
    assert not dominates(a, ObjectivePair(10.0, 5.0))
    assert not dominates(a, ObjectivePair(9.0, 50.0))
    assert not dominates(ObjectivePair(9.0, 50.0), a)


def test_validate_clean_instances():
    assert validate_instance(toy_instance()) == []
    assert validate_instance(generate_instance(10, 0)) == []


def test_validate_flags_bad_initial_wear():
    inst = _tiny([Job(0, 0, {0: 2.0})], [_machine(w0=0.5, cap=0.5)])
    assert any("initial wear" in e for e in validate_instance(inst))


def test_validate_flags_nonpositive_nominal_time():
    inst = _tiny([Job(0, 0, {0: 0.0})], [_machine()])
    assert any("nonpositive nominal" in e for e in validate_instance(inst))


def test_validate_flags_missing_quality_spec():
    inst = _tiny([Job(0, 3, {0: 2.0})], [_machine()])
    assert any("no quality spec" in e for e in validate_instance(inst))


def test_validate_flags_quality_intervals_draws_would_rarely_hit():
    # a point interval (or one far in the tail) makes the truncated
    # input-quality draw reject for ever, or nearly so
    inst = toy_instance()
    q = inst.quality[0]
    q.lo = q.hi = q.mu_q + 1.0
    assert any("quality interval" in e for e in validate_instance(inst))
    q.lo, q.hi = q.mu_q + 4.0 * q.sigma_q, q.mu_q + 5.0 * q.sigma_q
    assert any("quality interval" in e for e in validate_instance(inst))
    q.lo, q.hi = q.mu_q + 2.5 * q.sigma_q, q.mu_q + 5.0 * q.sigma_q
    assert validate_instance(inst) == []
    # without spread the draw is a clamp, so any interval works
    q.sigma_q = 0.0
    q.lo = q.hi = q.mu_q + 1.0
    assert validate_instance(inst) == []
    q.sigma_q = float("nan")
    assert validate_instance(inst)


def _set_machine_c_cm(inst, x):
    inst.machines[1].c_cm = x


def _set_sigma_q(inst, x):
    inst.quality[0].sigma_q = x


def _set_eta(inst, x):
    inst.globals.eta = x


def _set_nominal(inst, x):
    inst.jobs[2].nominal_times[0] = x


def _set_idle_nominal(inst, x):
    inst.idle_nominal[1][1] = x


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("setter,message", [
    (_set_machine_c_cm, "machine 1: non-finite c_cm"),
    (_set_sigma_q, "type 0: non-finite sigma_q"),
    (_set_eta, "globals: non-finite eta"),
    (_set_nominal, "job 2: non-finite nominal time on machine 0"),
    (_set_idle_nominal, "idle type 1: non-finite nominal time on machine 1"),
])
def test_validate_rejects_non_finite_parameters(setter, message, bad):
    # a NaN passes every range test (x < 0 is false), so each field kind
    # is checked for finiteness first and reported by name, once
    inst = toy_instance()
    setter(inst, bad)
    assert validate_instance(inst) == [message]


@pytest.mark.parametrize("bad", [0.0, -5.0])
def test_validate_rejects_nonpositive_idle_times(bad):
    # a negative idle time would move a machine's frontier back in time
    inst = toy_instance(6, 0)
    inst.idle_nominal[0][0] = inst.idle_nominal[0][1] = bad
    assert validate_instance(inst) == [
        "idle type 0: nonpositive nominal time on machine 0",
        "idle type 0: nonpositive nominal time on machine 1"]


def test_require_valid_names_every_violation():
    assert require_valid(toy_instance()) is not None
    # the idle time defaults to the mean job time, 0 here, so it is
    # nonpositive too
    inst = _tiny([Job(0, 0, {0: 0.0})], [_machine(w0=0.9, cap=0.5)])
    with pytest.raises(InvalidInstanceError) as err:
        require_valid(inst)
    assert err.value.errors == [
        "job 0: nonpositive nominal time on machine 0",
        "idle type 0: nonpositive nominal time on machine 0",
        "machine 0: initial wear 0.9 outside [0, cap)"]


def test_invalid_instance_error_survives_pickling():
    # a worker process's error reaches the parent pickled
    err = pickle.loads(pickle.dumps(InvalidInstanceError(["x", "y"])))
    assert err.errors == ["x", "y"]
    assert str(err) == "invalid instance: x; y"


def test_decode_rejects_incapable_assignment():
    inst = _tiny([Job(0, 0, {0: 2.0})], [_machine(id=0), _machine(id=1)])
    ch = Chromosome(assign=[1], key=[0.5], idle_types=())
    with pytest.raises(IncapableMachineError):
        decode(ch, inst)

