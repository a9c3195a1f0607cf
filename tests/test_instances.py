import pytest

from reworkopt.instances import (_NS_JOBGEN, BASE_GLOBALS, TYPE_MACHINES,
                                 TYPE_RANGES, TYPE_SL, TYPE_XI, base_machines,
                                 generate_instance, oracle_toy, toy_instance)
from reworkopt.model import (GlobalParams, InvalidInstanceError,
                             InvalidOptionError, Job, MachineParams,
                             ProblemInstance, QualitySpec, validate_instance)
from reworkopt.rng import RngStream


def test_benchmark_machine_zero_fields():
    m = base_machines("alternate")[0]
    assert m.id == 0
    assert m.w0 == 0.1
    assert m.cap == 0.35
    assert m.mu_minus == 82.4
    assert m.sigma_minus == 0.00306
    assert m.mu_plus == 0.0
    assert m.sigma_plus == 0.015
    assert m.alpha == 1.0
    assert m.beta == 5.792e-05
    assert m.ups0 == 42.72
    assert m.a == 0.0112
    assert m.b0 == 0.0098
    assert m.gamma == 0.0137
    assert m.t_pm == 12.54
    assert m.t_ps == 12.6
    assert m.t_pm_full == pytest.approx(25.14)
    assert m.t_cm == 44.75
    assert m.c_pm == 430.0
    assert m.c_ps == 0.0
    assert m.c_cm == 1312.0


def test_benchmark_cost_and_wear_columns():
    ms = base_machines("alternate")
    assert [m.c_cm for m in ms] == [1312.0, 1028.0, 876.0, 832.0]
    assert [m.c_pm for m in ms] == [430.0, 275.0, 230.0, 195.0]
    assert [m.t_cm for m in ms] == [44.75, 40.50, 36.64, 36.64]
    assert [m.cap for m in ms] == [0.35, 0.4025, 0.385, 0.315]
    # machine 3 keeps the 0.1 / 0.105 / 0.11 progression: the raw 0.99
    # would start the machine beyond its own failure threshold
    assert [m.w0 for m in ms] == [0.1, 0.105, 0.11, 0.099]
    assert all(m.w0 < m.cap for m in ms)
    assert [m.mu_minus for m in ms] == [82.4, 66.4, 74.72, 66.0]


def test_quality_coefficient_sets_are_selectable():
    steep = base_machines("table")
    assert steep[0].a == 91.1
    assert steep[0].b0 == 0.57032
    assert steep[3].a == 86.5
    flat = base_machines("alternate")
    assert flat[1].a == 0.0173
    assert flat[1].b0 == 0.0106
    assert [m.gamma for m in steep] == [m.gamma for m in flat]
    with pytest.raises(ValueError):
        base_machines("bogus")


def test_type_tables():
    assert TYPE_RANGES == {0: (2.316, 2.916), 1: (1.42, 2.42)}
    assert TYPE_MACHINES == {0: (0, 2, 3), 1: (1, 3)}
    assert TYPE_SL == {0: 42.72, 1: 42.61}
    assert TYPE_XI == {0: 0.08, 1: 0.07}
    assert BASE_GLOBALS.eta == 0.2
    assert BASE_GLOBALS.theta == 0.2
    assert BASE_GLOBALS.varphi == 0.08
    assert BASE_GLOBALS.noise_sigma == 1.0


def test_generated_instance_structure():
    inst = generate_instance(10, seed=3, sigma_q=0.06)
    assert len(inst.jobs) == 10
    counts = {0: 0, 1: 0}
    for job in inst.jobs:
        counts[job.type] += 1
        assert tuple(sorted(job.nominal_times)) == TYPE_MACHINES[job.type]
        lo, hi = TYPE_RANGES[job.type]
        for o in job.nominal_times.values():
            assert lo <= o <= hi
    assert counts == {0: 5, 1: 5}
    for t in (0, 1):
        spec = inst.quality[t]
        assert spec.target == TYPE_SL[t]
        assert spec.tol == TYPE_XI[t]
        assert spec.mu_q == TYPE_SL[t]
        assert spec.sigma_q == 0.06
        assert spec.lo == pytest.approx(TYPE_SL[t] - 0.18)
        assert spec.hi == pytest.approx(TYPE_SL[t] + 0.18)
    assert inst.meta["seed"] == 3
    assert validate_instance(inst) == []


def test_generated_type_mix_extremes():
    assert all(j.type == 0 for j in generate_instance(8, 0, type_mix=1.0).jobs)
    assert all(j.type == 1 for j in generate_instance(8, 0, type_mix=0.0).jobs)
    mixed = generate_instance(10, 0, type_mix=0.3)
    assert sum(1 for j in mixed.jobs if j.type == 0) == 3


def test_generator_refuses_what_it_cannot_serve():
    # a sigma_q this small collapses the quality interval to a point,
    # which the truncated input-quality draw could never hit
    with pytest.raises(InvalidInstanceError, match="quality interval"):
        generate_instance(8, 0, 2.2e-313, "table")
    with pytest.raises(InvalidInstanceError, match="negative sigma_q"):
        generate_instance(8, 0, -0.1)
    assert generate_instance(8, 0, 0.0).quality[0].sigma_q == 0.0


@pytest.mark.parametrize("type_mix", [float("nan"), 1.5, -0.5])
def test_generator_refuses_a_type_mix_outside_the_unit_interval(type_mix):
    with pytest.raises(InvalidOptionError, match="type mix"):
        generate_instance(6, 0, type_mix=type_mix)


def test_generated_instances_do_not_share_parameters():
    a = generate_instance(4, 0)
    a.globals.eta = 1.0
    assert generate_instance(4, 0).globals.eta == BASE_GLOBALS.eta == 0.2


def test_generated_instances_are_seeded():
    a = generate_instance(12, seed=7)
    b = generate_instance(12, seed=7)
    c = generate_instance(12, seed=8)
    assert [j.nominal_times for j in a.jobs] == [j.nominal_times for j in b.jobs]
    assert [j.nominal_times for j in a.jobs] != [j.nominal_times for j in c.jobs]


def test_toy_instance_layout():
    inst = toy_instance()
    assert len(inst.jobs) == 6
    assert [j.type for j in inst.jobs] == [0, 1, 0, 1, 0, 1]
    for j in inst.jobs:
        if j.type == 1:
            assert list(j.nominal_times) == [1]
    assert validate_instance(inst) == []
    again = toy_instance()
    assert [j.nominal_times for j in again.jobs] == \
        [j.nominal_times for j in inst.jobs]


def test_oracle_toy_is_enumeration_friendly():
    inst = oracle_toy(0)
    assert len(inst.jobs) in (5, 6)
    for m in inst.machines:
        assert m.a == 0.0
        assert m.c_pm == int(m.c_pm)
        assert m.c_cm == int(m.c_cm)
        assert m.w0 < 0.05
    assert validate_instance(inst) == []
    assert len(oracle_toy(0, n_jobs=4).jobs) == 4


def audit_instance(seed: int, n_jobs: int = 8) -> ProblemInstance:
    """Maintenance-free deterministic regime for sequence-swap audits.

    Failure thresholds are unreachable, inputs all conform, and quality
    drifts upward with wear (a > 0, base offset inside the band), so a
    schedule walks from conforming into nonconforming output as wear
    accumulates and adjacent pairs of both kinds exist.
    """
    root = RngStream.from_seed(seed)
    machines = []
    for k in range(2):
        machines.append(MachineParams(
            id=k, w0=0.0, cap=1e9,
            mu_minus=2.0, sigma_minus=0.01,
            mu_plus=0.1 + 0.02 * k, sigma_plus=0.01,
            alpha=0.05, beta=0.1,
            ups0=20.02, a=0.04, b0=0.01, gamma=0.01,
            t_pm=1.0, t_ps=0.5, t_cm=5.0,
            c_pm=20.0, c_ps=5.0, c_cm=100.0))
    jobs = []
    for i in range(n_jobs):
        jrng = root.substream(_NS_JOBGEN, i)
        nominal = {0: 1.2 + 1.6 * jrng.uniform(), 1: 1.2 + 1.6 * jrng.uniform()}
        jobs.append(Job(id=i, type=0, nominal_times=nominal))
    quality = {0: QualitySpec(target=20.0, tol=0.06, mu_q=20.0, sigma_q=0.01,
                              lo=19.97, hi=20.03)}
    g = GlobalParams(eta=0.3, theta=0.3, varphi=0.05, noise_sigma=1.0)
    return ProblemInstance(jobs, machines, quality, g,
                           meta={"kind": "audit", "seed": seed})


def test_audit_instance_never_maintains():
    inst = audit_instance(1)
    assert len(inst.jobs) == 8
    for m in inst.machines:
        assert m.w0 == 0.0
        assert m.cap == 1e9
    assert validate_instance(inst) == []
