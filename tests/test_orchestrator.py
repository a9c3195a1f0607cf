import math
import os
import subprocess
import sys

import pytest

import reworkopt

from reworkopt.encoding import Chromosome
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, InvalidOptionError, Job,
                             MachineParams, ObjectivePair, ProblemInstance,
                             QualitySpec, dominates)
from reworkopt.orchestrator import (DpeiaConfig, ParetoArchive,
                                    _pilot_idle_types, allocate_budget, dpeia,
                                    random_search)
from reworkopt.rng import RngStream
from reworkopt.simulate import STATIC, SimConfig, simulate
from reworkopt.encoding import decode


def test_budget_split_conserves_the_total():
    for total, rounds in [(100, 4), (60, 4), (10, 3), (5, 5), (7, 2), (48, 8)]:
        s = allocate_budget(total, rounds)
        assert sum(p + o for p, o in s.rounds) == total
        assert len(s.rounds) == rounds
        assert all(p >= 0 and o >= 0 for p, o in s.rounds)


def test_budget_split_online_share_grows():
    s = allocate_budget(100, 4)
    assert s.rounds == [(16, 9), (15, 10), (14, 11), (13, 12)]
    online = [o for _, o in s.rounds]
    assert online == sorted(online)
    # the final round gets the full cap: floor(0.5 * 25)
    assert s.rounds[-1][1] == 12


def test_budget_split_rejects_bad_arguments():
    with pytest.raises(ValueError):
        allocate_budget(10, 0)
    with pytest.raises(ValueError):
        allocate_budget(3, 4)
    with pytest.raises(ValueError):
        allocate_budget(10, 2, varpi=0.0)
    with pytest.raises(ValueError):
        allocate_budget(10, 2, varpi=1.2)
    with pytest.raises(ValueError):
        allocate_budget(10, 2, sigma_c=0.0)


@pytest.mark.parametrize("option", [
    {"sigma_c": math.nan}, {"mu_c": math.nan}, {"mu_c": math.inf},
    {"mu_c": 60.0}, {"mu_c": math.inf, "sigma_c": math.inf},
], ids=repr)
def test_budget_split_refuses_a_profile_it_cannot_evaluate(option):
    with pytest.raises(InvalidOptionError):
        allocate_budget(10, 2, **option)


def _ch():
    return Chromosome([0], [0.5], ())


def test_archive_keeps_only_nondominated_points():
    a = ParetoArchive()
    assert a.add(ObjectivePair(10.0, 5.0), _ch(), 1, 0, 0.1)
    assert not a.add(ObjectivePair(11.0, 6.0), _ch(), 1, 1, 0.1)
    assert not a.add(ObjectivePair(10.0, 5.0), _ch(), 1, 2, 0.1)
    assert a.add(ObjectivePair(9.0, 6.0), _ch(), 1, 3, 0.1)
    assert a.add(ObjectivePair(11.0, 4.0), _ch(), 2, 0, 0.1)
    assert len(a) == 3
    # a dominating point evicts the dominated ones
    assert a.add(ObjectivePair(8.0, 4.0), _ch(), 2, 1, 0.2)
    pts = sorted(e.objectives for e in a.entries)
    assert ObjectivePair(8.0, 4.0) in pts
    assert ObjectivePair(10.0, 5.0) not in pts
    assert ObjectivePair(9.0, 6.0) not in pts
    for p in pts:
        assert not any(dominates(q, p) for q in pts)


def _flat(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=0.0, sigma_minus=0.0,
                mu_plus=0.0, sigma_plus=0.0, alpha=0.0, beta=0.02,
                ups0=10.0, a=0.0, b0=0.0, gamma=0.0,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


def test_pilot_reserves_nothing_when_everything_conforms():
    spec = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)
    jobs = [Job(i, 0, {0: 1.0}) for i in range(4)]
    inst = ProblemInstance(jobs, [_flat()], {0: spec},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    assert _pilot_idle_types(inst, RngStream.from_seed(0)) == ()


def test_pilot_sizes_reservations_from_observed_failures():
    good = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)
    bad = QualitySpec(9.0, 0.5, 9.0, 0.0, 8.5, 9.5)
    jobs = [Job(i, 1, {0: 1.0, 1: 1.0, 2: 1.0}) for i in range(6)]
    jobs += [Job(6, 0, {0: 1.0, 1: 1.0, 2: 1.0})]
    inst = ProblemInstance(jobs, [_flat(id=0), _flat(id=1), _flat(id=2)],
                           {0: good, 1: bad},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    assert _pilot_idle_types(inst, RngStream.from_seed(0)) == (1, 1)


def test_payoff_screen_suspends_pointless_maintenance():
    spec = QualitySpec(10.0, 0.08, 10.2, 0.0, 9.0, 11.0)
    m = _flat(w0=0.3, cap=0.5, mu_minus=0.5)
    jobs = [Job(i, 0, {0: 2.0}) for i in range(4)]
    inst = ProblemInstance(jobs, [m], {0: spec},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))
    ch = Chromosome([0] * 4, [0.1, 0.2, 0.3, 0.4], (), zeta=0.2, n_u=4)
    screened = simulate(inst, decode(ch, inst), RngStream.from_seed(0),
                        SimConfig(mode=STATIC, prop2=True))
    open_loop = simulate(inst, decode(ch, inst), RngStream.from_seed(0),
                         SimConfig(mode=STATIC, prop2=False))
    assert sum(1 for e in screened.maint_events if e.kind == "pm") == 1
    assert screened.final_states[0].suspended
    assert sum(1 for e in open_loop.maint_events if e.kind == "pm") == 4
    assert not open_loop.final_states[0].suspended
    assert not any(e.kind == "cm" for e in screened.maint_events)


def _small_cfg(**kw):
    base = dict(pop_size=4, max_iter=4, n_rounds=2, label_reps=1,
                det=True, prop2=False, idle_types=(0,))
    base.update(kw)
    return DpeiaConfig(**base)


def test_optimizer_round_trip_bookkeeping():
    inst = toy_instance(8, seed=1)
    res = dpeia(inst, _small_cfg(), seed=3)
    assert len(res.archive) >= 1
    pts = [e.objectives for e in res.archive.entries]
    for p in pts:
        assert not any(dominates(q, p) for q in pts)
    assert sum(p + o for p, o in res.schedule.rounds) == 4
    assert len(res.rounds_log) == 2
    sizes = [row["archive_size"] for row in res.rounds_log]
    assert sizes == sorted(sizes)
    assert res.sim_calls > 0
    # the last round's elites stay in the population, labeled online
    last = set(res.rounds_log[-1]["elites"])
    assert last <= {ind.chrom.digest() for ind in res.pop}
    for row in res.rounds_log:
        assert len(row["elites"]) == 1      # ceil(4 / 5)
    for e in res.archive.entries:
        assert e.digest == e.chrom.digest()
        assert e.f_eva >= 0.0


def test_optimizer_is_deterministic_per_seed():
    inst = toy_instance(8, seed=2)
    a = dpeia(inst, _small_cfg(), seed=11)
    b = dpeia(inst, _small_cfg(), seed=11)
    c = dpeia(inst, _small_cfg(), seed=12)
    key = lambda r: [(e.objectives.makespan, e.objectives.maint_cost, e.digest)
                     for e in sorted(r.archive.entries,
                                     key=lambda e: e.digest)]
    assert key(a) == key(b)
    assert a.sim_calls == b.sim_calls
    assert key(a) != key(c)


def test_single_round_runs_all_planning_then_one_online_pass():
    inst = toy_instance(6, seed=4)
    res = dpeia(inst, _small_cfg(n_rounds=1, max_iter=3), seed=5)
    assert len(res.rounds_log) == 1
    assert res.schedule.rounds[0][0] + res.schedule.rounds[0][1] == 3
    assert len(res.archive) >= 1


def test_random_search_consumes_the_requested_budget():
    inst = toy_instance(6, seed=0)
    cfg = _small_cfg()
    a = random_search(inst, cfg, seed=9, sim_budget=30)
    b = random_search(inst, cfg, seed=9, sim_budget=30)
    assert a.sim_calls >= 30
    assert a.sim_calls == b.sim_calls
    pts = sorted(e.objectives for e in a.archive.entries)
    assert [str(p) for p in pts] == [
        str(p) for p in sorted(e.objectives for e in b.archive.entries)]
    assert pts
    for p in pts:
        assert not any(dominates(q, p) for q in pts)


def test_dpeia_keeps_a_job_off_the_machines_only_its_type_mates_have():
    # job 0 of type 0 loses machine 3; recombination's load rebalance
    # once moved it there because the type as a whole can use machine 3
    inst = generate_instance(30, 1)
    del inst.jobs[0].nominal_times[3]
    res = dpeia(inst, DpeiaConfig(pop_size=20, max_iter=4, n_rounds=2), seed=1)
    assert res.archive.entries
    assert all(ind.chrom.assign[0] in (0, 2) for ind in res.pop)


def test_an_all_online_round_plans_from_the_initial_population():
    # varpi 1 gives the only round all three iterations online, so the
    # round plans zero generations and executes the initial population
    res = dpeia(generate_instance(15, 2),
                DpeiaConfig(pop_size=6, max_iter=3, n_rounds=1, varpi=1.0,
                            label_reps=2), seed=3)
    assert res.schedule.rounds == [(0, 3)]
    assert res.sim_calls == 49
    assert [(e.objectives, e.digest) for e in res.archive.entries] == [
        (ObjectivePair(84.00986291191595, 3064.0), "783cfe0980304576")]
    assert res.rounds_log == [
        {"round": 1, "plan_iters": 0, "online_iters": 3, "archive_size": 1,
         "elites": ["783cfe0980304576", "6838b4f165800413"]}]


_WORN_OUT = """\
from reworkopt.encoding import decode, random_chromosome
from reworkopt.instances import generate_instance
from reworkopt.model import InvalidInstanceError
from reworkopt.orchestrator import DpeiaConfig, dpeia, random_search
from reworkopt.rng import RngStream
from reworkopt.simulate import ONLINE, STATIC, SimConfig, simulate
inst = generate_instance(10, 0)
inst.machines[0].w0 = 0.99
cfg = DpeiaConfig(pop_size=4, max_iter=2, n_rounds=1)
ch = random_chromosome(inst, (), RngStream.from_seed(0))
try:
    %s
except InvalidInstanceError as exc:
    print(exc)
"""


@pytest.mark.parametrize("call", [
    "dpeia(inst, cfg, 0)",
    "random_search(inst, cfg, 0, 10)",
    "simulate(inst, decode(ch, inst), RngStream.from_seed(1), "
    "SimConfig(mode=STATIC))",
    "simulate(inst, decode(ch, inst), RngStream.from_seed(1), "
    "SimConfig(mode=ONLINE))",
], ids=["dpeia", "random_search", "static", "online"])
def test_a_machine_worn_past_its_cap_after_repair_is_refused(call):
    """Machine 0 restarts above its cap after every repair, so each due
    step would repair it again: the run must end in the validator's
    error, not loop.  It runs in a child process, so a loop fails this
    test by timing out instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(reworkopt.__file__))
    proc = subprocess.run([sys.executable, "-c", _WORN_OUT % call],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ("machine 0: initial wear 0.99 outside [0, cap)"
            in proc.stdout), proc.stdout
