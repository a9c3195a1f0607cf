import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt import planner as planner_mod
from reworkopt.encoding import Chromosome, GeneBounds, decode, random_chromosome
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, Job, MachineParams, ProblemInstance,
                             QualitySpec, validate_instance)
from reworkopt.oracle import check_feasibility
from reworkopt.planner import (Individual, PlannerConfig, _roulette,
                               busiest_idlest_move, control_param, de_operator,
                               det_preview, init_population, label_static_obj,
                               mutate_genes, plan, prop1_swap, re_operator,
                               rebalance, similarity)
from reworkopt.rng import NS_INIT, NS_LABEL, RngStream
from reworkopt.simulate import STATIC, SimConfig, idle_space_count, simulate


def _flat(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=0.0, sigma_minus=0.0,
                mu_plus=0.0, sigma_plus=0.0, alpha=0.0, beta=0.02,
                ups0=10.0, a=0.0, b0=0.0, gamma=0.0,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


_GOOD = QualitySpec(10.0, 0.5, 10.0, 0.0, 9.5, 10.5)
_BAD = QualitySpec(9.0, 0.5, 9.0, 0.0, 8.5, 9.5)


def _inst(jobs, machines, quality=None):
    return ProblemInstance(jobs, machines, quality or {0: _GOOD, 1: _BAD},
                           GlobalParams(0.0, 0.2, 0.08, noise_sigma=0.0))


def _pop_of(chroms):
    return [Individual(c, 0.0) for c in chroms]


def test_control_value_decays_linearly():
    assert control_param(0, 100) == 2.0
    assert control_param(100, 100) == 0.0
    assert control_param(25, 100) == pytest.approx(1.5, abs=1e-9)
    assert control_param(50, 100) == pytest.approx(1.0, abs=1e-9)


def test_differential_step_with_identical_donors_is_identity():
    # single machine, so the integer+fraction packing is exact
    jobs = [Job(i, 0, {0: 1.0}) for i in range(4)]
    inst = _inst(jobs, [_flat()])
    parent = Chromosome([0] * 4, [0.12, 0.45, 0.3, 0.78], (),
                        zeta=0.33, psi=0.4, thr_r=0.6, n_u=2)
    pop = _pop_of([parent.copy() for _ in range(5)])
    child = de_operator(parent, pop, inst, RngStream.from_seed(3), GeneBounds())
    assert child.digest() == parent.digest()


def test_differential_step_never_touches_genes_beyond_donor_spread():
    jobs = [Job(i, 0, {0: 1.0, 1: 1.0}) for i in range(3)]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    parent = Chromosome([0, 1, 0], [0.2, 0.5, 0.8], (),
                        zeta=0.5, psi=0.5, thr_r=0.5, n_u=1)
    pop = _pop_of([parent.copy() for _ in range(4)])
    for s in range(40):
        child = de_operator(parent, pop, inst, RngStream.from_seed(s), GeneBounds())
        assert child.zeta == parent.zeta
        assert child.psi == parent.psi
        assert child.thr_r == parent.thr_r
        assert child.n_u == parent.n_u
        assert child.assign == parent.assign


def test_search_operators_stay_inside_the_feasible_box():
    inst = toy_instance(10, seed=1)
    rng = RngStream.from_seed(0)
    bounds = GeneBounds()
    pop = _pop_of([random_chromosome(inst, (0, 1), rng.substream(i))
                   for i in range(6)])
    srng = rng.substream(99)
    for k in range(300):
        parent = pop[k % len(pop)].chrom
        op = re_operator if k % 2 else de_operator
        child = op(parent, pop, inst, srng, bounds)
        decode(child, inst)
        assert all(0.0 <= key < 1.0 + 1e-12 for key in child.key)
        assert bounds.zeta[0] <= child.zeta <= bounds.zeta[1]
        assert bounds.psi[0] <= child.psi <= bounds.psi[1]
        assert bounds.thr_r[0] <= child.thr_r <= bounds.thr_r[1]
        assert 0 <= child.n_u <= bounds.n_u_max


def test_recombination_with_identical_balanced_pop_is_identity():
    jobs = [Job(i, 0, {0: 1.0, 1: 1.0}) for i in range(4)]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    parent = Chromosome([0, 0, 1, 1], [0.1, 0.2, 0.3, 0.4], ())
    pop = _pop_of([parent.copy() for _ in range(5)])
    child = re_operator(parent, pop, inst, RngStream.from_seed(11), GeneBounds())
    assert child.digest() == parent.digest()


def test_similarity_counts_shared_assignments():
    a = Chromosome([0, 1, 1, 0], [0.1] * 4, ())
    b = Chromosome([0, 1, 0, 0], [0.9] * 4, ())
    assert similarity(a, b) == 0.75
    assert similarity(a, a) == 1.0


def test_rebalance_moves_load_until_within_one_of_target():
    jobs = [Job(i, 0, {0: 1.0, 1: 1.0}) for i in range(6)]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = Chromosome([0] * 6, [0.1 * (i + 1) for i in range(6)], ())
    rebalance(ch, inst, RngStream.from_seed(0))
    counts = {0: ch.assign.count(0), 1: ch.assign.count(1)}
    assert counts == {0: 4, 1: 2}
    decode(ch, inst)


def test_rebalance_respects_capability():
    # job 2 can only run on machine 0, the rest anywhere
    jobs = [Job(0, 0, {0: 1.0, 1: 1.0}), Job(1, 0, {0: 1.0, 1: 1.0}),
            Job(2, 0, {0: 1.0}), Job(3, 0, {0: 1.0, 1: 1.0}),
            Job(4, 0, {0: 1.0, 1: 1.0}), Job(5, 0, {0: 1.0, 1: 1.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = Chromosome([0] * 6, [0.1 * (i + 1) for i in range(6)], ())
    rebalance(ch, inst, RngStream.from_seed(4))
    assert ch.assign[2] == 0
    decode(ch, inst)


def _preview(inst, ch):
    cfg = PlannerConfig(det=True, prop2=False, label_reps=1)
    return det_preview(inst, ch, RngStream.from_seed(0), cfg)


def test_swap_rule_rework_pair_longest_first():
    jobs = [Job(0, 1, {0: 3.0}), Job(1, 1, {0: 1.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0, 0], [0.1, 0.2], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    assert prop1_swap(inst, tr, plan_, 0, 0)


def test_swap_rule_rejects_shortest_first_rework_pair():
    jobs = [Job(0, 1, {0: 1.0}), Job(1, 1, {0: 3.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0, 0], [0.1, 0.2], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    assert not prop1_swap(inst, tr, plan_, 0, 0)


def test_swap_rule_rejects_mixed_outcome_pair():
    jobs = [Job(0, 0, {0: 3.0}), Job(1, 1, {0: 1.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0, 0], [0.1, 0.2], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    assert not prop1_swap(inst, tr, plan_, 0, 0)


def test_swap_rule_accepts_safe_conforming_pair():
    jobs = [Job(0, 0, {0: 2.0}), Job(1, 0, {0: 1.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0, 0], [0.1, 0.2], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    assert prop1_swap(inst, tr, plan_, 0, 0)
    # already shortest-first: nothing to gain
    ch2 = Chromosome([0, 0], [0.2, 0.1], (), n_u=0)
    plan2, tr2 = _preview(inst, ch2)
    assert not prop1_swap(inst, tr2, plan2, 0, 0)


def test_swap_rule_rejects_pair_split_by_maintenance():
    spec = QualitySpec(10.0, 0.08, 10.2, 0.0, 9.0, 11.0)
    m = _flat(w0=0.1, cap=0.4, mu_minus=0.5)
    jobs = [Job(0, 0, {0: 2.0}), Job(1, 0, {0: 1.0})]
    inst = _inst(jobs, [m], {0: spec})
    free = Chromosome([0, 0], [0.1, 0.2], (), zeta=0.45, n_u=0)
    plan_, tr = _preview(inst, free)
    assert prop1_swap(inst, tr, plan_, 0, 0)
    gated = Chromosome([0, 0], [0.1, 0.2], (), zeta=0.45, psi=0.0, n_u=1)
    plan2, tr2 = _preview(inst, gated)
    assert any(ev.kind == "pm" for ev in tr2.maint_events)
    assert not prop1_swap(inst, tr2, plan2, 0, 0)


def test_swap_rule_rejects_out_of_range_and_idle_positions():
    jobs = [Job(0, 1, {0: 3.0}), Job(1, 1, {0: 1.0})]
    inst = _inst(jobs, [_flat()])
    ch = Chromosome([0, 0, 0], [0.1, 0.2, 0.3], (1,), n_u=0)
    plan_, tr = _preview(inst, ch)
    assert not prop1_swap(inst, tr, plan_, 0, -1)
    assert not prop1_swap(inst, tr, plan_, 0, 2)
    # position 1 pairs job 1 with the trailing idle reservation
    assert not prop1_swap(inst, tr, plan_, 0, 1)


def test_load_move_goes_from_busiest_to_idlest():
    jobs = [Job(0, 0, {0: 5.0, 1: 5.0}), Job(1, 0, {0: 4.0, 1: 4.0}),
            Job(2, 0, {0: 1.0, 1: 1.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = Chromosome([0, 0, 1], [0.1, 0.2, 0.3], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    child = busiest_idlest_move(ch, inst, tr, RngStream.from_seed(2))
    moved = [s for s in range(3) if child.assign[s] != ch.assign[s]]
    assert len(moved) == 1
    assert ch.assign[moved[0]] == 0
    assert child.assign[moved[0]] == 1


def test_load_move_without_movable_slot_is_identity():
    jobs = [Job(0, 0, {0: 5.0}), Job(1, 1, {1: 1.0})]
    inst = _inst(jobs, [_flat(id=0), _flat(id=1)])
    ch = Chromosome([0, 1], [0.1, 0.2], (), n_u=0)
    plan_, tr = _preview(inst, ch)
    child = busiest_idlest_move(ch, inst, tr, RngStream.from_seed(2))
    assert child.digest() == ch.digest()


def test_gene_mutation_rate_extremes():
    inst = toy_instance(6, seed=0)
    bounds = GeneBounds()
    base = random_chromosome(inst, (0,), RngStream.from_seed(1), bounds)
    frozen = base.copy()
    mutate_genes(frozen, RngStream.from_seed(5), bounds, rate=0.0)
    assert frozen.digest() == base.digest()
    shaken = base.copy()
    mutate_genes(shaken, RngStream.from_seed(5), bounds, rate=1.0)
    assert shaken.digest() != base.digest()
    assert bounds.zeta[0] <= shaken.zeta <= bounds.zeta[1]
    assert bounds.psi[0] <= shaken.psi <= bounds.psi[1]
    assert bounds.thr_r[0] <= shaken.thr_r <= bounds.thr_r[1]
    assert 0 <= shaken.n_u <= bounds.n_u_max


def test_roulette_always_keeps_the_best_and_the_cheap_corner():
    rng = RngStream.from_seed(8)
    # member 0 dominates the other fillers, so the front is tiny
    pool = [Individual(Chromosome([0], [0.1], ()), float(i),
                       obj=(100.0 + i, 10.0 + i)) for i in range(20)]
    corner = Individual(Chromosome([0], [0.9], ()), 2.5, obj=(200.0, 1.0))
    pool.append(corner)
    out = _roulette(pool, 16, rng)
    assert len(out) == 16
    assert max(pool, key=lambda i: i.label) in out
    assert corner in out
    assert all(ind in pool for ind in out)


def test_labels_are_paired_and_reproducible():
    inst = toy_instance(8, seed=2)
    cfg = PlannerConfig(pop_size=4, label_reps=2, prop2=False)
    ch = random_chromosome(inst, (0,), RngStream.from_seed(3))
    master = RngStream.from_seed(42)
    a = label_static_obj(inst, ch, master, cfg)
    b = label_static_obj(inst, ch, RngStream.from_seed(42), cfg)
    assert a == b


def test_search_run_keeps_best_label_monotone():
    inst = toy_instance(8, seed=5)
    cfg = PlannerConfig(pop_size=8, label_reps=1, det=True, prop2=False)
    pop, history = plan(inst, 12, RngStream.from_seed(7), cfg,
                        idle_types=(0,))
    assert len(pop) == 8
    assert len(history) == 12
    bests = [h[1] for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    for _, best, mean in history:
        assert mean <= best + 1e-12


def test_search_run_can_be_continued():
    inst = toy_instance(6, seed=6)
    cfg = PlannerConfig(pop_size=4, label_reps=1, det=True, prop2=False)
    master = RngStream.from_seed(1)
    pop, h1 = plan(inst, 2, master, cfg, idle_types=(), max_iter=4)
    pop2, h2 = plan(inst, 2, master, cfg, pop=pop, iter_offset=2, max_iter=4)
    assert [h[0] for h in h1] == [1, 2]
    assert [h[0] for h in h2] == [3, 4]
    assert h2[-1][1] >= h1[-1][1]


def test_population_init_is_seeded_and_sized():
    inst = toy_instance(6, seed=0)
    cfg = PlannerConfig(pop_size=5, label_reps=1, det=True, prop2=False)
    a = init_population(inst, (0,), RngStream.from_seed(9), cfg)
    b = init_population(inst, (0,), RngStream.from_seed(9), cfg)
    assert len(a) == 5
    assert [x.chrom.digest() for x in a] == [y.chrom.digest() for y in b]
    assert all(x.obj is not None for x in a)


PINNED_POPULATION = (
    "ae3f6602a7d02df00b7cac462d0b89477e43be093fe821d53c03e2b72d68c2cd")


def test_two_generations_on_a_generated_instance_are_pinned():
    """Labels and objectives of a whole population, bit for bit: the
    first generation explores, the second refines with previews."""
    inst = generate_instance(60, 3)
    master = RngStream.from_seed(11)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    pop, _ = plan(inst, 2, master, PlannerConfig(),
                  idle_types=idle_types, max_iter=4)
    h = hashlib.sha256()
    for ind in pop:
        h.update(repr((ind.chrom.digest(), ind.label, ind.obj)).encode())
    assert h.hexdigest() == PINNED_POPULATION


def _pilot_types(inst, master):
    counts = idle_space_count(inst, master.substream(NS_INIT))
    return tuple(t for t in sorted(counts) for _ in range(counts[t]))


@settings(max_examples=50, deadline=None)
@given(st.integers(6, 24), st.integers(0, 1000), st.integers(0, 1000),
       st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2)),
                min_size=1, max_size=8))
def test_jobs_with_their_own_machines_plan_and_run_feasibly(n, gen_seed, seed,
                                                            drops):
    """Jobs of one type may differ in their machines: the pilot, both
    search regimes and a static run keep every job on its own."""
    inst = generate_instance(n, gen_seed)
    for i, k in drops:
        times = inst.jobs[i % n].nominal_times
        if len(times) > 1:
            del times[sorted(times)[k % len(times)]]
    assert validate_instance(inst) == []
    master = RngStream.from_seed(seed)
    idle_types = _pilot_types(inst, master)
    pop, _ = plan(inst, 2, master, PlannerConfig(pop_size=6, label_reps=1),
                  idle_types=idle_types, max_iter=4)
    for ind in pop:
        tr = simulate(inst, decode(ind.chrom, inst),
                      master.substream(NS_LABEL, 0), SimConfig(mode=STATIC))
        assert check_feasibility(inst, tr) == []


def _events(trace):
    return [dataclasses.astuple(ev) for evs in (
        trace.job_events, trace.idle_events, trace.maint_events) for ev in evs]


def test_previews_are_kept_and_still_counted(monkeypatch):
    inst = generate_instance(20, 0)
    master = RngStream.from_seed(3)
    counter = [0]
    cfg = PlannerConfig(pop_size=6, label_reps=2, counter=counter)
    made = []
    orig = planner_mod.det_preview
    monkeypatch.setattr(planner_mod, "det_preview",
                        lambda *a: made.append(a[1]) or orig(*a))
    pop, _ = plan(inst, 4, master, cfg, max_iter=4)
    # generations 2 to 4 refine, previewing each of their 6 parents
    previews = 3 * 6
    assert counter[0] == (1 + 4) * 6 * 2 + previews
    assert len(made) < previews
    kept = [ind for ind in pop if ind.preview is not None]
    assert kept
    for ind in kept:
        plan_, tr = orig(inst, ind.chrom, master, cfg)
        assert ind.preview[0].order == plan_.order
        assert _events(ind.preview[1]) == _events(tr)
