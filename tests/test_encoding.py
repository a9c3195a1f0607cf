import pytest

from reworkopt.encoding import (Chromosome, GeneBounds, decode,
                                planned_starts, random_chromosome)
from reworkopt.instances import toy_instance
from reworkopt.model import (GlobalParams, IncapableMachineError, Job,
                             MachineParams, ProblemInstance, QualitySpec)
from reworkopt.rng import RngStream


def _machine(**kw):
    base = dict(id=0, w0=0.1, cap=0.5, mu_minus=1.0, sigma_minus=0.01,
                mu_plus=0.0, sigma_plus=0.01, alpha=1.0, beta=1e-4,
                ups0=10.0, a=0.01, b0=0.01, gamma=0.01,
                t_pm=1.0, t_ps=0.5, t_cm=4.0, c_pm=10.0, c_ps=2.0, c_cm=50.0)
    base.update(kw)
    return MachineParams(**base)


def _inst(jobs, machines, idle_nominal=None):
    quality = {0: QualitySpec(10.0, 0.1, 10.0, 0.01, 9.9, 10.1)}
    return ProblemInstance(jobs, machines, quality,
                           GlobalParams(0.2, 0.2, 0.08),
                           idle_nominal=idle_nominal)


def test_decode_orders_by_key_then_slot():
    jobs = [Job(0, 0, {1: 1.0, 2: 1.0}),
            Job(1, 0, {1: 1.0}),
            Job(2, 0, {2: 1.0})]
    inst = _inst(jobs, [_machine(id=1), _machine(id=2)])
    ch = Chromosome(assign=[1, 1, 2], key=[0.3, 0.1, 0.5], idle_types=())
    plan = decode(ch, inst)
    assert plan.order[1] == [1, 0]
    assert plan.order[2] == [2]


def test_decode_breaks_key_ties_by_slot_id():
    jobs = [Job(0, 0, {0: 1.0}), Job(1, 0, {0: 1.0}), Job(2, 0, {0: 1.0})]
    inst = _inst(jobs, [_machine()])
    ch = Chromosome(assign=[0, 0, 0], key=[0.4, 0.4, 0.4], idle_types=())
    assert decode(ch, inst).order[0] == [0, 1, 2]


def test_decode_rejects_unknown_machine():
    inst = _inst([Job(0, 0, {0: 1.0})], [_machine()])
    ch = Chromosome(assign=[7], key=[0.5], idle_types=())
    with pytest.raises(IncapableMachineError):
        decode(ch, inst)


def test_decode_rejects_idle_slot_on_incapable_machine():
    # machine 1 hosts no type-0 job, so it cannot hold a type-0 idle slot
    inst = _inst([Job(0, 0, {0: 1.0})], [_machine(id=0), _machine(id=1)])
    ch = Chromosome(assign=[0, 1], key=[0.2, 0.8], idle_types=(0,))
    with pytest.raises(IncapableMachineError):
        decode(ch, inst)


def test_random_chromosome_always_decodes():
    inst = toy_instance(12, seed=3)
    rng = RngStream.from_seed(99)
    bounds = GeneBounds()
    for k in range(50):
        ch = random_chromosome(inst, (0, 1), rng.substream(k))
        plan = decode(ch, inst)
        assert sorted(s for seq in plan.order.values() for s in seq) \
            == list(range(ch.n_slots))
        assert bounds.zeta[0] <= ch.zeta <= bounds.zeta[1]
        assert bounds.thr_r[0] <= ch.thr_r <= bounds.thr_r[1]
        assert bounds.psi[0] <= ch.psi <= bounds.psi[1]
        assert 0 <= ch.n_u <= bounds.n_u_max


def test_random_chromosome_is_deterministic_per_stream():
    inst = toy_instance(8, seed=1)
    a = random_chromosome(inst, (0,), RngStream.from_seed(5))
    b = random_chromosome(inst, (0,), RngStream.from_seed(5))
    assert a.digest() == b.digest()
    assert a.assign == b.assign and a.key == b.key


def test_digest_tracks_every_field():
    base = Chromosome(assign=[0, 0], key=[0.1, 0.2], idle_types=(1,),
                      zeta=0.6, psi=0.5, thr_r=0.5, n_u=2)
    seen = {base.digest()}
    for mutate in (lambda c: setattr(c, "zeta", 0.61),
                   lambda c: setattr(c, "psi", 0.51),
                   lambda c: setattr(c, "thr_r", 0.49),
                   lambda c: setattr(c, "n_u", 3),
                   lambda c: c.key.__setitem__(0, 0.11),
                   lambda c: c.assign.__setitem__(1, 1)):
        c = base.copy()
        mutate(c)
        d = c.digest()
        assert d not in seen
        seen.add(d)
    assert base.copy().digest() == base.digest()


def test_planned_starts_tight_timetable():
    jobs = [Job(0, 0, {0: 2.0}), Job(1, 0, {0: 3.0}), Job(2, 0, {1: 4.0})]
    inst = _inst(jobs, [_machine(id=0), _machine(id=1)],
                 idle_nominal={0: {0: 1.5, 1: 1.5}})
    ch = Chromosome(assign=[0, 0, 1, 0], key=[0.2, 0.4, 0.1, 0.3],
                    idle_types=(0,))
    starts = planned_starts(decode(ch, inst), inst)
    # machine 0 runs job 0, then the idle slot, then job 1
    assert starts[0] == 0.0
    assert starts[3] == 2.0
    assert starts[1] == pytest.approx(3.5)
    assert starts[2] == 0.0
