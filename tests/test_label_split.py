"""A generation labelled over several processes equals one labelled in one.

planner.label_all splits a batch of labels into contiguous shares, and
planner.fan_out forks a helper per share after the first.  A label is a pure function of
its inputs, so populations, histories, counters, kept job keys, archives
and every file of a run must not depend on how many CPUs there are.
Errors come back from helpers in chromosome order, no helper outlives
its batch, and a batch stays in one process where it has to.  Tests set
the CPU count through planner.usable_cpus, and let labels of any length
go to helpers through planner.HELPER_MIN_S.
"""

import os
import threading

import pytest

from reworkopt import planner, rng
from reworkopt.encoding import random_chromosome
from reworkopt.harness import ExperimentConfig, run_experiment
from reworkopt.instances import generate_instance
from reworkopt.model import IncapableMachineError, InvalidInstanceError
from reworkopt.rng import NS_ENV, NS_INIT, NS_JOB, NS_LABEL, RngStream
from reworkopt.simulate import idle_space_count


def _cpus(monkeypatch, n):
    """n usable CPUs, and labels worth a helper however short they are."""
    monkeypatch.setattr(planner, "usable_cpus", lambda: n)
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _idle_types(inst, master):
    counts = idle_space_count(inst, master.substream(NS_INIT))
    return tuple(t for t in sorted(counts) for _ in range(counts[t]))


def _population(pop):
    return [(i.chrom.digest(), repr(i.label), repr(i.obj)) for i in pop]


def _search(monkeypatch, cpus):
    """An initial population and three generations from cold tables:
    populations, history, runs counted and the kept subkey tables of the
    label worlds."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(rng, "_kept", None)
    inst = generate_instance(30, 1)
    master = RngStream.from_seed(4)
    idle = _idle_types(inst, master)
    counter = [0]
    cfg = planner.PlannerConfig(pop_size=7, label_reps=2, counter=counter)
    pop0 = planner.init_population(inst, idle, master, cfg)
    first = _population(pop0), counter[0]
    pop, history = planner.plan(inst, 3, master, cfg, idle, pop=pop0,
                                max_iter=3)
    # the job and environment keys of every label world
    worlds = {master.substream(NS_LABEL, r).substream(ns).key
              for r in range(cfg.label_reps) for ns in (NS_JOB, NS_ENV)}
    kept = {key: dict(rng._kept[1][0][key]) for key in worlds}
    return first, _population(pop), repr(history), counter[0], kept


def test_two_processes_label_as_one_does(monkeypatch, forks):
    serial = _search(monkeypatch, 1)
    assert forks == []
    split = _search(monkeypatch, 2)
    # one helper for the initial population and one per generation
    assert len(forks) == 4
    _no_child_left()
    assert split == serial


def test_a_run_writes_the_same_files_on_one_cpu_and_on_two(
        monkeypatch, forks, tmp_path):
    def run(cpus, where):
        # the manifest records the output directory: keep its name
        _cpus(monkeypatch, cpus)
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        cfg = ExperimentConfig(n_jobs=12, gen_seed=2, pop_size=5, max_iter=4,
                               n_rounds=2, label_reps=2, seeds=(3,),
                               outdir="run")
        run_experiment(cfg)
        root = tmp_path / where / "run"
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    serial = run(1, "serial")
    assert forks == []
    split = run(2, "split")
    assert forks
    _no_child_left()
    assert any(name.endswith("manifest.txt") for name in split)
    assert split == serial


# -- errors --------------------------------------------------------------

def _fragile():
    """An instance on which a chromosome fails to score when it puts
    jobs 0 and 2 both on machine 0: their nominal times there sum past
    the largest float."""
    inst = generate_instance(8, 0)
    inst.jobs[0].nominal_times[0] = 1e308
    inst.jobs[2].nominal_times[0] = 1e308
    chroms = [random_chromosome(inst, (), RngStream.from_seed(s))
              for s in range(6)]
    for ch in chroms:
        ch.assign[0] = ch.assign[2] = 2
    return inst, chroms


def _unscorable(ch):
    ch.assign[0] = ch.assign[2] = 0


def _incapable(ch):
    ch.assign[0] = 99


@pytest.mark.parametrize("spoil,error", [
    ((_unscorable, _incapable), InvalidInstanceError),
    ((_incapable, _unscorable), IncapableMachineError)])
def test_a_helpers_error_reaches_the_caller_in_chromosome_order(
        monkeypatch, forks, spoil, error):
    # the caller labels chromosome 0, then three processes share the
    # rest as [1, 2), [2, 4) and [4, 6): each helper fails on its last
    # chromosome, and the first failure is raised
    _cpus(monkeypatch, 3)
    inst, chroms = _fragile()
    spoil[0](chroms[3])
    spoil[1](chroms[5])
    cfg = planner.PlannerConfig(label_reps=2)
    with pytest.raises(error) as got:
        planner.label_all(inst, chroms, RngStream.from_seed(1), cfg)
    assert len(forks) == 2
    _no_child_left()
    if error is InvalidInstanceError:
        assert got.value.errors == [
            "a run's makespan is inf: values too large to score"]
    else:
        assert "machine 99" in str(got.value)


def test_a_helper_that_sends_nothing_is_a_named_error(monkeypatch, forks):
    # the caller only unpickles, so the failing dumps runs in the helper
    def dumps(obj):
        raise RuntimeError("cannot send")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(planner.pickle, "dumps", dumps)
    inst, chroms = _fragile()
    with pytest.raises(ChildProcessError, match="exited without results"):
        planner.label_all(inst, chroms, RngStream.from_seed(1),
                          planner.PlannerConfig(label_reps=2))
    assert len(forks) == 1
    _no_child_left()


def test_the_callers_own_error_reaps_every_helper(monkeypatch, forks):
    # shares [1, 3) and [3, 6): the caller fails after the fork
    _cpus(monkeypatch, 2)
    inst, chroms = _fragile()
    _unscorable(chroms[2])
    with pytest.raises(InvalidInstanceError):
        planner.label_all(inst, chroms, RngStream.from_seed(1),
                          planner.PlannerConfig(label_reps=2))
    assert len(forks) == 1
    _no_child_left()


# -- one process where required ------------------------------------------

def _on_one_cpu(monkeypatch):
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _with_short_labels(monkeypatch):
    # labels on 8 jobs take far less than a helper costs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _without_fork(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")


def _refuse():
    raise AssertionError("a batch that must stay in one process forked")


@pytest.fixture
def second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("case", [_on_one_cpu, _without_fork,
                                  _with_short_labels])
def test_a_batch_stays_in_one_process_where_it_must(monkeypatch, case):
    inst, chroms = _fragile()
    master = RngStream.from_seed(1)
    cfg = planner.PlannerConfig(label_reps=2)
    expected = [planner.label_static_obj(inst, ch, master, cfg)
                for ch in chroms]
    case(monkeypatch)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", _refuse)
    assert planner.label_all(inst, chroms, master, cfg) == expected
    assert cfg.counter == [2 * len(chroms)]


def test_a_seed_helper_labels_in_its_own_process(monkeypatch, forks,
                                                 tmp_path):
    # two seeds on two CPUs: a helper per seed, whose siblings hold the
    # other CPUs; a helper's fork would come back as its seed's error
    _cpus(monkeypatch, 2)
    caller, fork = os.getpid(), os.fork

    def in_the_caller_only():
        assert os.getpid() == caller, "a seed helper forked"
        return fork()

    monkeypatch.setattr(os, "fork", in_the_caller_only)
    cfg = ExperimentConfig(n_jobs=12, gen_seed=2, pop_size=5, max_iter=2,
                           n_rounds=1, label_reps=2, seeds=(3, 4), jobs=2,
                           outdir=str(tmp_path / "run"))
    assert sorted(run_experiment(cfg)[0]) == [3, 4]
    assert len(forks) == 2
    _no_child_left()


def test_a_batch_stays_in_one_process_while_a_thread_runs(
        monkeypatch, second_thread):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse)
    inst, chroms = _fragile()
    cfg = planner.PlannerConfig(label_reps=2)
    assert len(planner.label_all(inst, chroms, RngStream.from_seed(1),
                                 cfg)) == len(chroms)


def test_a_wrapped_label_sees_every_label_in_this_process(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse)
    seen = []
    label = planner.label_static_obj

    def spy(inst, chrom, master, cfg):
        seen.append(os.getpid())
        return label(inst, chrom, master, cfg)

    monkeypatch.setattr(planner, "label_static_obj", spy)
    inst = generate_instance(20, 0)
    cfg = planner.PlannerConfig(pop_size=5, label_reps=1)
    planner.plan(inst, 2, RngStream.from_seed(2), cfg)
    assert seen == [os.getpid()] * 5 * 3
