import math
import os
from pathlib import Path

import pytest

from reworkopt import harness
from reworkopt.harness import (ExperimentConfig, _padded_bounds,
                               collect_archives, nondominated, run_experiment,
                               score_archives, write_aggregate_report)
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import InvalidInstanceError, InvalidOptionError
from reworkopt.storage import load_manifest, save_instance


def test_nondominated_filters_and_sorts():
    pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (2.0, 2.0), (2.5, 2.5)]
    assert nondominated(pts) == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]


def test_padded_bounds_widens_degenerate_axes():
    bounds = _padded_bounds([[(1.0, 5.0)], [(1.0, 7.0)]])
    assert bounds == ((1.0, 5.0), (2.0, 7.0))
    bounds = _padded_bounds([[(4.0, 2.0)]])
    assert bounds == ((4.0, 2.0), (5.0, 3.0))


def test_score_archives_golden():
    per_seed = {0: [(1.0, 3.0), (2.0, 2.0)], 1: [(3.0, 1.0)]}
    rows, agg, ref = score_archives(per_seed)
    assert ref == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    # normalized fronts: seed 0 -> {(0,1), (.5,.5)}, seed 1 -> {(1,0)}
    (s0, hv0, igd0, rpd0), (s1, hv1, igd1, rpd1) = rows
    assert (s0, s1) == (0, 1)
    assert hv0 == pytest.approx(0.25)
    assert igd0 == pytest.approx(math.sqrt(0.5) / 3)
    assert rpd0 == 0.0
    assert hv1 == 0.0
    assert igd1 == pytest.approx((math.sqrt(2) + math.sqrt(0.5)) / 3)
    assert rpd1 == pytest.approx(200.0)
    assert agg["mean_hv"] == pytest.approx(0.125)
    assert agg["mean_rpd"] == pytest.approx(100.0)
    assert agg["reference_size"] == 3.0


def test_score_archives_empty_seed_and_reference():
    rows, agg, _ = score_archives({0: [(1.0, 1.0), (2.0, 0.5)], 1: []})
    assert rows[1] == (1, 0.0, float("inf"), float("inf"))
    assert math.isinf(agg["mean_igd"])
    with pytest.raises(ValueError):
        score_archives({0: []})


def test_score_archives_refuses_no_seeds(tmp_path):
    with pytest.raises(InvalidOptionError, match="no seed archives"):
        score_archives({}, [(1.0, 1.0)])
    with pytest.raises(InvalidOptionError, match="no seed archives"):
        write_aggregate_report(tmp_path, {}, [(1.0, 1.0)])
    assert not (tmp_path / "report.txt").exists()


def test_score_archives_accepts_external_reference():
    per_seed = {0: [(2.0, 2.0)]}
    rows, _, ref = score_archives(per_seed, reference=[(1.0, 1.0), (4.0, 4.0)])
    assert ref == [(1.0, 1.0), (4.0, 4.0)]
    # seed best c_max 2.0 against reference best 1.0
    assert rows[0][3] == pytest.approx(100.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_jobs=0)
    # each seed owns a directory, and its stream reduces it mod 2**64
    for seeds in [(-1,), (2 ** 64,), (10 ** 300,), (3, 3), (5, 5 + 2 ** 64)]:
        with pytest.raises(InvalidOptionError, match="seeds must be distinct"):
            ExperimentConfig(seeds=seeds)
    assert ExperimentConfig(seeds=(0, 2 ** 64 - 1)).seeds == (0, 2 ** 64 - 1)
    cfg = ExperimentConfig(n_jobs=0, instance_path="whatever.txt")
    assert cfg.instance_path == "whatever.txt"


def _tiny_cfg(outdir, **kw):
    base = dict(n_jobs=8, gen_seed=3, pop_size=4, max_iter=4, n_rounds=2,
                label_reps=1, det=True, seeds=(0, 1), outdir=str(outdir))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_round_trips_through_collect(tmp_path):
    cfg = _tiny_cfg(tmp_path / "solo")
    results, report_path = run_experiment(cfg)
    assert set(results) == {0, 1}
    assert report_path.endswith("report.txt")
    back = collect_archives(cfg.outdir)
    assert set(back) == {0, 1}
    for seed, rows in results.items():
        assert back[seed] == [(r[1], r[2]) for r in rows]


def _outputs(outdir):
    """Every file of a run by its path, each manifest without its config
    entry (which holds jobs and outdir)."""
    out = {}
    for path in sorted(Path(outdir).rglob("*")):
        name = str(path.relative_to(outdir))
        if path.name == "manifest.txt":
            manifest = load_manifest(path)
            del manifest["config"]
            out[name] = manifest
        elif path.is_file():
            out[name] = path.read_bytes()
    return out


def test_parallel_seeds_match_serial(tmp_path):
    serial = _tiny_cfg(tmp_path / "serial")
    run_experiment(serial)
    parallel = _tiny_cfg(tmp_path / "parallel", jobs=2)
    run_experiment(parallel)
    got = _outputs(parallel.outdir)
    assert sorted(got) == [
        "instance.txt", "report.txt",
        *("seed-%d/%s" % (s, f) for s in (0, 1)
          for f in ("archive.tsv", "manifest.txt", "summary.txt"))]
    assert got == _outputs(serial.outdir)


@pytest.mark.parametrize("cpus,width", [(64, 3), (2, 2), (1, None)])
def test_no_more_seed_workers_than_usable_cpus(tmp_path, monkeypatch, forks,
                                               cpus, width):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = _tiny_cfg(tmp_path, jobs=64, seeds=(0, 1, 2), n_rounds=1,
                    max_iter=1)
    results, _ = run_experiment(cfg)
    assert sorted(results) == [0, 1, 2]
    # a helper per worker, and none forked by the caller's labels
    assert len(forks) == (width or 0)


def _fail_on(seeds):
    """harness._run_one_seed, but each of seeds fails: the first after
    its run, the others at once, so a later seed fails first."""
    run = harness._run_one_seed

    def run_one_seed(inst, cfg, seed):
        if seed == seeds[0]:
            run(inst, cfg, seed)
        if seed in seeds:
            raise InvalidOptionError("seed %d fails" % seed)
        return run(inst, cfg, seed)
    return run_one_seed


@pytest.mark.parametrize("failing,first", [((1, 2), 1), ((2,), 2)])
def test_a_seed_helpers_error_reaches_the_caller_in_seed_order(
        tmp_path, monkeypatch, forks, failing, first):
    # seeds 0-2 on three helpers; the first failing seed's error is
    # raised, and no helper outlives the run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(harness, "_run_one_seed", _fail_on(failing))
    cfg = _tiny_cfg(tmp_path, jobs=3, seeds=(0, 1, 2), n_rounds=1,
                    max_iter=1)
    with pytest.raises(InvalidOptionError, match="seed %d fails" % first):
        run_experiment(cfg)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_refuses_an_invalid_instance_file(tmp_path):
    inst = toy_instance(3, seed=0)
    q = inst.quality[0]
    q.lo = q.hi = q.mu_q + 1.0
    path = tmp_path / "thin.txt"
    save_instance(inst, path)
    cfg = ExperimentConfig(instance_path=str(path), pop_size=2, max_iter=1,
                           n_rounds=1, outdir=str(tmp_path / "out"))
    with pytest.raises(InvalidInstanceError, match="quality interval"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_invalid_generator_spec(tmp_path):
    cfg = ExperimentConfig(n_jobs=4, sigma_q=-0.1, pop_size=2, max_iter=1,
                           n_rounds=1, outdir=str(tmp_path / "out"))
    with pytest.raises(InvalidInstanceError, match="sigma_q"):
        run_experiment(cfg)


def test_run_deals_each_job_to_its_own_machines_in_the_pilot(tmp_path):
    # job 0 of type 0 loses machine 0, which its type-mates keep: the
    # pilot must not deal it onto machine 0 by the type's round-robin
    inst = generate_instance(30, 1)
    del inst.jobs[0].nominal_times[0]
    path = str(tmp_path / "inst.txt")
    save_instance(inst, path)
    cfg = ExperimentConfig(instance_path=path, pop_size=4, max_iter=2,
                           n_rounds=1, label_reps=1, seeds=(0,),
                           outdir=str(tmp_path / "out"))
    results, _ = run_experiment(cfg)
    assert results[0]
