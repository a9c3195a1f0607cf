import math
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

import reworkopt
from reworkopt import harness, storage
from reworkopt.cli import _parse_seeds, build_parser, main
from reworkopt.instances import generate_instance, toy_instance
from reworkopt.storage import (ARCHIVE_TAG, load_archive, load_instance,
                               load_manifest, load_report, save_archive,
                               save_instance)


def test_seed_list_parsing():
    assert _parse_seeds("5:8") == (5, 6, 7)
    assert _parse_seeds("1,2,7") == (1, 2, 7)
    assert _parse_seeds("4") == (4,)
    with pytest.raises(Exception):
        _parse_seeds("")


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_generate_writes_a_canonical_instance(tmp_path, capsys):
    out = tmp_path / "case.txt"
    assert main(["generate", "--n-jobs", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    inst = load_instance(out)
    assert inst.n_jobs == 12
    first = out.read_bytes()
    assert main(["generate", "--n-jobs", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first


_RUN_ARGS = ["--n-jobs", "8", "--pop-size", "4", "--max-iter", "4",
             "--rounds", "2", "--label-reps", "1", "--det",
             "--seeds", "0,1"]


def _run_into(d):
    assert main(["run", *_RUN_ARGS, "--out", str(d)]) == 0


def test_run_report_pareto_gantt_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "exp"
    _run_into(run_dir)
    out = capsys.readouterr().out
    assert "seed 0:" in out and "seed 1:" in out

    for seed in (0, 1):
        sd = run_dir / ("seed-%d" % seed)
        rows = load_archive(sd / "archive.tsv")
        assert rows
        man = load_manifest(sd / "manifest.txt")
        assert man["seed"] == seed
        assert (sd / "summary.txt").exists()
    per_seed, aggregate = load_report(run_dir / "report.txt")
    assert [s for s, *_ in per_seed] == [0, 1]
    assert set(aggregate) >= {"mean_hv", "mean_igd", "mean_rpd"}

    report_before = (run_dir / "report.txt").read_bytes()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "report.txt").read_bytes() == report_before

    pooled = tmp_path / "front.tsv"
    assert main(["pareto", "--run-dir", str(run_dir), "--out", str(pooled)]) == 0
    rows = load_archive(pooled)
    assert rows
    pts = [(r[1], r[2]) for r in rows]
    for x, y in pts:
        assert not any(a <= x and b <= y and (a < x or b < y) for a, b in pts)

    svg = tmp_path / "plan.svg"
    assert main(["gantt", "--instance", str(run_dir / "instance.txt"),
                 "--seed", "0", "--online", "--out", str(svg)]) == 0
    head = svg.read_text().splitlines()[0]
    assert "reworkopt-gantt" in head


def test_pareto_reads_each_archive_once(tmp_path, monkeypatch, capsys):
    """pareto pools the rows of each seed's archive from one read, and
    refuses a directory without seed archives in one line."""
    run_dir = tmp_path / "exp"
    for seed, rows in (0, [(0, 4.0, 2.0, "a"), (0, 3.0, 5.0, "b")]), \
            (1, [(1, 3.5, 1.0, "c")]):
        (run_dir / ("seed-%d" % seed)).mkdir(parents=True)
        save_archive(rows, run_dir / ("seed-%d" % seed) / "archive.tsv")
    read = []
    load = storage.load_archive

    def counted(path):
        read.append(os.path.basename(os.path.dirname(path)))
        return load(path)

    monkeypatch.setattr(storage, "load_archive", counted)
    pooled = tmp_path / "front.tsv"
    assert main(["pareto", "--run-dir", str(run_dir), "--out", str(pooled)]) == 0
    assert sorted(read) == ["seed-0", "seed-1"]
    assert load(pooled) == [(0, 3.0, 5.0, "b"), (1, 3.5, 1.0, "c")]
    capsys.readouterr()
    bare = tmp_path / "bare.tsv"
    assert main(["pareto", "--run-dir", str(tmp_path), "--out", str(bare)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("reworkopt: ") and err.count("\n") == 1
    assert not bare.exists()


def test_runs_are_reproducible_across_directories(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _run_into(a)
    _run_into(b)
    for seed in (0, 1):
        pa = a / ("seed-%d" % seed) / "archive.tsv"
        pb = b / ("seed-%d" % seed) / "archive.tsv"
        assert pa.read_bytes() == pb.read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


def test_oracle_verb_checks_its_own_front(capsys):
    assert main(["oracle", "--seed", "0", "--n-jobs", "3", "--check"]) == 0
    out = capsys.readouterr().out
    assert "c_max=" in out
    assert "feasibility: ok" in out


def test_parser_rejects_unknown_verb():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["conquer"])
    # backends are compared by perfbench/run.py, not the CLI
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench"])


def test_a_refused_instance_is_a_one_line_error(tmp_path):
    src = os.path.dirname(os.path.dirname(reworkopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "reworkopt.cli", "generate", "--n-jobs", "4",
         "--seed", "0", "--sigma-q", "-1", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("reworkopt: invalid instance: ")
    assert "type 0: negative sigma_q" in proc.stderr
    assert not out.exists()


def test_a_malformed_instance_file_is_a_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["gantt", "--instance", str(bad),
                 "--out", str(tmp_path / "g.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("reworkopt: ") and err.count("\n") == 1


# small enough that a run which wrongly goes ahead ends quickly
_SMALL = ["--n-jobs", "6", "--pop-size", "2", "--max-iter", "2",
          "--rounds", "1", "--label-reps", "1"]


@pytest.mark.parametrize("argv", [
    ["run", *_SMALL, "--label-reps", "0"],
    ["run", *_SMALL, "--pop-size", "0"],
    ["run", *_SMALL, "--elites", "0"],
    ["run", *_SMALL, "--elites", "-1"],
    ["run", *_SMALL, "--max-iter", "2", "--rounds", "4"],
    ["run", *_SMALL, "--varpi", "0"],
    ["run", *_SMALL, "--n-jobs", "0"],
    ["run", *_SMALL, "--coeff-set", "foo"],
    ["generate", "--coeff-set", "foo"],
    ["generate", "--n-jobs", "0"],
    ["generate", "--type-mix", "nan"],
    ["generate", "--type-mix", "1.5"],
    ["run", *_SMALL, "--type-mix", "nan"],
    ["run", *_SMALL, "--sigma-c", "nan"],
    ["run", *_SMALL, "--mu-c", "nan"],
    ["run", *_SMALL, "--mu-c", "inf"],
    ["run", *_SMALL, "--jobs", "0"],
    ["run", *_SMALL, "--jobs", "-3"],
    ["oracle", "--n-jobs", "12"],
    ["oracle", "--n-jobs", "0", "--check"],
    ["oracle", "--n-jobs", "-3"],
    ["oracle", "--n-u-max", "-1"],
    ["gantt", "--scale", "0"],
    ["gantt", "--scale", "-2"],
    ["gantt", "--scale", "nan"],
    ["gantt", "--scale", "inf"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_refused_option_is_a_one_line_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "oracle":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("reworkopt: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--instance", "nope.txt", *_SMALL[2:], "--out", "out"],
    ["run", *_SMALL, "--reference", "nope.txt", "--out", "out"],
    ["gantt", "--instance", "nope.txt", "--out", "out"],
    ["report", "--run-dir", "out"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_missing_file_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                            argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("reworkopt: No such file or directory: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_an_empty_reference_front_is_a_one_line_error(tmp_path, capsys):
    """A reference archive without points is refused before a run writes
    anything, and so is a report on a directory without seed archives or
    whose archives hold no points."""
    empty = tmp_path / "empty.tsv"
    save_archive([], empty)
    out = tmp_path / "out"
    pointless = tmp_path / "pointless"
    (pointless / "seed-0").mkdir(parents=True)
    save_archive([], pointless / "seed-0" / "archive.tsv")
    for argv in (["run", *_SMALL, "--seeds", "0", "--reference", str(empty),
                  "--out", str(out)],
                 ["report", "--run-dir", str(tmp_path)],
                 ["report", "--run-dir", str(pointless)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("reworkopt: ") and err.count("\n") == 1
        assert not out.exists()
        assert not list(tmp_path.glob("**/report.txt"))


def test_a_run_refuses_an_instance_file_without_jobs(tmp_path, capsys):
    empty = toy_instance(0)
    path = tmp_path / "empty.txt"
    save_instance(empty, path)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(path), *_SMALL[2:],
                 "--out", str(out)]) == 2
    assert "no jobs" in capsys.readouterr().err
    assert not out.exists()


def test_run_starts_no_more_workers_than_seeds(tmp_path, monkeypatch, capsys):
    sizes = []

    class InlinePool:
        """Stands in for the process pool: records its size and runs each
        call at submit, so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    assert main(["run", *_SMALL, "--jobs", "100000", "--seeds", "0:2",
                 "--out", str(tmp_path / "two")]) == 0
    assert main(["run", *_SMALL, "--jobs", "100000", "--seeds", "0",
                 "--out", str(tmp_path / "one")]) == 0
    assert sizes == [2]
    assert capsys.readouterr().out.count("archive points") == 3


def _huge_eta(inst):
    inst.globals.eta = 1e300


def _huge_costs(inst):
    for m in inst.machines:
        m.c_cm = m.c_pm = 1e308


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("spoil,objective", [
    (_huge_eta, "makespan"), (_huge_costs, "maintenance cost")],
    ids=["eta", "costs"])
def test_an_unscorable_instance_is_a_one_line_error(tmp_path, capsys, spoil,
                                                    objective, jobs):
    """Values that pass validation but overflow an objective end the run
    before any seed writes a file, also when the error comes back from
    a worker process."""
    inst = generate_instance(8, 0)
    spoil(inst)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(path), "--pop-size", "4",
                 "--max-iter", "2", "--rounds", "1", "--seeds", "0,1",
                 "--jobs", jobs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("reworkopt: invalid instance: a run's %s is inf: values "
                   "too large to score\n" % objective)
    assert not list(out.glob("seed-*"))


def _huge_repair_cost(inst):
    for m in inst.machines:
        m.c_cm = 1e300


def _huge_nominal_time(inst):
    times = inst.jobs[0].nominal_times
    times.update((mid, 1e300) for mid in times)


@pytest.mark.parametrize("spoil", [_huge_repair_cost, _huge_nominal_time],
                         ids=["c_cm", "nominal"])
def test_huge_finite_objectives_score(tmp_path, capsys, spoil):
    """Objectives so large that adding 1 leaves them unchanged still give
    the report a nondegenerate axis: the run exits 0 with finite
    indicators."""
    inst = generate_instance(6, 0)
    spoil(inst)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    out = tmp_path / "out"
    assert main(["run", "--instance", str(path), "--pop-size", "2",
                 "--max-iter", "2", "--rounds", "1", "--seeds", "0",
                 "--out", str(out)]) == 0
    assert "report:" in capsys.readouterr().out
    per_seed, aggregate = load_report(out / "report.txt")
    assert all(math.isfinite(x) for row in per_seed for x in row[1:])
    assert all(math.isfinite(x) for x in aggregate.values())
