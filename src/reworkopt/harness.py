"""Seeded experiment runner.

Runs the optimizer over a list of seeds, persists one directory per
seed (manifest, archive, summary) and an aggregate indicator report.
Outputs carry no timestamps, so identical configs rerun to identical
bytes; seeds can execute in parallel because no two seeds share a file.
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass

from . import __version__, storage
from .instances import GENERATOR_DEFAULTS, generate_instance
from .metrics import bounds_of, hypervolume, igd, normalize, rpd
from .model import InvalidOptionError, front_insert
from .orchestrator import DpeiaConfig, carry, dpeia
from .planner import usable_cpus


@dataclass
class ExperimentConfig:
    """Everything a run needs.  The generator spec defaults as
    instances.generate_instance does, the algorithm's options as
    DpeiaConfig does.  Construction checks every option (raising
    InvalidOptionError), its declared type first, so a refused run
    writes nothing."""

    n_jobs: int = GENERATOR_DEFAULTS["n_jobs"]
    sigma_q: float = GENERATOR_DEFAULTS["sigma_q"]
    type_mix: float = GENERATOR_DEFAULTS["type_mix"]
    coeff_set: str = GENERATOR_DEFAULTS["coeff_set"]
    gen_seed: int = GENERATOR_DEFAULTS["seed"]
    instance_path: str | None = None    # set: load this file, ignore the generator spec
    pop_size: int = DpeiaConfig.pop_size
    max_iter: int = DpeiaConfig.max_iter
    n_rounds: int = DpeiaConfig.n_rounds
    elites: int | None = DpeiaConfig.elites
    varpi: float = DpeiaConfig.varpi
    mu_c: float = DpeiaConfig.mu_c
    sigma_c: float = DpeiaConfig.sigma_c
    label_reps: int = DpeiaConfig.label_reps
    det: bool = DpeiaConfig.det
    seeds: tuple[int, ...] = (0,)
    outdir: str = "runs"
    # concurrent seeds; with one worker, each generation is labelled on
    # all usable CPUs
    jobs: int = 1
    reference_path: str | None = None   # archive file with reference points

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                shown = hint.__name__ if isinstance(hint, type) else hint
                raise InvalidOptionError(
                    f"{name} must be {shown}, got {value!r}")
        if not self.seeds:
            raise InvalidOptionError("need at least one seed")
        if self.jobs < 1:
            raise InvalidOptionError(
                f"need at least one worker, got {self.jobs}")
        if self.instance_path is None and self.n_jobs < 1:
            raise InvalidOptionError("generator spec needs a positive job count")
        self.algo()

    def algo(self) -> DpeiaConfig:
        return carry(self, DpeiaConfig)


def _conforms(value, hint) -> bool:
    """Whether value is of the declared type hint; an int passes as a
    float when a float can hold it."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, tuple)
                and all(_conforms(v, args[0]) for v in value))
    if hint is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def resolve_instance(cfg: ExperimentConfig):
    """The run's instance, validated (InvalidInstanceError otherwise)."""
    if cfg.instance_path is not None:
        return storage.load_instance(cfg.instance_path)
    return generate_instance(cfg.n_jobs, cfg.gen_seed, sigma_q=cfg.sigma_q,
                             coeff_set=cfg.coeff_set, type_mix=cfg.type_mix)


def seed_dir(outdir, seed: int) -> str:
    return os.path.join(outdir, "seed-%d" % seed)


def _run_one_seed(inst, cfg: ExperimentConfig, seed: int):
    res = dpeia(inst, cfg.algo(), seed)
    rows = [(seed, e.objectives.makespan, e.objectives.maint_cost, e.digest)
            for e in res.archive.entries]
    sdir = seed_dir(cfg.outdir, seed)
    storage.ensure_dir(sdir)
    storage.save_archive(rows, os.path.join(sdir, "archive.tsv"))
    storage.save_manifest(
        {"version": __version__, "seed": seed, "config": asdict(cfg),
         "budgets": [list(b) for b in res.schedule.rounds],
         "rounds": res.rounds_log, "sim_calls": res.sim_calls,
         "idle_types": list(res.idle_types),
         "archive": [[e.objectives.makespan, e.objectives.maint_cost,
                      e.digest] for e in res.archive.entries]},
        os.path.join(sdir, "manifest.txt"))
    _write_summary(sdir, seed, res, rows)
    return seed, rows


def _write_summary(sdir, seed, res, rows):
    lines = [storage.SUMMARY_TAG, "seed = %d" % seed,
             "sim_calls = %d" % res.sim_calls,
             "archive_size = %d" % len(res.archive)]
    for log in res.rounds_log:
        lines.append("round %d: plan_iters=%d online_iters=%d archive=%d" % (
            log["round"], log["plan_iters"], log["online_iters"],
            log["archive_size"]))
    for _, cmax, cost, digest in sorted(rows, key=lambda r: r[1]):
        lines.append("point %s %s %s" % (repr(cmax), repr(cost), digest))
    with open(os.path.join(sdir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def nondominated(points):
    """The distinct nondominated points, sorted."""
    front: list = []
    for p in points:
        front_insert(front, p)
    return sorted(front)


def _padded_bounds(point_sets):
    # a degenerate axis (every archive has the same cost, say) would make
    # normalization blow up; widen it by one unit instead, or by 2**-50
    # of its value where one unit is lost in rounding (above 2**53)
    (lx, ly), (hx, hy) = bounds_of(*point_sets)
    if hx <= lx:
        hx = lx + max(1.0, abs(lx) * 2.0 ** -50)
    if hy <= ly:
        hy = ly + max(1.0, abs(ly) * 2.0 ** -50)
    return ((lx, ly), (hx, hy))


def score_archives(per_seed_points: dict[int, list], reference=None):
    """Per-seed (hv, igd, rpd) plus aggregate means.

    The reference front defaults to the nondominated union of all seed
    archives; normalization bounds always span reference plus archives.
    """
    if not per_seed_points:
        raise InvalidOptionError("no seed archives to score")
    sets = [pts for pts in per_seed_points.values() if pts]
    if reference is None:
        pooled = [p for pts in sets for p in pts]
        reference = nondominated(pooled)
    if not reference:
        raise InvalidOptionError("empty reference front")
    bounds = _padded_bounds(sets + [reference])
    ref_n = normalize(reference, bounds)
    best_cmax = min(p[0] for p in reference)
    per_seed = []
    for seed in sorted(per_seed_points):
        pts = per_seed_points[seed]
        if not pts:
            per_seed.append((seed, 0.0, float("inf"), float("inf")))
            continue
        pn = normalize(pts, bounds)
        hv = hypervolume(pn)
        gd = igd(ref_n, pn)
        seed_best = min(p[0] for p in pts)
        dev = rpd(seed_best, best_cmax) if best_cmax > 0 else 0.0
        per_seed.append((seed, hv, gd, dev))
    n = len(per_seed)
    aggregate = {
        "mean_hv": sum(r[1] for r in per_seed) / n,
        "mean_igd": sum(r[2] for r in per_seed) / n,
        "mean_rpd": sum(r[3] for r in per_seed) / n,
        "reference_size": float(len(reference)),
    }
    return per_seed, aggregate, reference


def load_reference(path) -> list:
    """The (c_max, cost) points of the archive file at path, to score
    archives against; a file without points is refused."""
    points = [(cmax, cost) for _, cmax, cost, _ in storage.load_archive(path)]
    if not points:
        raise InvalidOptionError(f"reference front {path} holds no points")
    return points


def collect_archive_rows(outdir, seeds=None) -> dict[int, list]:
    """Read per-seed archive files back as {seed: archive rows}; a run
    directory without seed-* archives is refused."""
    if seeds is None:
        seeds = sorted(int(name.split("-", 1)[1])
                       for name in os.listdir(outdir)
                       if name.startswith("seed-"))
        if not seeds:
            raise InvalidOptionError(f"{outdir} holds no seed-* archives")
    return {seed: storage.load_archive(os.path.join(seed_dir(outdir, seed),
                                                    "archive.tsv"))
            for seed in seeds}


def collect_archives(outdir, seeds=None) -> dict[int, list]:
    """Per-seed archive files as {seed: [(c_max, cost), ...]}."""
    return {seed: [(cmax, cost) for _, cmax, cost, _ in rows]
            for seed, rows in collect_archive_rows(outdir, seeds).items()}


def write_aggregate_report(outdir, per_seed_points, reference=None) -> str:
    per_seed, aggregate, _ = score_archives(per_seed_points, reference)
    path = os.path.join(outdir, "report.txt")
    storage.save_report(per_seed, aggregate, path)
    return path


def run_experiment(cfg: ExperimentConfig):
    """Run every seed, persist results, write the aggregate report.

    Returns (per_seed_rows, report_path).
    """
    inst = resolve_instance(cfg)
    reference = None
    if cfg.reference_path is not None:
        reference = load_reference(cfg.reference_path)
    storage.ensure_dir(cfg.outdir)
    if cfg.instance_path is None:
        storage.save_instance(inst, os.path.join(cfg.outdir, "instance.txt"))
    results = {}
    # the pool forks all its workers at the first submit: start no more
    # than there are seeds, and no more CPU-bound workers than CPUs
    workers = min(cfg.jobs, len(cfg.seeds), usable_cpus())
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futs = [ex.submit(_run_one_seed, inst, cfg, s) for s in cfg.seeds]
            for fut in futs:
                seed, rows = fut.result()
                results[seed] = rows
    else:
        for s in cfg.seeds:
            seed, rows = _run_one_seed(inst, cfg, s)
            results[seed] = rows
    per_seed_points = {s: [(r[1], r[2]) for r in rows]
                       for s, rows in results.items()}
    report_path = write_aggregate_report(cfg.outdir, per_seed_points, reference)
    return results, report_path
