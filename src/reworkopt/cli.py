"""Command-line front end.

Verbs: generate (instance files), run (seeded experiments), report
(recompute indicators from stored archives), gantt (render one seeded
simulation), pareto (pool per-seed archives), oracle (brute-force front
and feasibility check on small instances).  Kernel backends are compared
by perfbench/run.py, once as is and once with REWORKOPT_PURE=1.
Every verb derives all randomness from its --seed / --seeds flags.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, storage
from .encoding import GeneBounds, decode, random_chromosome
from .gantt import export_gantt
from .harness import (ExperimentConfig, collect_archive_rows,
                      collect_archives, load_reference, nondominated,
                      run_experiment, write_aggregate_report)
from .improver import make_rescheduler
from .instances import generate_instance, oracle_toy, toy_instance
from .model import InvalidInstanceError, InvalidOptionError
from .oracle import check_feasibility, enumerate_pareto
from .orchestrator import _pilot_idle_types
from .rng import NS_INIT, NS_ONLINE, RngStream
from .simulate import ONLINE, STATIC, SimConfig, simulate


def _parse_seeds(text: str):
    if ":" in text:
        lo, hi = text.split(":")
        seeds = tuple(range(int(lo), int(hi)))
    else:
        seeds = tuple(int(s) for s in text.split(",") if s)
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list: %r" % text)
    return seeds


def _cmd_generate(args):
    out = vars(args).pop("out")
    inst = generate_instance(**vars(args))
    storage.save_instance(inst, out)
    print("wrote %s (%d jobs, %d machines)" % (out, inst.n_jobs,
                                               len(inst.machines)))
    return 0


def _cmd_run(args):
    cfg = ExperimentConfig(**vars(args))
    results, report_path = run_experiment(cfg)
    for seed in sorted(results):
        print("seed %d: %d archive points" % (seed, len(results[seed])))
    print("report: %s" % report_path)
    return 0


def _cmd_report(args):
    per_seed_points = collect_archives(args.run_dir, args.seeds)
    reference = load_reference(args.reference) if args.reference else None
    path = write_aggregate_report(args.run_dir, per_seed_points, reference)
    print("report: %s" % path)
    return 0


def _sim_one(inst, seed: int, mode: str, det: bool):
    master = RngStream.from_seed(seed)
    idle_types = _pilot_idle_types(inst, master)
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1),
                              GeneBounds())
    hook = make_rescheduler(30) if mode == ONLINE else None
    cfg = SimConfig(mode=mode, det=det, rescheduler=hook)
    return simulate(inst, decode(chrom, inst), master.substream(NS_ONLINE, 0, 0),
                    cfg)


def _cmd_gantt(args):
    if args.instance:
        inst = storage.load_instance(args.instance)
    else:
        inst = toy_instance(seed=args.seed)
    trace = _sim_one(inst, args.seed, ONLINE if args.online else STATIC,
                     args.det)
    export_gantt(trace, args.out, scale=args.scale)
    blocks = (len(trace.job_events) + len(trace.idle_events)
              + len(trace.maint_events))
    print("wrote %s (%d blocks, %d rescheduling points)" % (
        args.out, blocks, len(trace.resched_points)))
    return 0


def _cmd_pareto(args):
    archives = collect_archive_rows(args.run_dir, args.seeds)
    rows = [(seed, cmax, cost, digest) for seed in sorted(archives)
            for _, cmax, cost, digest in archives[seed]]
    front = set(nondominated([(r[1], r[2]) for r in rows]))
    pooled = [r for r in rows if (r[1], r[2]) in front]
    storage.save_archive(pooled, args.out)
    print("wrote %s (%d pooled points)" % (args.out, len(pooled)))
    return 0


def _cmd_oracle(args):
    inst = oracle_toy(args.seed, n_jobs=args.n_jobs)
    sols = enumerate_pareto(inst, n_u_max=args.n_u_max)
    for sol in sols:
        print("c_max=%r cost=%r zeta=%.4f n_u=%d assign=%s" % (
            sol.objectives.makespan, sol.objectives.maint_cost, sol.zeta,
            sol.n_u, ",".join(str(m) for m in sol.assign)))
    if args.check:
        trace = _sim_one(inst, args.seed, STATIC, det=False)
        violations = check_feasibility(inst, trace)
        for v in violations:
            print("violation: %s" % v)
        print("feasibility: %s" % ("FAIL" if violations else "ok"))
        return 1 if violations else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reworkopt", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    # generate and run leave an unset flag out, so generate_instance and
    # ExperimentConfig supply its default; each dest is their parameter
    g = sub.add_parser("generate", help="write a benchmark instance file",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--n-jobs", type=int, help="benchmark sizes are 100/200/300")
    g.add_argument("--seed", type=int)
    g.add_argument("--sigma-q", type=float,
                   help="benchmark spreads are 0.03/0.06/0.09")
    g.add_argument("--coeff-set")
    g.add_argument("--type-mix", type=float)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="run the optimizer over seeds",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--instance", dest="instance_path",
                   help="instance file; omit to generate")
    r.add_argument("--n-jobs", type=int)
    r.add_argument("--sigma-q", type=float)
    r.add_argument("--type-mix", type=float)
    r.add_argument("--coeff-set")
    r.add_argument("--gen-seed", type=int)
    r.add_argument("--seeds", type=_parse_seeds,
                   help="comma list '0,3,7' or range '0:50'")
    r.add_argument("--pop-size", type=int)
    r.add_argument("--max-iter", type=int)
    r.add_argument("--rounds", dest="n_rounds", type=int)
    r.add_argument("--elites", type=int)
    r.add_argument("--varpi", type=float)
    r.add_argument("--mu-c", type=float)
    r.add_argument("--sigma-c", type=float)
    r.add_argument("--label-reps", type=int)
    r.add_argument("--det", action="store_true",
                   help="mean-value dynamics (debugging)")
    r.add_argument("--jobs", type=int,
                   help="processes for the seeds, at most (see "
                        "planner.fan_out)")
    r.add_argument("--reference", dest="reference_path",
                   help="archive file used as reference front")
    r.add_argument("--out", dest="outdir", required=True)
    r.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="recompute indicators for a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seeds", type=_parse_seeds, default=None)
    p.add_argument("--reference")
    p.set_defaults(func=_cmd_report)

    ga = sub.add_parser("gantt", help="simulate one seed and render an SVG chart")
    ga.add_argument("--instance", help="instance file; omit for a built-in toy")
    ga.add_argument("--seed", type=int, default=0)
    ga.add_argument("--online", action="store_true",
                    help="enable rework rescheduling")
    ga.add_argument("--det", action="store_true")
    ga.add_argument("--scale", type=float, default=1.0,
                    help="x user units per time unit")
    ga.add_argument("--out", required=True)
    ga.set_defaults(func=_cmd_gantt)

    pa = sub.add_parser("pareto", help="pool per-seed archives into one front")
    pa.add_argument("--run-dir", required=True)
    pa.add_argument("--seeds", type=_parse_seeds, default=None)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_pareto)

    orc = sub.add_parser("oracle", help="brute-force front of a tiny instance")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--n-jobs", type=int, default=None)
    orc.add_argument("--n-u-max", type=int, default=2)
    orc.add_argument("--check", action="store_true",
                     help="also simulate and run the feasibility checker")
    orc.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    """Run one verb; a refused option, instance or file, or a path that
    names no such file or directory, is a one-line error and exit
    status 2."""
    args = build_parser().parse_args(argv)
    del args.verb                       # leave the verb's own options only
    cmd = vars(args).pop("func")
    try:
        return cmd(args)
    except (InvalidOptionError, InvalidInstanceError,
            storage.FormatError) as err:
        print("reworkopt: %s" % err, file=sys.stderr)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as err:
        print("reworkopt: %s: %s" % (err.strerror, err.filename),
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
