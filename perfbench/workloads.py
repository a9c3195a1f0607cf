"""The benchmark's workloads.

Every workload is a closed loop driven from one process: it prepares
its inputs from the seed (``setup``), then runs a fixed round of
operations (``op``), and checks each operation's output (``check``).
The first round gets the full checks; later rounds replay the same
operations and must reproduce the first round's fingerprint exactly.

One fault of the program does not fail the run: a rework copy that
starts before its original ends (see CHANGES.md).  An online-200
operation whose output shows that fault and nothing else raises
``KnownFault`` in every round, and the run counts it as failed;
dpeia-seeds reports such traces without counting them.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import math
import os
import shutil
import tempfile

import reworkopt
from reworkopt import encoding, harness, improver, oracle, orchestrator, planner
from reworkopt.encoding import GeneBounds
from reworkopt.instances import generate_instance
from reworkopt.rng import NS_INIT, NS_LABEL, NS_ONLINE, RngStream

import checks
from layers import append_score

simulate_mod = importlib.import_module("reworkopt.simulate")

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "archive_digests.json")
RUNS_DIR = os.path.join(os.path.dirname(HERE), ".perfbench-runs")

SIGMA_Q = 0.06
COEFF_SET = "alternate"


class KnownFault(Exception):
    """The operation's output shows only the early rework-copy fault."""


def early_copy_only(trace, errs: list[str]) -> bool:
    """True when every violation is a rework copy that starts before its
    original ends, as reported by ``checks`` or by the program's oracle."""
    early = checks.copies_before_origin(trace)
    return bool(early) and all(e in early or "before its origin" in e
                               for e in errs)


def trace_errors(inst, trace) -> list[str]:
    return checks.check_trace(inst, trace) + oracle.check_feasibility(inst, trace)


def _instance(n_jobs: int, seed: int):
    inst = generate_instance(n_jobs, seed, sigma_q=SIGMA_Q, coeff_set=COEFF_SET)
    errs = reworkopt.validate_instance(inst)
    if errs:
        raise ValueError("generated instance is invalid: %s" % errs)
    return inst


def _pilot(inst, master: RngStream) -> tuple[int, ...]:
    """Idle slots per type, sized by the program's pilot run."""
    counts = simulate_mod.idle_space_count(inst, master.substream(NS_INIT))
    return tuple(t for t in sorted(counts) for _ in range(counts[t]))


class PlanWorkload:
    """Offline planning: one planner generation per operation."""

    name = "plan-100"
    N_JOBS = 100
    POP = 20
    REPS = 5
    GENERATIONS = 10            # one round; the control value spans 2 -> 0

    def setup(self, seed: int) -> None:
        self.inst = _instance(self.N_JOBS, seed)
        self.master = RngStream.from_seed(seed)
        self.idle_types = _pilot(self.inst, self.master)
        self.cfg = planner.PlannerConfig(pop_size=self.POP, label_reps=self.REPS)
        self.pop0 = planner.init_population(self.inst, self.idle_types,
                                            self.master, self.cfg)
        self.pop = self.pop0
        self.prints: dict[int, tuple] = {}

    @property
    def n_ops(self) -> int:
        return self.GENERATIONS

    def op(self, i: int):
        pop_in = self.pop0 if i == 0 else self.pop
        pop, history = planner.plan(self.inst, 1, self.master, self.cfg,
                                    self.idle_types, pop=pop_in, iter_offset=i,
                                    max_iter=self.GENERATIONS)
        self.pop = pop
        return pop_in, pop, history

    def notes(self) -> list[str]:
        return []

    def check(self, i: int, out) -> list[str]:
        pop_in, pop, history = out
        fp = tuple((ind.chrom.digest(), ind.label) for ind in pop)
        if i in self.prints:
            return [] if fp == self.prints[i] else [
                "generation %d differs from the first round" % (i + 1)]
        self.prints[i] = fp
        prev_best = max(ind.label for ind in pop_in)
        errs = checks.check_population(self.inst, pop, self.POP, self.cfg.bounds,
                                       self.idle_types, prev_best)
        labels = [ind.label for ind in pop]
        if history != [(i + 1, max(labels), sum(labels) / len(labels))]:
            errs.append("history %r does not describe the population" % history)
        seen = set()
        for ind in pop:
            if ind.chrom.digest() in seen:
                continue
            seen.add(ind.chrom.digest())
            tr = self._static(ind.chrom, 0)
            errs += checks.check_trace(self.inst, tr, ind.chrom)
            errs += oracle.check_feasibility(self.inst, tr)
        best = max(pop, key=lambda ind: ind.label)
        if not math.isclose(best.label, self._label(best.chrom), rel_tol=1e-12):
            errs.append("best label %r is not the mean planning fitness"
                        % best.label)
        return errs

    def _static(self, chrom, rep: int):
        return simulate_mod.simulate(
            self.inst, encoding.decode(chrom, self.inst),
            self.master.substream(NS_LABEL, rep),
            simulate_mod.SimConfig(mode=simulate_mod.STATIC))

    def _label(self, chrom) -> float:
        """Replication-averaged q^2 / (max(cost, 1) * makespan)."""
        total = 0.0
        for rep in range(self.REPS):
            tr = self._static(chrom, rep)
            total += tr.q_count ** 2 / (max(tr.maint_cost, 1.0) * tr.makespan)
        return total / self.REPS


class _Recorder:
    """Rescheduler hook that keeps every trigger's answer, and its
    context when the answer is to be checked."""

    def __init__(self, hook, keep_ctx: bool):
        self.hook = hook
        self.keep_ctx = keep_ctx
        self.calls = []

    def __call__(self, ctx):
        queues, f_r = self.hook(ctx)
        self.calls.append((ctx if self.keep_ctx else None, f_r))
        return queues, f_r


class OnlineWorkload:
    """Online execution with rework rescheduling on a pinned set of
    chromosomes."""

    name = "online-200"
    N_JOBS = 200
    N_CHROMS = 8
    # the instance and the chromosomes come from this generator seed, not
    # from --seed: the program puts a rework copy before its original on
    # some chromosomes of most seeds, and with a pinned set those are the
    # same operations in every run, counted as failed every time
    GEN_SEED = 0
    # policy genes shared by the set: a low trigger threshold makes rework
    # fire at nearly every nonconforming completion, and equal genes keep
    # the operations alike, so a round's cost does not hinge on a few draws
    THR_R = 0.2
    ZETA, PSI, N_U = 0.6, 0.5, 2
    DPEIA_ITERS, DPEIA_ROUNDS = 20, 4

    def setup(self, seed: int) -> None:
        self.inst = _instance(self.N_JOBS, self.GEN_SEED)
        self.master = RngStream.from_seed(self.GEN_SEED)
        self.idle_types = _pilot(self.inst, self.master)
        schedule = orchestrator.allocate_budget(self.DPEIA_ITERS, self.DPEIA_ROUNDS)
        self.budget = schedule.rounds[-1][1]
        crng = self.master.substream(NS_INIT, 1)
        self.chroms = []
        for _ in range(self.N_CHROMS):
            ch = encoding.random_chromosome(self.inst, self.idle_types, crng,
                                            GeneBounds())
            ch.thr_r, ch.zeta, ch.psi, ch.n_u = (self.THR_R, self.ZETA,
                                                 self.PSI, self.N_U)
            self.chroms.append(ch)
        self.prints: dict[int, tuple] = {}
        self.faulty: dict[int, str] = {}

    @property
    def n_ops(self) -> int:
        return self.N_CHROMS

    def op(self, i: int):
        # the first execution keeps each trigger's context for the checks
        hook = _Recorder(improver.make_rescheduler(self.budget),
                         keep_ctx=i not in self.prints)
        trace = reworkopt.simulate(
            self.inst, encoding.decode(self.chroms[i], self.inst),
            self.master.substream(NS_ONLINE, 0, i),
            simulate_mod.SimConfig(mode=simulate_mod.ONLINE, rescheduler=hook))
        return trace, hook.calls

    @staticmethod
    def _fingerprint(trace, calls) -> tuple:
        return (trace.makespan, trace.maint_cost, trace.q_count,
                len(trace.job_events), tuple(f for _, f in calls))

    def check(self, i: int, out) -> list[str]:
        trace, calls = out
        fp = self._fingerprint(trace, calls)
        if i in self.prints:
            if fp != self.prints[i]:
                return ["chromosome %d ran differently from its first run" % i]
            if i in self.faulty:
                raise KnownFault(self.faulty[i])
            return []
        self.prints[i] = fp
        errs = trace_errors(self.inst, trace)
        if len(calls) != len(trace.resched_points):
            errs.append("%d rescheduler calls for %d triggers"
                        % (len(calls), len(trace.resched_points)))
        errs += checks.check_reschedules(
            [(f_r, append_score(ctx)) for ctx, f_r in calls])
        if errs and early_copy_only(trace, errs):
            self.faulty[i] = "chromosome %d: %s" % (i, errs[0])
            raise KnownFault(self.faulty[i])
        return errs

    def notes(self) -> list[str]:
        return ["chromosomes whose rework copy starts before its original "
                "ends, counted as failed: %s" % (sorted(self.faulty) or "none")]


class DpeiaWorkload:
    """Seeded experiments through the harness, as ``reworkopt run``."""

    name = "dpeia-seeds"
    N_JOBS = 100
    # the default population and replications over a short budget, one
    # elite per round: planning dominates, as in a default run, and the
    # heavy-tailed cost of online executions stays a modest share
    CONFIG = dict(pop_size=20, max_iter=8, n_rounds=2, label_reps=5, elites=1)
    # a round is several experiments on distinct instances, so that a
    # run's figures do not hinge on one instance; each experiment runs
    # one seed per pool worker
    EXPERIMENTS = 3
    POOL_WORKERS = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.jobs = min(self.POOL_WORKERS, len(os.sched_getaffinity(0)))
        self.gen_seeds = [self.EXPERIMENTS * seed + i
                          for i in range(self.EXPERIMENTS)]
        self.bounds = [checks.makespan_lower_bound(_instance(self.N_JOBS, g))
                       for g in self.gen_seeds]
        self.seeds = [tuple(self.POOL_WORKERS * g + k
                            for k in range(self.POOL_WORKERS))
                      for g in self.gen_seeds]
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.digests: dict[int, dict] = {}
        self.early = self.executions = 0

    @property
    def n_ops(self) -> int:
        return self.EXPERIMENTS

    def op(self, i: int):
        outdir = tempfile.mkdtemp(prefix="dpeia-", dir=RUNS_DIR)
        cfg = harness.ExperimentConfig(
            n_jobs=self.N_JOBS, sigma_q=SIGMA_Q, coeff_set=COEFF_SET,
            gen_seed=self.gen_seeds[i], seeds=self.seeds[i],
            outdir=os.path.relpath(outdir), jobs=self.jobs, **self.CONFIG)
        if i in self.digests:
            return outdir, harness.run_experiment(cfg)
        # first run: the pool workers, forked after this patch, check every
        # trace of an online execution and log the verdicts in outdir
        orig = orchestrator.simulate
        orchestrator.simulate = _checked_simulate(orig, outdir)
        try:
            return outdir, harness.run_experiment(cfg)
        finally:
            orchestrator.simulate = orig

    def check(self, i: int, out) -> list[str]:
        outdir, (results, report_path) = out
        seeds = self.seeds[i]
        try:
            digests = archive_digests(outdir, seeds)
            if i in self.digests:
                return [] if digests == self.digests[i] else [
                    "archives of experiment %d differ from its first run" % i]
            self.digests[i] = digests
            errs = []
            if sorted(results) != sorted(seeds):
                errs.append("results for seeds %s" % sorted(results))
            executions = 0
            for seed, rows in sorted(results.items()):
                errs += ["seed %d: %s" % (seed, e) for e in
                         checks.check_archive([(r[1], r[2]) for r in rows],
                                              self.bounds[i])]
                with open(os.path.join(harness.seed_dir(outdir, seed),
                                       "manifest.txt")) as fh:
                    manifest = json.loads(fh.read().split("\n", 1)[1])
                if not manifest["sim_calls"] > 0:
                    errs.append("seed %d: no simulator calls" % seed)
                executions += sum(len(r["elites"]) for r in manifest["rounds"])
            verdicts = []
            for path in glob.glob(os.path.join(outdir, "trace-checks-*.jsonl")):
                with open(path) as fh:
                    verdicts += [json.loads(line) for line in fh]
            if len(verdicts) != executions:
                errs.append("%d online traces checked, the manifests count %d"
                            % (len(verdicts), executions))
            self.early += sum(1 for v in verdicts if v["early_only"])
            self.executions += len(verdicts)
            errs += [e for v in verdicts if not v["early_only"] for e in v["errs"]]
            with open(report_path) as fh:
                errs += checks.check_report(fh.read(), seeds)
            return errs
        finally:
            shutil.rmtree(outdir)

    def all_digests(self) -> dict[str, str]:
        """Archive digest per experiment seed, over the whole round."""
        return {k: v for i in sorted(self.digests)
                for k, v in self.digests[i].items()}

    def notes(self) -> list[str]:
        return ["online executions of the first round whose rework copy "
                "starts before its original ends: %d of %d (reported, not "
                "failed)" % (self.early, self.executions),
                "archive digests of experiment seeds %s: %s"
                % (",".join(self.all_digests()), self.digest_status())]

    def digest_status(self) -> str:
        """Compare the archives with the stored reference; never gates."""
        ref = load_reference()
        if ref.get("config") != reference_config():
            return "the reference holds another configuration"
        if str(self.seed) not in ref["digests"]:
            return "no reference for this seed"
        if ref["digests"][str(self.seed)] != self.all_digests():
            return "differ from the reference"
        return "match the reference"


def _checked_simulate(orig, outdir: str):
    def wrapper(inst, plan, root, cfg=None):
        trace = orig(inst, plan, root, cfg)
        errs = trace_errors(inst, trace)
        verdict = {"early_only": early_copy_only(trace, errs), "errs": errs}
        path = os.path.join(outdir, "trace-checks-%d.jsonl" % os.getpid())
        with open(path, "a") as fh:
            fh.write(json.dumps(verdict) + "\n")
        return trace
    return wrapper


WORKLOADS = {w.name: w for w in (PlanWorkload, OnlineWorkload, DpeiaWorkload)}


def archive_digests(outdir: str, seeds) -> dict[str, str]:
    out = {}
    for seed in seeds:
        with open(os.path.join(harness.seed_dir(outdir, seed), "archive.tsv"),
                  "rb") as fh:
            out[str(seed)] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return out


def reference_config() -> dict:
    wl = DpeiaWorkload
    return dict(n_jobs=wl.N_JOBS, sigma_q=SIGMA_Q, coeff_set=COEFF_SET,
                experiments=wl.EXPERIMENTS, seeds_per_experiment=wl.POOL_WORKERS,
                **wl.CONFIG)


def remove_runs_dir() -> None:
    """Drop the directory of run outputs once the last run has left."""
    if os.path.isdir(RUNS_DIR) and not os.listdir(RUNS_DIR):
        os.rmdir(RUNS_DIR)


def load_reference() -> dict:
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)
