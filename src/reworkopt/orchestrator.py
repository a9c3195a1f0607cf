"""Top-level optimizer: alternating planning and online evaluation.

The iteration budget is split into communication rounds.  Within each
round the population search runs first, then the best individuals are
executed online (with rework rescheduling); their realized objectives
feed a Pareto archive and their labels are replaced by the execution
fitness, which steers the next round's selection.  The online share of
each round follows a Gaussian-CDF profile: late rounds, where plans are
worth executing, get the larger slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .encoding import Chromosome, GeneBounds, decode, random_chromosome
from .improver import deviation, make_rescheduler
from .model import ObjectivePair, ProblemInstance, front_insert
from .planner import (Individual, PlannerConfig, init_population, plan)
from .rng import NS_INIT, NS_ONLINE, RngStream
from .simulate import (ONLINE, SimConfig, fitness_eval, idle_space_count,
                       objectives, simulate)


@dataclass
class BudgetSchedule:
    """Per-round (planning iterations, online iterations)."""

    rounds: list[tuple[int, int]]

    @property
    def total(self) -> int:
        return sum(s + r for s, r in self.rounds)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def allocate_budget(max_iter: int, n_rounds: int, varpi: float = 0.5,
                    mu_c: float = 0.0, sigma_c: float = 1.13) -> BudgetSchedule:
    """Split max_iter into rounds with a growing online share.

    The share of round r is varpi scaled by the Gaussian CDF at r/R, so
    it rises strictly with r and tops out at varpi in the last round.
    Remainder iterations go to the later rounds, which keeps the online
    slice nondecreasing after flooring, and the total is conserved
    exactly.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    if max_iter < n_rounds:
        raise ValueError(
            f"budget {max_iter} too small for {n_rounds} rounds")
    if not (0.0 < varpi <= 1.0):
        raise ValueError(f"online cap must be in (0, 1], got {varpi}")
    if sigma_c <= 0.0:
        raise ValueError(f"profile width must be positive, got {sigma_c}")
    top = _phi((1.0 - mu_c) / sigma_c)
    base, extra = divmod(max_iter, n_rounds)
    rounds = []
    for r in range(1, n_rounds + 1):
        b_r = base + (1 if r > n_rounds - extra else 0)
        share = varpi * _phi((r / n_rounds - mu_c) / sigma_c) / top
        online = math.floor(share * b_r)
        rounds.append((b_r - online, online))
    return BudgetSchedule(rounds)


@dataclass
class ArchiveEntry:
    objectives: ObjectivePair
    chrom: Chromosome
    round_index: int
    elite_index: int
    f_eva: float
    digest: str


class ParetoArchive:
    """Nondominated set of realized (makespan, maintenance cost) points."""

    def __init__(self):
        self.entries: list[ArchiveEntry] = []

    def add(self, obj: ObjectivePair, chrom: Chromosome, round_index: int,
            elite_index: int, f_eva: float) -> bool:
        entry = ArchiveEntry(obj, chrom.copy(), round_index, elite_index,
                             f_eva, chrom.digest())
        return front_insert(self.entries, entry, lambda e: e.objectives)

    def points(self) -> list[ObjectivePair]:
        return sorted((e.objectives for e in self.entries),
                      key=lambda o: (o.makespan, o.maint_cost))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class DpeiaConfig:
    pop_size: int = 20
    max_iter: int = 60
    n_rounds: int = 4
    varpi: float = 0.5
    mu_c: float = 0.0
    sigma_c: float = 1.13
    elites: int | None = None           # default: a fifth of the population
    label_reps: int = 5
    det: bool = False
    prop2: bool = True
    bounds: GeneBounds = field(default_factory=GeneBounds)
    idle_types: tuple[int, ...] | None = None   # None: size from the pilot


@dataclass
class DpeiaResult:
    archive: ParetoArchive
    pop: list[Individual]
    sim_calls: int
    schedule: BudgetSchedule
    rounds_log: list[dict]
    idle_types: tuple[int, ...]


def _pilot_idle_types(inst: ProblemInstance, master: RngStream) -> tuple[int, ...]:
    counts = idle_space_count(inst, master.substream(NS_INIT))
    out: list[int] = []
    for t in sorted(counts):
        out.extend([t] * counts[t])
    return tuple(out)


def dpeia(inst: ProblemInstance, cfg: DpeiaConfig, seed: int) -> DpeiaResult:
    master = RngStream.from_seed(seed)
    counter = [0]
    idle_types = (cfg.idle_types if cfg.idle_types is not None
                  else _pilot_idle_types(inst, master))
    pcfg = PlannerConfig(cfg.pop_size, cfg.label_reps, cfg.det, cfg.prop2,
                         cfg.bounds, counter)
    schedule = allocate_budget(cfg.max_iter, cfg.n_rounds, cfg.varpi,
                               cfg.mu_c, cfg.sigma_c)
    n_elites = cfg.elites or max(1, math.ceil(cfg.pop_size / 5))
    archive = ParetoArchive()
    pop: list[Individual] | None = None
    it_done = 0
    rounds_log = []
    for r, (s_r, r_r) in enumerate(schedule.rounds, start=1):
        if s_r > 0:
            pop, _ = plan(inst, s_r, master, pcfg, idle_types, pop=pop,
                          iter_offset=it_done, max_iter=cfg.max_iter)
            it_done += s_r
        elif pop is None:
            pop = init_population(inst, idle_types, master, pcfg)
        elites = sorted(range(len(pop)), key=lambda i: -pop[i].label)[:n_elites]
        for e_idx, i in enumerate(elites):
            ind = pop[i]
            online_root = master.substream(NS_ONLINE, r, e_idx)
            hook = make_rescheduler(r_r, counter)
            dec = decode(ind.chrom, inst)
            tr = simulate(inst, dec, online_root,
                          SimConfig(mode=ONLINE, det=cfg.det, prop2=cfg.prop2,
                                    rescheduler=hook, counter=counter))
            d_o = deviation(dec, tr, inst)
            f_eva = fitness_eval(tr, d_o)
            archive.add(objectives(tr), ind.chrom, r, e_idx, f_eva)
            ind.label = f_eva
            ind.kind = "online"
            ind.obj = (tr.makespan, tr.maint_cost)
        rounds_log.append({"round": r, "plan_iters": s_r, "online_iters": r_r,
                           "elites": [pop[i].chrom.digest() for i in elites],
                           "archive_size": len(archive)})
    return DpeiaResult(archive, pop, counter[0], schedule, rounds_log,
                       idle_types)


def random_search(inst: ProblemInstance, cfg: DpeiaConfig, seed: int,
                  sim_budget: int) -> DpeiaResult:
    """Equal-budget baseline: online-evaluate random chromosomes until
    the simulator-call budget is spent.  Uses the same rescheduling
    budget a late round would get."""
    master = RngStream.from_seed(seed)
    counter = [0]
    idle_types = (cfg.idle_types if cfg.idle_types is not None
                  else _pilot_idle_types(inst, master))
    schedule = allocate_budget(cfg.max_iter, cfg.n_rounds, cfg.varpi,
                               cfg.mu_c, cfg.sigma_c)
    r_last = schedule.rounds[-1][1]
    archive = ParetoArchive()
    crng = master.substream(NS_INIT, 1)
    k = 0
    while counter[0] < sim_budget:
        ch = random_chromosome(inst, idle_types, crng, cfg.bounds)
        online_root = master.substream(NS_ONLINE, 0, k)
        hook = make_rescheduler(r_last, counter)
        dec = decode(ch, inst)
        tr = simulate(inst, dec, online_root,
                      SimConfig(mode=ONLINE, det=cfg.det, prop2=cfg.prop2,
                                rescheduler=hook, counter=counter))
        d_o = deviation(dec, tr, inst)
        archive.add(objectives(tr), ch, 0, k, fitness_eval(tr, d_o))
        k += 1
    return DpeiaResult(archive, [], counter[0], schedule, [], idle_types)
