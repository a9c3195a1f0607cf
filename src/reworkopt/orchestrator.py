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
from dataclasses import dataclass, field, fields

from .encoding import Chromosome, GeneBounds, decode, random_chromosome
from .improver import deviation, make_rescheduler
from .model import (InvalidOptionError, ObjectivePair, ProblemInstance,
                    front_insert)
from .planner import Individual, PlannerConfig, plan
from .rng import NS_INIT, NS_ONLINE, RngStream
from .simulate import (ONLINE, SimConfig, fitness_eval, idle_space_count,
                       objectives, simulate)


@dataclass
class BudgetSchedule:
    """Per-round (planning iterations, online iterations)."""

    rounds: list[tuple[int, int]]


def carry(src, cls, **extra):
    """A cls with src's values for the fields both declare, plus extra."""
    shared = {f.name for f in fields(src)} & {f.name for f in fields(cls)}
    return cls(**{name: getattr(src, name) for name in shared}, **extra)


@dataclass
class DpeiaConfig:
    """The algorithm's options; the planner's default as PlannerConfig's.
    PlannerConfig and allocate_budget check them on construction."""

    pop_size: int = PlannerConfig.pop_size
    max_iter: int = 60
    n_rounds: int = 4
    varpi: float = 0.5
    mu_c: float = 0.0
    sigma_c: float = 1.13
    elites: int | None = None           # default: a fifth of the population
    label_reps: int = PlannerConfig.label_reps
    det: bool = PlannerConfig.det
    prop2: bool = PlannerConfig.prop2
    bounds: GeneBounds = field(default_factory=GeneBounds)
    idle_types: tuple[int, ...] | None = None   # None: size from the pilot

    def __post_init__(self):
        if self.elites is not None and self.elites < 1:
            raise InvalidOptionError(f"elites must be positive, got {self.elites}")
        carry(self, PlannerConfig)
        self.schedule()

    def schedule(self) -> BudgetSchedule:
        return allocate_budget(self.max_iter, self.n_rounds, self.varpi,
                               self.mu_c, self.sigma_c)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def allocate_budget(max_iter: int, n_rounds: int, varpi: float = DpeiaConfig.varpi,
                    mu_c: float = DpeiaConfig.mu_c,
                    sigma_c: float = DpeiaConfig.sigma_c) -> BudgetSchedule:
    """Split max_iter into rounds with a growing online share.

    The share of round r is varpi scaled by the Gaussian CDF at r/R, so
    it rises strictly with r and tops out at varpi in the last round.
    Remainder iterations go to the later rounds, which keeps the online
    slice nondecreasing after flooring, and the total is conserved
    exactly.  Out-of-range arguments raise InvalidOptionError.
    """
    if n_rounds < 1:
        raise InvalidOptionError(f"need at least one round, got {n_rounds}")
    if max_iter < n_rounds:
        raise InvalidOptionError(f"budget {max_iter} too small for {n_rounds} rounds")
    if not (0.0 < varpi <= 1.0):
        raise InvalidOptionError(f"online cap must be in (0, 1], got {varpi}")
    if not sigma_c > 0.0:
        raise InvalidOptionError(f"profile width must be positive, got {sigma_c}")
    top = _phi((1.0 - mu_c) / sigma_c)
    if not top > 0.0:
        raise InvalidOptionError(
            f"profile centre {mu_c} leaves the last round no online share")
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

    def __len__(self) -> int:
        return len(self.entries)


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


def _execute(inst: ProblemInstance, chrom: Chromosome, root: RngStream,
             budget: int, cfg: DpeiaConfig, counter: list):
    """Trace and execution fitness of chrom run online with a rescheduler
    of the given budget; the run and its projections count in counter."""
    counter[0] += 1
    dec = decode(chrom, inst)
    tr = simulate(inst, dec, root,
                  SimConfig(mode=ONLINE, det=cfg.det, prop2=cfg.prop2,
                            rescheduler=make_rescheduler(budget, counter)))
    return tr, fitness_eval(tr, deviation(dec, tr, inst))


def dpeia(inst: ProblemInstance, cfg: DpeiaConfig, seed: int) -> DpeiaResult:
    master = RngStream.from_seed(seed)
    counter = [0]
    idle_types = (cfg.idle_types if cfg.idle_types is not None
                  else _pilot_idle_types(inst, master))
    pcfg = carry(cfg, PlannerConfig, counter=counter)
    schedule = cfg.schedule()
    n_elites = cfg.elites or max(1, math.ceil(cfg.pop_size / 5))
    archive = ParetoArchive()
    pop: list[Individual] | None = None
    it_done = 0
    rounds_log = []
    for r, (s_r, r_r) in enumerate(schedule.rounds, start=1):
        # zero iterations still build the initial population
        pop, _ = plan(inst, s_r, master, pcfg, idle_types, pop=pop,
                      iter_offset=it_done, max_iter=cfg.max_iter)
        it_done += s_r
        elites = sorted(range(len(pop)), key=lambda i: -pop[i].label)[:n_elites]
        for e_idx, i in enumerate(elites):
            ind = pop[i]
            tr, ind.label = _execute(inst, ind.chrom,
                                     master.substream(NS_ONLINE, r, e_idx),
                                     r_r, cfg, counter)
            archive.add(objectives(tr), ind.chrom, r, e_idx, ind.label)
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
    schedule = cfg.schedule()
    r_last = schedule.rounds[-1][1]
    archive = ParetoArchive()
    crng = master.substream(NS_INIT, 1)
    k = 0
    while counter[0] < sim_budget:
        ch = random_chromosome(inst, idle_types, crng, cfg.bounds)
        tr, f_eva = _execute(inst, ch, master.substream(NS_ONLINE, 0, k),
                             r_last, cfg, counter)
        archive.add(objectives(tr), ch, 0, k, f_eva)
        k += 1
    return DpeiaResult(archive, [], counter[0], schedule, [], idle_types)
