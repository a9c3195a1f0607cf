"""Population search over chromosomes.

Two regimes alternate along one run, steered by a control value that
decays from 2 to 0: while it is above 1 the population explores with a
similarity-guided recombination and a differential operator on the
slot keys; afterwards it refines with beneficial adjacent swaps (backed
by a deterministic preview) and load moves from the busiest machine to
the idlest.  Survivors are picked by fitness-proportional roulette with
the incumbent best and the leaders of the population's own cost-level
front always retained.

Labels are most of the work.  A generation's chromosomes are built
first and labelled in one batch (``label_all``), split over the CPUs
this process may run on: the caller labels the first share, and a
helper forked for the batch labels each other share and pipes its
labels back.  Nothing persists between batches.  Where a label runs
cannot change it: a label is a pure function of instance, chromosome,
master stream and config, and a helper reads the caller's shared-draw
tables, which only memoise values.  A batch stays in one process where
forking is unavailable or unsafe, in a multiprocessing child (whose
siblings hold the other CPUs), where ``label_static_obj`` is wrapped,
so that the wrapper sees every label, and where the batch's first label
shows the others too short to repay a helper.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass, field

from .encoding import (Chromosome, GeneBounds, SchedulePlan, decode,
                       random_chromosome)
from .model import InvalidOptionError, ProblemInstance, dominates
from .rng import NS_LABEL, NS_SEARCH, RngStream, shared_draws
from .simulate import (STATIC, ScheduleTrace, SimConfig, fitness_static,
                       prepare, simulate)


@dataclass
class Individual:
    chrom: Chromosome
    label: float = 0.0          # planning fitness, or execution fitness once run online
    obj: tuple[float, float] | None = None   # (C_max, maint cost) behind it
    # det_preview of chrom, kept: it depends on inst, chrom and prop2 only
    preview: tuple[SchedulePlan, ScheduleTrace] | None = field(
        default=None, repr=False, compare=False)


@dataclass
class PlannerConfig:
    pop_size: int = 20
    label_reps: int = 5
    det: bool = False
    prop2: bool = True
    bounds: GeneBounds = field(default_factory=GeneBounds)
    counter: list = field(default_factory=lambda: [0])  # [0]: runs requested

    def __post_init__(self):
        if self.pop_size < 1 or self.label_reps < 1:
            raise InvalidOptionError(f"population size {self.pop_size} and label "
                                     f"replications {self.label_reps} must be positive")


def control_param(iteration: int, max_iter: int) -> float:
    """Linear decay from 2 (start) to 0 (budget exhausted)."""
    return 2.0 * (1.0 - iteration / max_iter)


def label_static_obj(inst: ProblemInstance, chrom: Chromosome,
                     master: RngStream, cfg: PlannerConfig
                     ) -> tuple[float, tuple[float, float]]:
    """Planning fitness and the raw objectives behind it, both averaged
    over replications.

    Replication r draws from the run-wide substream (label, r): every
    chromosome sees the same worlds, so labels are paired.  Selection
    keeps the leader of every cost level on the population's own front,
    and needs the objectives behind each label for that.  The plan is
    decoded and prepared once; every replication replays it.  The runs
    are counted where they are requested, in label_all.
    """
    plan = prepare(inst, decode(chrom, inst))
    sim_cfg = SimConfig(mode=STATIC, det=cfg.det, prop2=cfg.prop2, summary=True)
    total = 0.0
    mk = 0.0
    mc = 0.0
    for r in range(cfg.label_reps):
        tr = simulate(inst, plan, master.substream(NS_LABEL, r), sim_cfg)
        total += fitness_static(tr)
        mk += tr.makespan
        mc += tr.maint_cost
    n = cfg.label_reps
    return total / n, (mk / n, mc / n)


_OWN_LABEL = label_static_obj


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


# A helper pays for its fork, its start and the page copies it and the
# caller make after the fork: a few milliseconds on a 100-job run.  A
# share shorter than this would not repay them.
HELPER_MIN_S = 0.01


def _label_procs(n: int, per_label: float) -> int:
    """Processes n labels of per_label seconds each run on: one per usable
    CPU, as long as each share takes HELPER_MIN_S, but one where os.fork
    is missing, in a multiprocessing child, with more than one thread
    alive (fork is unsafe there) and where label_static_obj is wrapped."""
    # a multiprocessing child has the module loaded; importing it here
    # would add to every run's start-up
    mp = sys.modules.get("multiprocessing")
    if (not hasattr(os, "fork")
            or (mp is not None and mp.parent_process() is not None)
            or threading.active_count() > 1
            or label_static_obj is not _OWN_LABEL):
        return 1
    procs = min(n, usable_cpus())
    while procs > 1 and n * per_label < procs * HELPER_MIN_S:
        procs -= 1
    return procs


def label_all(inst: ProblemInstance, chroms: list[Chromosome],
              master: RngStream, cfg: PlannerConfig
              ) -> list[tuple[float, tuple[float, float]]]:
    """label_static_obj of each chromosome, in order, counted here.

    The caller labels the first chromosome and times it.  The rest are
    split into contiguous shares, one per process (see _label_procs):
    the caller labels the first share, and a helper forked for this call
    labels each other share.  Every helper is reaped before this returns
    or raises, and the first error in chromosome order is raised.
    """
    cfg.counter[0] += cfg.label_reps * len(chroms)
    start = time.perf_counter()
    out = [label_static_obj(inst, ch, master, cfg) for ch in chroms[:1]]
    rest = len(chroms) - 1
    n = _label_procs(rest, time.perf_counter() - start) if rest > 1 else 1
    cut = [1 + rest * k // n for k in range(n + 1)]
    helpers: list[tuple[int, int]] = []
    try:
        for k in range(1, n):
            helpers.append(_fork_labels(inst, chroms[cut[k]:cut[k + 1]],
                                        master, cfg))
        out += [label_static_obj(inst, ch, master, cfg)
                for ch in chroms[1:cut[1]]]
        for pid, fd in helpers:
            out += _read_labels(pid, fd)
        return out
    finally:
        for pid, fd in helpers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)    # done already, unless we raise
            os.waitpid(pid, 0)


def _fork_labels(inst: ProblemInstance, chroms: list[Chromosome],
                 master: RngStream, cfg: PlannerConfig) -> tuple[int, int]:
    """Fork a helper that labels chroms and pipes back the pickled list
    of labels, or the error that stopped it; returns (pid, read end)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            try:
                got = [label_static_obj(inst, ch, master, cfg) for ch in chroms]
            except BaseException as exc:    # the caller raises it
                got = exc
            data = pickle.dumps(got)        # nothing is sent if this fails
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _read_labels(pid: int, fd: int) -> list[tuple[float, tuple[float, float]]]:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    if not chunks:
        raise ChildProcessError(f"label helper {pid} exited without labels")
    got = pickle.loads(b"".join(chunks))
    if isinstance(got, BaseException):
        raise got
    return got


def de_operator(parent: Chromosome, pop: list[Individual],
                inst: ProblemInstance, rng: RngStream,
                bounds: GeneBounds) -> Chromosome:
    """Differential step on the full slot keys (machine + fraction).

    The difference of two population members perturbs the parent; the
    integer part is re-legalized to a capable machine, the fraction
    wrapped into [0, 1).  A zero step or identical donors reproduce the
    parent exactly.
    """
    i1 = rng.randrange(len(pop))
    i2 = rng.randrange(len(pop))
    a1, a2 = pop[i1].chrom, pop[i2].chrom
    f = 0.3 + 0.6 * rng.uniform()
    child = parent.copy()
    table = inst.slot_times(parent.idle_types)
    for slot in range(parent.n_slots):
        k = ((parent.assign[slot] + parent.key[slot])
             + f * ((a1.assign[slot] + a1.key[slot])
                    - (a2.assign[slot] + a2.key[slot])))
        m = math.floor(k)
        frac = k - m
        if frac >= 1.0:               # guards the k == floor+1.0 float edge
            frac = 0.0
        if m not in table[slot]:
            caps = sorted(table[slot])
            m = caps[rng.randrange(len(caps))]
        child.assign[slot] = m
        child.key[slot] = frac
    child.zeta = _clip(parent.zeta + f * (a1.zeta - a2.zeta), bounds.zeta)
    child.psi = _clip(parent.psi + f * (a1.psi - a2.psi), bounds.psi)
    child.thr_r = _clip(parent.thr_r + f * (a1.thr_r - a2.thr_r), bounds.thr_r)
    n_u = parent.n_u + round(f * (a1.n_u - a2.n_u))
    child.n_u = max(0, min(bounds.n_u_max, n_u))
    return child


def _clip(x: float, rng_pair: tuple[float, float]) -> float:
    lo, hi = rng_pair
    return lo if x < lo else hi if x > hi else x


def similarity(a: Chromosome, b: Chromosome) -> float:
    """Fraction of slots sharing their machine assignment."""
    same = sum(1 for x, y in zip(a.assign, b.assign) if x == y)
    return same / len(a.assign)


def re_operator(parent: Chromosome, pop: list[Individual],
                inst: ProblemInstance, rng: RngStream,
                bounds: GeneBounds) -> Chromosome:
    """Recombination with a similarity-ranked donor, then a load
    rebalance toward capability-weighted per-machine targets."""
    ranked = sorted(range(len(pop)),
                    key=lambda i: similarity(parent, pop[i].chrom))
    # rank-proportional roulette: most similar gets the largest share
    total = len(ranked) * (len(ranked) + 1) / 2
    x = rng.uniform() * total
    acc = 0.0
    donor = pop[ranked[-1]].chrom
    for pos, i in enumerate(ranked):
        acc += pos + 1
        if x <= acc:
            donor = pop[i].chrom
            break
    child = parent.copy()
    for slot in range(parent.n_slots):
        if rng.uniform() < 0.5:
            child.assign[slot] = donor.assign[slot]
            child.key[slot] = donor.key[slot]
    if rng.uniform() < 0.5:
        child.zeta, child.psi = donor.zeta, donor.psi
        child.thr_r, child.n_u = donor.thr_r, donor.n_u
    rebalance(child, inst, rng)
    return child


def rebalance(chrom: Chromosome, inst: ProblemInstance, rng: RngStream) -> None:
    """Move slots off overloaded machines toward the capability-weighted
    mean count.  Only moves that shrink the worst overload are taken, so
    the slot-closure invariant is untouched and the loop terminates.
    The targets are the instance's slot_targets, built once per run."""
    table = inst.slot_times(chrom.idle_types)
    target = inst.slot_targets(chrom.idle_types)
    counts = {m.id: 0 for m in inst.machines}
    for mid in chrom.assign:
        counts[mid] += 1
    for _ in range(2 * chrom.n_slots):
        over = max(counts, key=lambda m: (counts[m] - target[m], m))
        dev_over = counts[over] - target[over]
        if dev_over <= 1.0:
            break
        slots_here = [s for s in range(chrom.n_slots) if chrom.assign[s] == over]
        rng.shuffle(slots_here)
        moved = False
        for s in slots_here:
            dests = [mid for mid in table[s] if mid != over]
            if not dests:
                continue
            dest = min(dests, key=lambda m: (counts[m] - target[m], m))
            if counts[dest] - target[dest] + 1.0 < dev_over:
                chrom.assign[s] = dest
                counts[over] -= 1
                counts[dest] += 1
                moved = True
                break
        if not moved:
            break


def det_preview(inst: ProblemInstance, chrom: Chromosome,
                master: RngStream, cfg: PlannerConfig) -> tuple[SchedulePlan, ScheduleTrace]:
    """Deterministic static run used to audit swaps and measure load."""
    plan = decode(chrom, inst)
    tr = simulate(inst, plan, master.substream(NS_LABEL, 0),
                  SimConfig(mode=STATIC, det=True, prop2=cfg.prop2))
    return plan, tr


def prop1_swap(inst: ProblemInstance, preview: ScheduleTrace,
               plan: SchedulePlan, machine_id: int, pos: int) -> bool:
    """Is swapping the adjacent pair (pos, pos+1) on this machine safe
    and potentially useful?

    Rules, judged on the deterministic preview: two nonconforming jobs
    in longest-first order always swap; two conforming jobs of one type
    swap when the longer one leads and the extra wear the swap puts in
    front of it cannot push its quality outside the tolerance (no
    maintenance may sit between the two).
    """
    slots = plan.order[machine_id]
    if pos < 0 or pos + 1 >= len(slots):
        return False
    s1, s2 = slots[pos], slots[pos + 1]
    n = inst.n_jobs
    if s1 >= n or s2 >= n:
        return False
    by_slot = {ev.slot: ev for ev in preview.job_events
               if ev.machine_id == machine_id}
    if s1 not in by_slot or s2 not in by_slot:
        return False
    ev1, ev2 = by_slot[s1], by_slot[s2]
    for mev in preview.maint_events:
        if mev.machine_id == machine_id and ev1.start <= mev.time <= ev2.completion:
            return False
    j1, j2 = inst.jobs[s1], inst.jobs[s2]
    o1 = j1.nominal_times[machine_id]
    o2 = j2.nominal_times[machine_id]
    if not ev1.qualified and not ev2.qualified:
        return o1 > o2
    if ev1.qualified and ev2.qualified and j1.type == j2.type and o1 > o2:
        mp = inst.machine(machine_id)
        g = inst.globals
        spec = inst.quality[j1.type]
        w1 = ev1.w_before + ev1.dv
        lam = mp.mu_plus + mp.alpha * mp.beta
        extra_wear = lam * (o2 * (1.0 + g.eta * w1))
        margin = spec.tol - abs(ev1.d - spec.target)
        return abs(mp.a) * extra_wear < margin
    return False


def _apply_swap(chrom: Chromosome, plan: SchedulePlan, machine_id: int,
                pos: int) -> Chromosome:
    child = chrom.copy()
    s1 = plan.order[machine_id][pos]
    s2 = plan.order[machine_id][pos + 1]
    child.key[s1], child.key[s2] = child.key[s2], child.key[s1]
    return child


def busiest_idlest_move(chrom: Chromosome, inst: ProblemInstance,
                        preview: ScheduleTrace, rng: RngStream) -> Chromosome:
    """Shift one random slot from the machine with the highest busy
    ratio to the one with the lowest, capability permitting."""
    if preview.makespan <= 0.0:
        return chrom.copy()
    busy = {m.id: 0.0 for m in inst.machines}
    for ev in preview.job_events:
        busy[ev.machine_id] += ev.duration
    for ev in preview.idle_events:
        busy[ev.machine_id] += ev.duration
    busiest = max(busy, key=lambda m: (busy[m], -m))
    idlest = min(busy, key=lambda m: (busy[m], m))
    child = chrom.copy()
    if busiest == idlest:
        return child
    table = inst.slot_times(chrom.idle_types)
    movable = [slot for slot in range(chrom.n_slots)
               if chrom.assign[slot] == busiest and idlest in table[slot]]
    if not movable:
        return child
    slot = movable[rng.randrange(len(movable))]
    child.assign[slot] = idlest
    child.key[slot] = rng.uniform()
    return child


def mutate_genes(chrom: Chromosome, rng: RngStream, bounds: GeneBounds,
                 rate: float = 0.1) -> None:
    """Occasional fresh draw of each policy gene and of one slot key.

    Recombination and differentials both feed on pool diversity; once
    every survivor carries the same threshold, the same action cap or
    the same sequencing keys, neither can bring the lost values back.
    A small resample probability keeps every region of the gene box —
    and every within-machine order — reachable for the whole run.
    """
    if rng.uniform() < rate:
        lo, hi = bounds.zeta
        chrom.zeta = lo + (hi - lo) * rng.uniform()
    if rng.uniform() < rate:
        lo, hi = bounds.psi
        chrom.psi = lo + (hi - lo) * rng.uniform()
    if rng.uniform() < rate:
        lo, hi = bounds.thr_r
        chrom.thr_r = lo + (hi - lo) * rng.uniform()
    if rng.uniform() < rate:
        chrom.n_u = rng.randrange(bounds.n_u_max + 1)
    if chrom.n_slots and rng.uniform() < rate:
        chrom.key[rng.randrange(chrom.n_slots)] = rng.uniform()


def _front_leaders(pool: list[Individual], cap: int) -> list[Individual]:
    """Best-labeled member of each cost level on the pool's own
    (makespan, cost) front.

    The scalar label collapses the two objectives, so the roulette alone
    converges on whichever corner scores highest and progress elsewhere
    on the trade-off is pure drift.  Carrying one leader per front cost
    level gives every corner the same ratchet the global best enjoys.
    """
    objs = [ind.obj for ind in pool if ind.obj is not None]
    leaders: dict[float, Individual] = {}
    for ind in pool:
        if ind.obj is None:
            continue
        if any(dominates(o, ind.obj) for o in objs):
            continue
        c = ind.obj[1]
        cur = leaders.get(c)
        if cur is None or ind.label > cur.label:
            leaders[c] = ind
    return sorted(leaders.values(), key=lambda i: -i.label)[:cap]


def _roulette(pool: list[Individual], size: int, rng: RngStream) -> list[Individual]:
    """Fitness-proportional pick with the best and the front leaders
    kept; labels of mixed provenance are min-max normalized first."""
    best = max(pool, key=lambda ind: ind.label)
    out = [best]
    for ld in _front_leaders(pool, max(1, size // 8)):
        if len(out) < size and ld is not best:
            out.append(ld)
    vals = [ind.label for ind in pool]
    lo, hi = min(vals), max(vals)
    if hi > lo:
        norm = [0.05 + (v - lo) / (hi - lo) for v in vals]
    else:
        norm = [1.0] * len(vals)
    total = sum(norm)
    while len(out) < size:
        x = rng.uniform() * total
        acc = 0.0
        pick = pool[-1]
        for ind, wgt in zip(pool, norm):
            acc += wgt
            if x <= acc:
                pick = ind
                break
        out.append(pick)
    return out


def emode_step(pop: list[Individual], iteration: int, max_iter: int,
               inst: ProblemInstance, master: RngStream,
               cfg: PlannerConfig) -> list[Individual]:
    """One generation: produce a child per parent, label the children
    in one batch (label_all), then roulette over parents plus children.
    Labels draw nothing from the search stream, so building every child
    first keeps its draws in their order."""
    nu = control_param(iteration, max_iter)
    srng = master.substream(NS_SEARCH, iteration)
    children: list[Chromosome] = []
    for ind in pop:
        if nu > 1.0:
            if srng.uniform() < 0.7:
                child = re_operator(ind.chrom, pop, inst, srng, cfg.bounds)
            else:
                child = de_operator(ind.chrom, pop, inst, srng, cfg.bounds)
        else:
            if ind.preview is None:
                ind.preview = det_preview(inst, ind.chrom, master, cfg)
            cfg.counter[0] += 1     # kept too, as _score counts a reused projection
            plan, preview = ind.preview
            cands = [(mid, pos) for mid, slots in plan.order.items()
                     for pos in range(len(slots) - 1)]
            child = None
            if cands:
                mid, pos = cands[srng.randrange(len(cands))]
                if prop1_swap(inst, preview, plan, mid, pos):
                    child = _apply_swap(ind.chrom, plan, mid, pos)
            if child is None:
                child = busiest_idlest_move(ind.chrom, inst, preview, srng)
        mutate_genes(child, srng, cfg.bounds)
        children.append(child)
    labelled = [Individual(ch, lbl, obj) for ch, (lbl, obj) in
                zip(children, label_all(inst, children, master, cfg))]
    return _roulette(pop + labelled, len(pop), srng)


def init_population(inst: ProblemInstance, idle_types: tuple[int, ...],
                    master: RngStream, cfg: PlannerConfig) -> list[Individual]:
    """cfg.pop_size random chromosomes, drawn first and then labelled in
    one batch (label_all).  The labels share their draws in a scope
    owned by the master key, as plan's do."""
    irng = master.substream(NS_SEARCH, 0)
    chroms = [random_chromosome(inst, idle_types, irng, cfg.bounds)
              for _ in range(cfg.pop_size)]
    with shared_draws(master.key):
        labels = label_all(inst, chroms, master, cfg)
    return [Individual(ch, lbl, obj) for ch, (lbl, obj) in zip(chroms, labels)]


def plan(inst: ProblemInstance, iters: int, master: RngStream,
         cfg: PlannerConfig | None = None,
         idle_types: tuple[int, ...] = (),
         pop: list[Individual] | None = None,
         iter_offset: int = 0, max_iter: int | None = None
         ) -> tuple[list[Individual], list[tuple[int, float, float]]]:
    """Run the population search for a number of generations.

    Returns the final population and a history of (generation, best
    label, mean label).  An existing population can be passed in to
    continue a previous run (iter_offset keeps the control value on its
    global decay path).  Every label replays the same replication
    worlds, so the run shares their draws, in a scope owned by the master
    key: a later call with the same master reads back the draws the last
    one kept (see rng.shared_draws).  Each generation is labelled in one
    batch on every usable CPU (label_all); the result does not depend on
    how many there are.
    """
    cfg = cfg or PlannerConfig()
    max_iter = max_iter or (iter_offset + iters)
    history = []
    with shared_draws(master.key):
        if pop is None:
            pop = init_population(inst, idle_types, master, cfg)
        for k in range(iters):
            it = iter_offset + k + 1
            pop = emode_step(pop, it, max_iter, inst, master, cfg)
            labels = [ind.label for ind in pop]
            history.append((it, max(labels), sum(labels) / len(labels)))
    return pop, history
