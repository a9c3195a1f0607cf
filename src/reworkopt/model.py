"""Domain model: jobs, machines, quality targets, problem instances.

A problem instance is a set of typed jobs to run on unrelated parallel
machines.  Machines wear (environment plus job-induced), wear degrades
both speed and output quality, and maintenance (preventive, imperfect;
corrective on failure) restores them.  Nonconforming output may be
reworked via copy jobs.  The decision layer optimizes makespan against
maintenance cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

# least normal mass a truncated input-quality interval must hold: draws
# are rejected outside it, so a thin interval costs about 1/mass tries
MIN_QUALITY_MASS = 1e-3


class IncapableMachineError(ValueError):
    """A slot was assigned to a machine that cannot process its job type."""


class InvalidOptionError(ValueError):
    """A run option is out of the range its config accepts."""


class InvalidInstanceError(ValueError):
    """An instance breaks an invariant the simulator relies on."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid instance: " + "; ".join(errors))
        self.errors = errors

    def __reduce__(self):
        # rebuilt from the errors, not the message (a worker's error
        # crosses to the parent pickled)
        return type(self), (self.errors,)


@dataclass
class Job:
    """One unit of work. Rework copies point at their origin job."""

    id: int
    type: int
    nominal_times: dict[int, float]   # machine id -> base processing time
    origin: int | None = None


@dataclass
class QualitySpec:
    """Per-type quality target and input-quality distribution."""

    target: float           # nominal quality characteristic aimed at
    tol: float              # conformity half-width, strict
    mu_q: float             # mean incoming-material quality
    sigma_q: float
    lo: float               # truncation bounds for incoming quality
    hi: float


@dataclass
class MachineParams:
    """Static parameters of one machine."""

    id: int
    w0: float               # wear right after corrective maintenance
    cap: float              # wear failure threshold
    # wear process
    mu_minus: float         # induced wear scale for ineligible inputs
    sigma_minus: float
    mu_plus: float          # induced wear scale per unit processing time
    sigma_plus: float
    alpha: float            # environment shocks: shape rate per time unit
    beta: float             # environment shocks: scale
    # quality response
    ups0: float             # base output quality at zero wear
    a: float                # wear-to-quality drift
    b0: float               # noise gain
    gamma: float            # wear-amplified noise gain
    # maintenance durations / costs
    t_pm: float
    t_ps: float             # setup time attached to every preventive action
    t_cm: float
    c_pm: float
    c_ps: float
    c_cm: float

    @property
    def t_pm_full(self) -> float:
        return self.t_pm + self.t_ps

    @property
    def c_pm_full(self) -> float:
        return self.c_pm + self.c_ps


@dataclass
class GlobalParams:
    eta: float              # wear-to-slowdown coefficient
    theta: float            # residual wear fraction after preventive action
    varphi: float           # preventive-wear penalty per prior action
    noise_sigma: float = 1.0


@dataclass
class ProblemInstance:
    jobs: list[Job]
    machines: list[MachineParams]
    quality: dict[int, QualitySpec]       # by job type
    globals: GlobalParams
    idle_nominal: dict[int, dict[int, float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_id = {m.id: m for m in self.machines}
        self._caps: dict[int, list[int]] = {}
        self._slots: dict[tuple[int, ...], list[dict[int, float]]] = {}
        self._targets: dict[tuple[int, ...], dict[int, float]] = {}
        if not self.idle_nominal:
            self.idle_nominal = _mean_nominals(self.jobs)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def machine(self, machine_id: int) -> MachineParams:
        return self._by_id[machine_id]

    def capable_machines(self, job_type: int) -> list[int]:
        """The type-wide union of its jobs' machines, ascending (a fresh
        list; the jobs are scanned once per type).  Only reserved spaces
        go by it: a real job may have fewer, see slot_times."""
        caps = self._caps.get(job_type)
        if caps is None:
            out: set[int] = set()
            for j in self.jobs:
                if j.type == job_type:
                    out.update(j.nominal_times)
            caps = self._caps[job_type] = sorted(out)
        return list(caps)

    def job_types(self) -> list[int]:
        return sorted({j.type for j in self.jobs})

    def slot_times(self, idle_types: tuple[int, ...]) -> list[dict[int, float]]:
        """Per slot, the machines it may run on and its nominal time on
        each: a real job's own nominal_times, then per reserved space of
        type t its idle_nominal on capable_machines(t), keys ascending.
        Built once per idle_types and shared, so never mutate it."""
        table = self._slots.get(idle_types)
        if table is None:
            table = [j.nominal_times for j in self.jobs]
            for t in idle_types:
                times = self.idle_nominal[t]
                table.append({m: times[m] for m in self.capable_machines(t)})
            self._slots[idle_types] = table
        return table

    def slot_targets(self, idle_types: tuple[int, ...]) -> dict[int, float]:
        """Per machine, its capability-weighted mean slot count: the
        slots of each (type, machine set) group are counted, in order of
        appearance, and each group's count is spread evenly over its
        machines.  Built once per idle_types and shared, so never mutate
        it."""
        target = self._targets.get(idle_types)
        if target is None:
            table = self.slot_times(idle_types)
            types = [j.type for j in self.jobs] + list(idle_types)
            group_counts: dict[tuple, int] = {}
            for t, times in zip(types, table):
                grp = (t, tuple(sorted(times)))
                group_counts[grp] = group_counts.get(grp, 0) + 1
            target = {m.id: 0.0 for m in self.machines}
            for (_, caps), c in group_counts.items():
                for mid in caps:
                    target[mid] += c / len(caps)
            self._targets[idle_types] = target
        return target


def dominates(p, q) -> bool:
    """Pareto dominance of two (makespan, cost) points, both minimized:
    p is no worse than q on either and better on one."""
    return p[0] <= q[0] and p[1] <= q[1] and (p[0] < q[0] or p[1] < q[1])


def front_insert(front: list, item, point=lambda x: x) -> bool:
    """Add item (objectives point(item)) to a nondominated list unless a
    member dominates or equals it; drop the members it dominates, keep
    the rest in order and append it.  Returns whether it was added."""
    p = point(item)
    for x in front:
        q = point(x)
        if q == p or dominates(q, p):
            return False
    front[:] = [x for x in front if not dominates(p, point(x))]
    front.append(item)
    return True


class ObjectivePair(NamedTuple):
    """Makespan and total maintenance cost, both minimized."""

    makespan: float
    maint_cost: float


def _mean_nominals(jobs: list[Job]) -> dict[int, dict[int, float]]:
    acc: dict[int, dict[int, list[float]]] = {}
    for j in jobs:
        per = acc.setdefault(j.type, {})
        for mid, o in j.nominal_times.items():
            per.setdefault(mid, []).append(o)
    return {t: {mid: sum(v) / len(v) for mid, v in per.items()}
            for t, per in acc.items()}


def _normal_mass(q: QualitySpec) -> float:
    """Probability that an input-quality draw lands in [lo, hi]."""
    z = q.sigma_q * math.sqrt(2.0)
    return 0.5 * (math.erf((q.hi - q.mu_q) / z) - math.erf((q.lo - q.mu_q) / z))


def require_valid(inst: ProblemInstance) -> ProblemInstance:
    """Return inst, or raise InvalidInstanceError naming every violation.
    Called where instances enter the system, not inside the simulator."""
    errs = validate_instance(inst)
    if errs:
        raise InvalidInstanceError(errs)
    return inst


def _finite(rec, where: str, errs: list[str]) -> bool:
    """Whether every field of a parameter record is finite; if not, say
    which in errs.  A NaN passes every range test, so it is caught first."""
    bad = [f.name for f in fields(rec) if not math.isfinite(getattr(rec, f.name))]
    if bad:
        errs.append(f"{where}non-finite {', '.join(bad)}")
    return not bad


def validate_instance(inst: ProblemInstance) -> list[str]:
    """Collect invariant violations; an empty list means the instance is
    usable."""
    errs: list[str] = []
    if not inst.jobs:
        errs.append("no jobs")
    seen_jobs: set[int] = set()
    mids = {m.id for m in inst.machines}
    if len(mids) != len(inst.machines):
        errs.append("duplicate machine ids")
    for j in inst.jobs:
        if j.id in seen_jobs:
            errs.append(f"duplicate job id {j.id}")
        seen_jobs.add(j.id)
        if not j.nominal_times:
            errs.append(f"job {j.id}: no capable machine")
        for mid, o in j.nominal_times.items():
            if mid not in mids:
                errs.append(f"job {j.id}: unknown machine {mid}")
            if not math.isfinite(o):
                errs.append(f"job {j.id}: non-finite nominal time on machine {mid}")
            elif not o > 0:
                errs.append(f"job {j.id}: nonpositive nominal time on machine {mid}")
        if j.type not in inst.quality:
            errs.append(f"job {j.id}: no quality spec for type {j.type}")
        if j.origin is not None and j.origin not in seen_jobs and not any(
                x.id == j.origin for x in inst.jobs):
            errs.append(f"job {j.id}: origin {j.origin} not in instance")
    # an idle placeholder of type t may sit on any machine capable of t
    for t, mid in sorted({(j.type, mid) for j in inst.jobs
                          for mid in j.nominal_times}):
        o = inst.idle_nominal.get(t, {}).get(mid)
        if o is None:
            errs.append(f"idle type {t}: no nominal time on machine {mid}")
        elif not math.isfinite(o):
            errs.append(f"idle type {t}: non-finite nominal time on machine {mid}")
        elif not o > 0:
            errs.append(f"idle type {t}: nonpositive nominal time on machine {mid}")
    for m in inst.machines:
        if not _finite(m, f"machine {m.id}: ", errs):
            continue
        if not (0.0 <= m.w0 < m.cap):
            errs.append(f"machine {m.id}: initial wear {m.w0} outside [0, cap)")
        if m.sigma_minus < 0 or m.sigma_plus < 0:
            errs.append(f"machine {m.id}: negative wear sigma")
        if m.alpha < 0 or m.beta < 0:
            errs.append(f"machine {m.id}: negative environment parameter")
        for name in ("t_pm", "t_ps", "t_cm", "c_pm", "c_ps", "c_cm"):
            if getattr(m, name) < 0:
                errs.append(f"machine {m.id}: negative {name}")
    for t, q in inst.quality.items():
        if not _finite(q, f"type {t}: ", errs):
            continue
        if not q.tol > 0:
            errs.append(f"type {t}: nonpositive tolerance")
        if not q.sigma_q >= 0:
            errs.append(f"type {t}: negative sigma_q")
        if not q.lo <= q.hi:
            errs.append(f"type {t}: empty quality truncation interval")
        elif q.sigma_q > 0 and not _normal_mass(q) >= MIN_QUALITY_MASS:
            errs.append(f"type {t}: quality interval [{q.lo}, {q.hi}] holds "
                        f"less than {MIN_QUALITY_MASS} of the input "
                        "distribution")
    g = inst.globals
    if not _finite(g, "globals: ", errs):
        return errs
    if g.eta < 0:
        errs.append("eta must be nonnegative")
    if not (0.0 < g.theta <= 1.0):
        errs.append("theta must be in (0, 1]")
    if g.varphi < 0:
        errs.append("varphi must be nonnegative")
    if g.noise_sigma < 0:
        errs.append("noise sigma must be nonnegative")
    return errs
