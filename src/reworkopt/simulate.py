"""Event-driven execution of a schedule on degrading machines.

The loop advances machine frontiers in global time order.  At each job
start the machine first absorbs environment wear for the time it sat
exposed, then the job's actual duration and quality outcome are realized
from the wear at that instant, then the job-induced wear lands.  Failure
(wear past the threshold) triggers corrective maintenance immediately at
the completion that caused it; preventive maintenance is a threshold
policy with joint grouping and a payoff screen.

Every entry has a release time, the earliest it may start: 0 for an
entry of the plan, the trigger time that created it for a rework copy.
A machine that ran out of work keeps its frontier below the trigger,
and without the release a copy placed there would start before its
original had finished.  The next event is on the machine with the
earliest max(ready, release), ties to the lowest machine id.

In online execution, quality outcomes are consumed strictly in
completion-time order (a heap decouples them from the per-machine
stepping), so rework triggers can never rewrite work that already
started: a trigger at time T reshuffles only slots starting at or after
T.  Static runs and suffix projections never rework and keep no heap.

Run modes: STATIC runs idle placeholders as time reservations and never
reworks (labels, previews, the pilot); ONLINE skips unfilled
placeholders and hands rework triggers to a pluggable rescheduler;
SUFFIX, internal to suffix projections, skips placeholders and never
reworks.

One kernel entry, ``_kernel.run_machine``, steps every event: it runs
one machine from its next entry up to the first step at which
maintenance is due, and repairs only at a completion that crossed the
threshold.  Every decision taken before a step is the due step's
(``_Sim._take_due``): skip an unfilled placeholder, repair a worn-out
machine, or take a preventive action with grouping and screening.
Machines meet only at due steps, so STATIC and SUFFIX runs step each
machine on its own and take the due steps in global (start, machine id)
order (``_Sim._advance_machines``).  ONLINE runs consume completions in
global time order and step the frontier entry alone
(``_Sim._advance_online``).

Summary runs (SimConfig.summary: planner labels and suffix projections)
build no job or idle events; their maintenance list and results match
the full run's exactly.  A non-finite makespan or maintenance cost
raises InvalidInstanceError: the instance's values are too large to
score.

A plan is prepared once into entity rows (``prepare``) that carry the
kernel arguments fixed along a run.  No run mutates the rows or their
entries (a reschedule replaces the queues it runs), so the replications
of one label share one prepared plan.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

from . import _kernel
from .encoding import Chromosome, SchedulePlan, decode
from .maintenance import (MachineState, MaintenanceEvent, cm_required,
                          corrective_maintenance, imperfect_pm,
                          lifecycle_stats_defined, pm_due,
                          pm_suspension_check, pm_window)
from .model import InvalidInstanceError, Job, ObjectivePair, ProblemInstance
from .rng import NS_ENV, NS_JOB, NS_PILOT, NS_PROP2, NS_RESCHED, RngStream

STATIC = "static"
ONLINE = "online"
SUFFIX = "suffix"


class _Ent:
    """Runtime slot entry of a type: a real job, a rework copy, or an
    idle space (no job).

    release is the earliest time the entry may start: 0 for an entry of
    the plan, the trigger time for a rework copy (a copy exists only
    once its origin has finished).  times is its slot-table row (a
    copy's are its job's), args job_step's arguments after the nominal
    time, by machine."""

    __slots__ = ("eid", "slot", "job", "type", "times", "args", "release")

    def __init__(self, eid: int, slot: int, job: Job | None, type: int,
                 times: dict[int, float], args: dict[int, tuple],
                 release: float = 0.0):
        self.eid = eid
        self.slot = slot
        self.job = job
        self.type = type
        self.times = times
        self.args = args
        self.release = release


@dataclass
class JobEvent:
    eid: int
    job_id: int
    origin: int | None
    type: int
    machine_id: int
    slot: int
    start: float
    duration: float
    d: float
    qualified: bool
    upsilon: float
    eps: float
    du_minus: float
    du_plus: float
    dv: float
    w_before: float
    w_after: float

    @property
    def completion(self) -> float:
        return self.start + self.duration


@dataclass
class IdleEvent:
    eid: int
    slot: int
    idle_type: int
    machine_id: int
    start: float
    duration: float
    dv: float
    du_plus: float
    w_before: float
    w_after: float


@dataclass
class ReschedulePoint:
    time: float
    round_index: int
    n_copies: int
    window_total: int
    window_nonconforming: int
    f_r: float | None = None


@dataclass
class ScheduleTrace:
    mode: str
    det: bool
    job_events: list[JobEvent]
    idle_events: list[IdleEvent]
    maint_events: list[MaintenanceEvent]
    resched_points: list[ReschedulePoint]
    final_states: dict[int, MachineState]
    makespan: float
    maint_cost: float
    q_count: int


@dataclass
class RescheduleContext:
    """Everything a rescheduler may look at when a rework trigger fires."""

    inst: ProblemInstance
    trigger_time: float
    round_index: int
    states: dict[int, MachineState]          # snapshots, safe to mutate
    pending: dict[int, list[_Ent]]           # slots not started yet, in order
    copies: list[_Ent]                       # fresh rework copies to place
    chrom: Chromosome
    det: bool
    prop2: bool
    rng: RngStream                           # candidate-evaluation stream root


@dataclass
class SimConfig:
    mode: str = STATIC                       # STATIC, ONLINE; SUFFIX internal
    det: bool = False
    prop2: bool = True
    rescheduler: "object" = None             # callable(ctx) -> (queues, f_r)
    summary: bool = False                    # internal: no per-event records


@dataclass
class PreparedPlan:
    """A plan's entity rows by machine, shared by every run of it."""

    rows: dict[int, list[_Ent]]
    chrom: Chromosome


def prepare(inst: ProblemInstance, plan: SchedulePlan) -> PreparedPlan:
    """Entity rows of a plan; job_step's arguments after the nominal
    time are concatenated once per machine and type."""
    g = inst.globals
    args = {t: {m.id: (g.eta, m.alpha, m.beta, m.mu_minus, m.sigma_minus,
                       m.mu_plus, m.sigma_plus, m.ups0, m.a, m.b0, m.gamma,
                       q.target, q.tol, q.mu_q, q.sigma_q, q.lo, q.hi,
                       g.noise_sigma)
                for m in inst.machines}
            for t, q in inst.quality.items()}
    idle = plan.chrom.idle_types
    table = inst.slot_times(idle)
    jobs = inst.jobs + [None] * len(idle)
    types = [j.type for j in inst.jobs] + list(idle)
    rows = {mid: [_Ent(s, s, jobs[s], types[s], table[s], args[types[s]])
                  for s in slots]
            for mid, slots in plan.order.items()}
    return PreparedPlan(rows, plan.chrom)


class _Sim:
    """One run in cfg.mode (see simulate()).  Rework copies take entity ids
    from chrom.n_slots and job ids from n_jobs + chrom.n_slots on."""

    def __init__(self, inst: ProblemInstance, queues: dict[int, list[_Ent]],
                 states: dict[int, MachineState], chrom: Chromosome,
                 root: RngStream, cfg: SimConfig):
        self.inst = inst
        self.machines = {m.id: m for m in inst.machines}
        self.pm_window = pm_window(self.machines, chrom.psi)
        self.queues = queues
        self.ptr = {mid: 0 for mid in queues}
        self.states = states
        self.chrom = chrom
        self.root = root
        self.cfg = cfg
        self.det = 1 if cfg.det else 0
        # the keys of substream(NS_ENV, mid), from one table shared by
        # the runs of a world inside a shared_draws() scope
        env_keys = root.substream(NS_ENV).subkeys()
        self.env = {mid: RngStream(env_keys[mid]) for mid in queues}
        # entity eid draws with key job_keys[eid]; a det run draws nothing
        # and reads no key
        self.job_keys = None if cfg.det else root.substream(NS_JOB).subkeys()
        self.job_events: list[JobEvent] = []
        self.idle_events: list[IdleEvent] = []
        self.maint_events: list[MaintenanceEvent] = []
        self.resched_points: list[ReschedulePoint] = []
        self.end = -math.inf        # latest job completion
        self.q_count = 0
        self.heap: list = []        # quality outcomes by completion; rework only
        self.seq = 0
        self.window_total = 0
        self.window_nc = 0
        self.window_copies: list[_Ent] = []     # origins of the next copies
        self.copied: set[int] = set()
        self.next_eid = chrom.n_slots
        self.next_copy_id = inst.n_jobs + chrom.n_slots
        self.round_index = 0
        self.next_gid = 0
        self.prop2_checks: dict[int, int] = {mid: 0 for mid in queues}
        self.pending_trigger: float | None = None
        # STATIC and SUFFIX stepping: the start of each machine's last
        # step, and the step (start, machine id) behind each maintenance
        # event, by which those runs order their records
        self.last = {mid: -math.inf for mid in queues}
        self.maint_keys: list[tuple[float, int]] = []

    # -- helpers -------------------------------------------------------

    def _drain(self, upto: float) -> None:
        while self.heap and self.heap[0][0] <= upto:
            ct, _, _, ent, q = heapq.heappop(self.heap)
            self.window_total += 1
            if not q:
                self.window_nc += 1
                job = ent.job
                if job.origin is None and job.id not in self.copied:
                    self.copied.add(job.id)
                    self.window_copies.append(ent)
            if (self.window_nc >= 1 and self.window_copies
                    and self.window_nc / self.window_total >= self.chrom.thr_r):
                self.pending_trigger = ct
                return

    def _apply_cm(self, mid: int, at: float) -> None:
        st = self.states[mid]
        mp = self.machines[mid]
        self._log_cm(mid, at, st.w)
        corrective_maintenance(st, mp)
        if st.w > mp.cap:               # it would be due again at once
            raise InvalidInstanceError(
                [f"machine {mid}: initial wear {mp.w0} outside [0, cap)"])
        st.ready = at + mp.t_cm
        st.maint_acc += mp.t_cm

    def _log_cm(self, mid: int, at: float, w_before: float) -> None:
        mp = self.machines[mid]
        self.maint_events.append(MaintenanceEvent(
            "cm", mid, at, mp.t_cm, mp.c_cm, None, w_before=w_before,
            w_after=mp.w0, n_pm_after=0))

    def _suspend_if_unprofitable(self, mid: int) -> bool:
        """Run the payoff screen; returns True if the machine got
        suspended (preventive action skipped).  A life cycle the screen
        cannot judge yet is not projected at all, but still uses up its
        projection stream, so later screens draw what they always drew."""
        st = self.states[mid]
        mp = self.machines[mid]
        self.prop2_checks[mid] += 1
        if not lifecycle_stats_defined(st.cyc_jobs, st.cyc_busy, st.cyc_cost):
            return False
        gain = self._project_gain(mid, self.prop2_checks[mid])
        if pm_suspension_check(gain, st.cyc_jobs, st.cyc_busy, st.cyc_cost,
                               mp.t_pm_full, mp.c_pm_full):
            st.suspended = True
            return True
        return False

    def _project_gain(self, mid: int, check: int) -> int:
        """Projected extra jobs this life cycle if we PM now vs. not,
        paired mini-runs over the machine's remaining real slots."""
        job_step = _kernel.job_step
        st = self.states[mid]
        mp = self.machines[mid]
        g = self.inst.globals
        keys = self.root.substream(NS_PROP2, mid, check).subkeys()
        jkey, ekey = keys[1], keys[2]
        row = self.queues[mid]
        out = []
        for do_pm in (True, False):
            w, npm = st.w, st.n_pm
            t, last_start, maint_acc = st.ready, st.last_start, st.maint_acc
            if do_pm:
                w = imperfect_pm(w, npm, g.theta, g.varphi)
                npm += 1
                t += mp.t_pm_full
                maint_acc += mp.t_pm_full
            jctr = ectr = 0
            count = 0
            for k in range(self.ptr[mid], len(row)):
                e = row[k]
                if e.job is None:
                    continue
                dt = (t - last_start) - maint_acc
                if dt < 0.0:
                    dt = 0.0
                (p, _, _, _, _, _, _, _, w, jctr, ectr) = job_step(
                    jkey, jctr, ekey, ectr, self.det, 0, w, dt, e.times[mid],
                    *e.args[mid])
                last_start = t
                maint_acc = 0.0
                t += p
                count += 1
                if cm_required(w, mp.cap):
                    break
            out.append(count)
        return out[0] - out[1]

    def _try_pm(self, mid: int, t: float, cands: Iterable[int]) -> list[int]:
        """Screening and grouping of a due preventive action; cands are
        the machines that may join it.  Those due and ready within the
        merge window that pass their screens form one joint action with
        mid: from the latest ready time, for the longest action, each
        member paying its action and an equal share of the setup.
        Returns the machines it screened or maintained, mid first; mid
        is suspended when the screen switched its action off, and then
        no action was performed."""
        g = self.inst.globals
        if self.cfg.prop2 and self._suspend_if_unprofitable(mid):
            return [mid]
        due = [(t, mid)]
        changed = [mid]
        for mid2 in cands:
            row = self.queues[mid2]
            if mid2 == mid or self.ptr[mid2] >= len(row):
                continue
            st2 = self.states[mid2]
            if not (t <= st2.ready <= t + self.pm_window):
                continue
            if not pm_due(st2, self.chrom.zeta, self.chrom.n_u,
                          self.machines[mid2]):
                continue
            changed.append(mid2)
            if self.cfg.prop2 and self._suspend_if_unprofitable(mid2):
                continue
            due.append((st2.ready, mid2))
        due.sort()
        start = due[-1][0]
        duration = max(self.machines[m].t_pm_full for _, m in due)
        gid = self.next_gid
        self.next_gid += 1
        for _, member in due:
            mp, ms = self.machines[member], self.states[member]
            cost = mp.c_pm + mp.c_ps / len(due)
            w_before = ms.w
            ms.w = imperfect_pm(ms.w, ms.n_pm, g.theta, g.varphi)
            ms.n_pm += 1
            ms.cyc_cost += cost
            self.maint_events.append(MaintenanceEvent(
                "pm", member, start, duration, cost, gid, w_before=w_before,
                w_after=ms.w, n_pm_after=ms.n_pm))
            ms.ready = start + duration
            ms.maint_acc += duration
        return changed

    def _make_copies(self, at: float) -> list[_Ent]:
        out = []
        for ent in self.window_copies:
            job = ent.job
            cid = self.next_copy_id
            self.next_copy_id += 1
            copy = Job(id=cid, type=job.type,
                       nominal_times=dict(job.nominal_times), origin=job.id)
            out.append(_Ent(self.next_eid, -1, copy, job.type,
                            copy.nominal_times, ent.args, at))
            self.next_eid += 1
        return out

    def _do_reschedule(self, at: float) -> None:
        self.round_index += 1
        copies = self._make_copies(at)
        pending = {mid: list(self.queues[mid][self.ptr[mid]:]) for mid in self.queues}
        ctx = RescheduleContext(
            inst=self.inst, trigger_time=at, round_index=self.round_index,
            states={mid: s.copy() for mid, s in self.states.items()},
            pending=pending, copies=copies, chrom=self.chrom, det=bool(self.det),
            prop2=self.cfg.prop2,
            rng=self.root.substream(NS_RESCHED, self.round_index))
        if self.cfg.rescheduler is not None:
            queues, f_r = self.cfg.rescheduler(ctx)
        else:
            queues, f_r = fill_idle_slots(ctx), None
        for mid, row in queues.items():
            for ent in row:
                if ent.job is not None and mid not in ent.job.nominal_times:
                    raise ValueError(
                        f"reschedule put job {ent.job.id} on incapable machine {mid}")
        self.queues = queues
        self.ptr = {mid: 0 for mid in queues}
        self.resched_points.append(ReschedulePoint(
            at, self.round_index, len(copies), self.window_total,
            self.window_nc, f_r))
        self.window_total = 0
        self.window_nc = 0
        self.window_copies = []
        self.pending_trigger = None

    # -- main loop -----------------------------------------------------

    def run(self) -> None:
        if self.cfg.mode != ONLINE:
            self._advance_machines()
            return
        while True:
            self._advance_online()
            if self.pending_trigger is None:
                self._drain(math.inf)
            if self.pending_trigger is None:
                return
            self._do_reschedule(self.pending_trigger)

    def _advance_machines(self) -> None:
        """Step a STATIC or SUFFIX run machine by machine.  Machines meet
        only at a due preventive action, which may group or screen the
        others; every other step changes its own machine alone, draws
        are keyed by machine or entity, and the results are a max and
        sums.  So each machine runs on its own until its state makes a
        preventive action due (_run_machine), those due steps are taken
        in global (start, machine id) order, and the machines a due step
        changed run on from there."""
        stops: dict[int, tuple[float, int]] = {}
        todo = list(self.queues)
        while True:
            for m in todo:
                stop = self._run_machine(m)
                if stop is None:
                    stops.pop(m, None)
                else:
                    stops[m] = (stop, m)
            if not stops:
                break
            t, mid = key = min(stops.values())
            del stops[mid]
            # a machine whose last step comes after the due one ran
            # past it, so at the due step it was not due itself
            todo = self._take_due(
                mid, t, [m for m in stops if (self.last[m], m) < key])
        # records in the global order of the steps that produced them:
        # the maintenance cost is a float sum
        by_step = attrgetter("start", "machine_id")
        self.job_events.sort(key=by_step)
        self.idle_events.sort(key=by_step)
        order = sorted(range(len(self.maint_keys)),
                       key=self.maint_keys.__getitem__)
        self.maint_events = [self.maint_events[k] for k in order]

    def _advance_online(self) -> None:
        """Step an ONLINE run in global time order until every queue is
        empty or a rework trigger is pending: at the frontier, consume
        the completions up to its start, then run its entry alone in the
        kernel and take the due step it stops at."""
        queues, ptr, states = self.queues, self.ptr, self.states
        while True:
            # frontier: earliest effective start, ties to the lowest id
            fronts = [(max(states[m].ready, row[ptr[m]].release), m)
                      for m, row in queues.items() if ptr[m] < len(row)]
            if not fronts:
                return
            t, mid = min(fronts)
            if self.heap and self.heap[0][0] <= t:
                self._drain(t)
                if self.pending_trigger is not None:
                    return
            if self._run_machine(mid, one=True) is not None:
                self._take_due(mid, t, queues)

    def _run_machine(self, mid: int, one: bool = False) -> float | None:
        """Step machine mid on its own from its next entry (or that entry
        alone) in one kernel call, run_machine, up to its row's end or
        the first step at which maintenance is due, whose start it
        returns (None at the end).  Repairs at failing completions are
        logged at the steps that needed them, steps as events unless the
        run is a summary run, and an ONLINE run's completions go on the
        quality heap."""
        st = self.states[mid]
        mp = self.machines[mid]
        erng = self.env[mid]
        row, i = self.queues[mid], self.ptr[mid]
        if one:
            row, i = row[i:i + 1], 0
        events, online = not self.cfg.summary, self.cfg.mode == ONLINE
        record = [] if events or online else None
        (j, stop, erng.ctr, st.w, st.ready, st.last_start,
         st.maint_acc, st.n_pm, st.suspended, st.cyc_jobs, st.cyc_busy,
         self.last[mid], self.end, self.q_count, resets) = _kernel.run_machine(
            row, i, mid, self.job_keys, erng.key, erng.ctr, self.det,
            self.cfg.mode != STATIC, mp.cap, mp.w0, mp.t_cm, self.chrom.zeta,
            self.chrom.n_u, st.w, st.ready, st.last_start, st.maint_acc,
            st.n_pm, st.suspended, st.cyc_jobs, st.cyc_busy, self.last[mid],
            self.end, self.q_count, record)
        self.ptr[mid] += j - i
        for k, t, p, d, q, ups, eps, dv, du_m, du_p, w, w_after in record or ():
            ent = row[k]
            job = ent.job
            if job is None:
                if events:
                    self.idle_events.append(IdleEvent(
                        ent.eid, ent.slot, ent.type, mid, t, p, dv, du_p, w,
                        w_after))
                continue
            if events:
                self.job_events.append(JobEvent(
                    ent.eid, job.id, job.origin, job.type, mid, ent.slot, t,
                    p, d, bool(q), ups, eps, du_m, du_p, dv, w, w_after))
            if online:
                heapq.heappush(self.heap, (t + p, self.seq, mid, ent, q))
                self.seq += 1
        if resets:
            st.cyc_cost = 0.0
            for t, at, w_before in resets:
                self._log_cm(mid, at, w_before)
                if not online:
                    self.maint_keys.append((t, mid))
        return stop

    def _take_due(self, mid: int, t: float, cands: Iterable[int]) -> list[int]:
        """The due step of machine mid's stop at start t, where every
        maintenance decision taken before a step is made, in the
        reference loop's order: skip an unfilled placeholder, repair a
        machine past its threshold, or take the preventive action that
        the machines cands may join.  Returns the machines it changed; a
        screened-off action leaves the step to _run_machine."""
        st = self.states[mid]
        changed = [mid]
        if self.queues[mid][self.ptr[mid]].job is None \
                and self.cfg.mode != STATIC:
            self.ptr[mid] += 1
        elif st.w > self.machines[mid].cap:
            self._apply_cm(mid, st.ready)
        else:
            changed = self._try_pm(mid, t, cands)
            if st.suspended:
                return changed
        if self.cfg.mode != ONLINE:
            self.maint_keys.extend(
                [(t, mid)] * (len(self.maint_events) - len(self.maint_keys)))
            self.last[mid] = t
        return changed

    def objectives(self, default: float) -> tuple[float, float]:
        """Latest job completion (default when no job ran) and the
        maintenance cost; InvalidInstanceError when one is not finite."""
        span = self.end if self.end != -math.inf else default
        return scorable(span, sum(ev.cost for ev in self.maint_events))

    def trace(self) -> ScheduleTrace:
        span, cost = self.objectives(0.0)
        return ScheduleTrace(self.cfg.mode, bool(self.det), self.job_events,
                             self.idle_events, self.maint_events,
                             self.resched_points, self.states, span, cost,
                             self.q_count)


def fill_idle_slots(ctx: RescheduleContext) -> dict[int, list[_Ent]]:
    """Default placement of rework copies: earliest pending idle slots of
    capable machines first, leftovers appended to the least loaded
    capable machine."""
    return _place_copies(ctx, fill=True)


def append_copies(ctx: RescheduleContext) -> dict[int, list[_Ent]]:
    """Right-shift fallback: keep the pending plan untouched and push the
    copies to the tail of the least loaded capable machine."""
    return _place_copies(ctx, fill=False)


def _place_copies(ctx: RescheduleContext, fill: bool) -> dict[int, list[_Ent]]:
    """The pending queues with the rework copies placed, each at the tail
    of the least loaded capable machine unless fill finds it an idle slot."""
    queues = {mid: list(row) for mid, row in ctx.pending.items()}
    loads = {mid: sum(e.job.nominal_times[mid] for e in row if e.job is not None)
             for mid, row in queues.items()}
    leftover = []
    for copy in ctx.copies:
        spots = []
        for mid, row in queues.items():
            if not fill or mid not in copy.job.nominal_times:
                continue
            for pos, ent in enumerate(row):
                if ent.job is None and ent.type == copy.job.type:
                    spots.append((pos, mid))
                    break
        if spots:
            pos, mid = min(spots)
            queues[mid][pos] = copy
            loads[mid] += copy.job.nominal_times[mid]
        else:
            leftover.append(copy)
    for copy in leftover:
        cands = [mid for mid in queues if mid in copy.job.nominal_times]
        mid = min(cands, key=lambda m: (loads[m], m))
        queues[mid].append(copy)
        loads[mid] += copy.job.nominal_times[mid]
    return queues


def simulate(inst: ProblemInstance, plan: SchedulePlan | PreparedPlan,
             root: RngStream, cfg: SimConfig | None = None) -> ScheduleTrace:
    """Execute a plan, or replay a prepared one.  See the module
    docstring for the semantics."""
    if not isinstance(plan, PreparedPlan):
        plan = prepare(inst, plan)
    states = {m.id: MachineState(m.id, m.w0) for m in inst.machines}
    sim = _Sim(inst, plan.rows, states, plan.chrom, root, cfg or SimConfig())
    sim.run()
    return sim.trace()


def simulate_suffix(ctx: RescheduleContext, queues: dict[int, list[_Ent]],
                    eval_rng: RngStream) -> tuple[float, float, int]:
    """Project the rest of the horizon under a candidate suffix plan.

    Runs the same machine steps in SUFFIX mode from the snapshot states,
    on the candidate-evaluation stream family so that all candidates of
    one trigger share draws entity for entity.  A SUFFIX run never
    reschedules, so it only reads the queues.

    Returns (suffix span from the trigger, maintenance cost, qualified).
    """
    states = {mid: s.copy() for mid, s in ctx.states.items()}
    sim = _Sim(ctx.inst, queues, states, ctx.chrom, eval_rng,
               SimConfig(mode=SUFFIX, det=ctx.det, prop2=ctx.prop2,
                         summary=True))
    sim.run()
    span, cost = sim.objectives(ctx.trigger_time)
    return span - ctx.trigger_time, cost, sim.q_count


def idle_space_count(inst: ProblemInstance, rng: RngStream) -> dict[int, int]:
    """Idle spaces to reserve per type, from one nominal-plan pilot run.

    The pilot deals the jobs of each type round-robin, each job to its
    own machines in id order, simulates once stochastically, and sizes
    the reservation as the observed nonconforming count divided by the
    number of machines a reserved space of that type may sit on,
    rounded up.
    """
    assign: list[int] = []
    key: list[float] = []
    rr: dict[int, int] = {}
    for i, (job, times) in enumerate(zip(inst.jobs, inst.slot_times(()))):
        caps = sorted(times)
        k = rr.get(job.type, 0)
        assign.append(caps[k % len(caps)])
        rr[job.type] = k + 1
        key.append((i + 1.0) / (inst.n_jobs + 1.0))
    plan = decode(Chromosome(assign, key, ()), inst)
    trace = simulate(inst, plan, rng.substream(NS_PILOT),
                     SimConfig(mode=STATIC))
    bad: dict[int, int] = {}
    for ev in trace.job_events:
        if not ev.qualified:
            bad[ev.type] = bad.get(ev.type, 0) + 1
    return {t: math.ceil(bad.get(t, 0) / len(inst.capable_machines(t)))
            for t in inst.job_types()}


# -- fitness and objectives -------------------------------------------


def scorable(span: float, cost: float) -> tuple[float, float]:
    """(span, cost); InvalidInstanceError when one is not finite."""
    for name, x in (("makespan", span), ("maintenance cost", cost)):
        if not math.isfinite(x):
            raise InvalidInstanceError([
                f"a run's {name} is {x!r}: values too large to score"])
    return span, cost


def fitness_static(trace: ScheduleTrace) -> float:
    """Planning fitness: fitness_resched over the whole run."""
    return fitness_resched(trace.q_count, trace.maint_cost, trace.makespan)


def fitness_resched(q_sum: int, maint_cost: float, span: float) -> float:
    """Rescheduling fitness: squared qualified count over cost x span."""
    if span <= 0.0:
        return 0.0
    return (q_sum * q_sum) / (max(maint_cost, 1.0) * span)


def fitness_eval(trace: ScheduleTrace, d_o: float) -> float:
    """Execution fitness: inverse of cost, span and planned-vs-real drift."""
    if trace.makespan <= 0.0:
        return 0.0
    return 1.0 / (max(trace.maint_cost, 1.0) * trace.makespan * d_o)


def objectives(trace: ScheduleTrace) -> ObjectivePair:
    return ObjectivePair(trace.makespan, trace.maint_cost)
