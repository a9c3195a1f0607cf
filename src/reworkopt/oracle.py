"""Independent ground truth: trace auditing and exhaustive search.

check_feasibility re-derives the structural rules of a valid execution
from the raw event list, without trusting any simulator bookkeeping.

enumerate_pareto walks every (assignment, per-machine sequence,
maintenance pattern) combination a threshold policy can realize on a
small instance and returns the exact nondominated set of deterministic
outcomes.  Patterns are pruned by interval arithmetic on the shared
wear-fraction threshold: a pattern is admissible only if a single
(threshold, cap) gene pair can reproduce it on every machine at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import (InvalidOptionError, ObjectivePair, ProblemInstance,
                    front_insert)
from .simulate import ScheduleTrace

_TOL = 1e-9


def check_feasibility(inst: ProblemInstance, trace: ScheduleTrace) -> list[str]:
    """Structural violations of an executed trace; empty list = clean."""
    errs: list[str] = []
    jobs_by_id = {j.id: j for j in inst.jobs}
    caps = {m.id: m.cap for m in inst.machines}

    seen_eids: set[int] = set()
    seen_jobs: set[int] = set()
    completion_of: dict[int, float] = {}
    for ev in trace.job_events:
        if ev.eid in seen_eids:
            errs.append(f"entity {ev.eid} processed twice")
        seen_eids.add(ev.eid)
        if ev.job_id in seen_jobs:
            errs.append(f"job {ev.job_id} processed twice")
        seen_jobs.add(ev.job_id)
        completion_of[ev.job_id] = ev.completion
        if ev.origin is None:
            base = jobs_by_id.get(ev.job_id)
            if base is None:
                errs.append(f"job {ev.job_id} not part of the instance")
            elif ev.machine_id not in base.nominal_times:
                errs.append(f"job {ev.job_id} ran on incapable machine "
                            f"{ev.machine_id}")
        else:
            if ev.origin not in jobs_by_id:
                errs.append(f"copy {ev.job_id} has unknown origin {ev.origin}")
            elif ev.machine_id not in jobs_by_id[ev.origin].nominal_times:
                errs.append(f"copy {ev.job_id} ran on incapable machine "
                            f"{ev.machine_id}")
    missing = set(jobs_by_id) - seen_jobs
    if missing:
        errs.append(f"jobs never processed: {sorted(missing)}")

    for ev in trace.job_events:
        if ev.origin is not None and ev.origin in completion_of:
            if ev.start < completion_of[ev.origin] - _TOL:
                errs.append(f"copy {ev.job_id} started before its origin "
                            f"{ev.origin} finished")

    # per-machine timeline: chronological, non-overlapping, wear-continuous
    per_machine: dict[int, list] = {m.id: ([], [], []) for m in inst.machines}
    for ev in trace.job_events:
        per_machine[ev.machine_id][0].append(
            (ev.start, ev.completion, ev.w_before, ev.w_after, f"job {ev.job_id}"))
    for ev in trace.idle_events:
        per_machine[ev.machine_id][1].append(
            (ev.start, ev.start + ev.duration, ev.w_before, ev.w_after,
             f"idle {ev.eid}"))
    for ev in trace.maint_events:
        per_machine[ev.machine_id][2].append(
            (ev.time, ev.time + ev.duration, ev.w_before, ev.w_after,
             f"{ev.kind} on {ev.machine_id}"))
    for mid, lists in per_machine.items():
        rows = _timeline(lists)
        for a, b in zip(rows, rows[1:]):
            if b[0] < a[1] - _TOL:
                errs.append(f"machine {mid}: {b[4]} overlaps {a[4]}")
            if b[2] != a[3]:
                errs.append(f"machine {mid}: wear discontinuity between "
                            f"{a[4]} and {b[4]}")

    # failure handling: never work on a failed machine, repairs only at failure
    for ev in trace.job_events:
        if ev.w_before > caps[ev.machine_id]:
            errs.append(f"job {ev.job_id} started on failed machine "
                        f"{ev.machine_id}")
    for ev in trace.maint_events:
        if ev.kind == "cm" and not ev.w_before > caps[ev.machine_id]:
            errs.append(f"repair on machine {ev.machine_id} at {ev.time} "
                        "without failure")

    # preventive groups: one action per machine, synchronized window
    by_group: dict[int, list] = {}
    for ev in trace.maint_events:
        if ev.kind == "pm":
            if ev.group is None:
                errs.append(f"preventive action on {ev.machine_id} at "
                            f"{ev.time} without a group")
            else:
                by_group.setdefault(ev.group, []).append(ev)
    for gid, evs in by_group.items():
        mids = [e.machine_id for e in evs]
        if len(mids) != len(set(mids)):
            errs.append(f"group {gid}: machine appears twice")
        if len({e.time for e in evs}) > 1 or len({e.duration for e in evs}) > 1:
            errs.append(f"group {gid}: members not synchronized")

    # preventive counters per machine
    for mid in per_machine:
        n = 0
        for ev in sorted([e for e in trace.maint_events if e.machine_id == mid],
                         key=lambda e: e.time):
            if ev.kind == "cm":
                n = 0
            else:
                n += 1
            if ev.n_pm_after != n:
                errs.append(f"machine {mid}: preventive counter {ev.n_pm_after}"
                            f" at {ev.time}, recomputed {n}")

    # aggregates
    ms = max((ev.completion for ev in trace.job_events), default=0.0)
    if trace.makespan != ms:
        errs.append(f"makespan {trace.makespan} != recomputed {ms}")
    cost = sum(ev.cost for ev in trace.maint_events)
    if trace.maint_cost != cost:
        errs.append(f"maintenance cost {trace.maint_cost} != recomputed {cost}")
    q = sum(1 for ev in trace.job_events if ev.qualified)
    if trace.q_count != q:
        errs.append(f"qualified count {trace.q_count} != recomputed {q}")
    return errs


def _timeline(lists):
    """One machine's rows of each list merged in (start, end) order.  Rows
    tied in both, as at times so large that durations are lost in
    rounding, go in list order, except that a row whose wear before is
    the wear the last row left goes first; each list keeps its own order
    among its ties."""
    stacks = [sorted(rows, key=lambda r: r[:2])[::-1] for rows in lists]
    out, w = [], None
    while any(stacks):
        first = min(s[-1][:2] for s in stacks if s)
        tied = [s for s in stacks if s and s[-1][:2] == first]
        out.append(next((s for s in tied if s[-1][2] == w), tied[0]).pop())
        w = out[-1][3]
    return out


# -- exhaustive enumeration -------------------------------------------


@dataclass
class OracleSolution:
    objectives: ObjectivePair
    assign: tuple[int, ...]             # job index -> machine id
    orders: dict[int, tuple[int, ...]]  # machine id -> job indices in sequence
    patterns: dict[int, tuple[int, ...]]  # machine id -> preventive actions
                                          # performed right before each slot
    zeta: float
    n_u: int


def _feasible(lo: float, hi: float, zmin: float, zmax: float) -> bool:
    top = hi if hi < zmax else zmax
    return top > lo and top >= zmin


def _machine_options(inst: ProblemInstance, mid: int,
                     order: tuple[int, ...], n_u: int,
                     zmin: float, zmax: float):
    """All maintenance patterns a shared threshold policy can realize on
    this machine for this sequence, with the threshold interval each one
    requires.

    Returns a list of (completion, cost, q_sum, lo, hi, pattern).
    Deterministic arithmetic mirrors the event simulator statement for
    statement.
    """
    mp = inst.machine(mid)
    g = inst.globals
    jobs = [inst.jobs[i] for i in order]
    pre = []
    for j in jobs:
        spec = inst.quality[j.type]
        ups = spec.mu_q
        if ups < spec.lo:
            ups = spec.lo
        elif ups > spec.hi:
            ups = spec.hi
        delta = abs(ups - spec.target)
        pre.append((j.nominal_times[mid], spec.target, spec.tol,
                    delta if delta >= spec.tol else -1.0))
    out = []

    def step(idx, t, last_start, maint_acc, w, n_pm, cost, qsum, lo, hi,
             pattern):
        o, sl, xi, delta = pre[idx]
        dt = (t - last_start) - maint_acc
        if dt < 0.0:
            dt = 0.0
        dv = mp.alpha * dt * mp.beta
        w1 = w + dv
        p = o * (1.0 + g.eta * w1)
        eps = 0.0
        d = mp.ups0 + mp.a * w1 + mp.b0 * eps + w1 * mp.gamma * eps
        if abs(d - sl) < xi:
            qsum += 1
        if delta < 0.0:
            du_m = 0.0
        else:
            du_m = delta * mp.mu_minus
            if du_m < 0.0:
                du_m = 0.0
        du_p = p * mp.mu_plus
        if du_p < 0.0:
            du_p = 0.0
        last_start = t
        maint_acc = 0.0
        w = (w1 + du_m) + du_p
        t = t + p
        c_last = t
        if idx + 1 == len(jobs):
            # a crossing is repaired at the completion that caused it,
            # so the final job still pays for the breakdown it triggers;
            # the repair runs after the last completion and cannot move
            # any job, only the cost registers
            if w > mp.cap:
                cost += mp.c_cm
            out.append((c_last, cost, qsum, lo, hi, pattern))
            return
        if w > mp.cap:
            cost += mp.c_cm
            t += mp.t_cm
            maint_acc += mp.t_cm
            w = mp.w0
            n_pm = 0
        decide(idx + 1, t, last_start, maint_acc, w, n_pm, cost, qsum,
               lo, hi, pattern, 0)

    def decide(idx, t, last_start, maint_acc, w, n_pm, cost, qsum, lo, hi,
               pattern, count):
        # the executor re-evaluates after every preventive action, so a
        # slot can absorb several in a row; count tracks them
        ratio = w / mp.cap
        lo2 = lo
        if n_pm < n_u and ratio > lo2:
            lo2 = ratio
        if _feasible(lo2, hi, zmin, zmax):
            step(idx, t, last_start, maint_acc, w, n_pm, cost, qsum,
                 lo2, hi, pattern + (count,))
        if n_pm < n_u:
            hi2 = hi if ratio >= hi else ratio
            if _feasible(lo, hi2, zmin, zmax):
                w2 = g.theta * w + g.varphi * n_pm
                decide(idx, t + mp.t_pm_full, last_start,
                       maint_acc + mp.t_pm_full, w2, n_pm + 1,
                       cost + mp.c_pm_full, qsum, lo, hi2, pattern,
                       count + 1)

    if not jobs:
        return [(0.0, 0.0, 0, 0.0, math.inf, ())]
    decide(0, 0.0, 0.0, 0.0, mp.w0, 0, 0.0, 0, 0.0, math.inf, (), 0)
    return out


def enumerate_pareto(inst: ProblemInstance,
                     zeta_bounds: tuple[float, float] = (0.05, 0.95),
                     n_u_max: int = 2,
                     max_jobs: int = 8) -> list[OracleSolution]:
    """Exact nondominated set over every assignment, sequence and
    policy-reachable maintenance pattern, deterministic dynamics.

    Only instances up to max_jobs jobs are accepted (the space grows
    factorially); anything larger raises InvalidOptionError.
    """
    n = inst.n_jobs
    if n > max_jobs:
        raise InvalidOptionError(f"{n} jobs exceed the enumeration limit {max_jobs}")
    if n_u_max < 0:
        raise InvalidOptionError(f"n_u_max {n_u_max} is negative")
    zmin, zmax = zeta_bounds
    mids = [m.id for m in inst.machines]
    cap_lists = [sorted(j.nominal_times) for j in inst.jobs]
    front: list = []
    for assign in itertools.product(*cap_lists):
        per: dict[int, list[int]] = {mid: [] for mid in mids}
        for ji, mid in enumerate(assign):
            per[mid].append(ji)
        for n_u in range(n_u_max + 1):
            # options per machine: every order x pattern with its interval
            opt_lists = []
            for mid in mids:
                opts = []
                for order in itertools.permutations(per[mid]):
                    for (c, cost, qs, lo, hi, pat) in _machine_options(
                            inst, mid, order, n_u, zmin, zmax):
                        opts.append((c, cost, qs, lo, hi, order, pat))
                opt_lists.append(opts)
            for combo in itertools.product(*opt_lists):
                lo = 0.0
                hi = math.inf
                for (_, _, _, l2, h2, _, _) in combo:
                    if l2 > lo:
                        lo = l2
                    if h2 < hi:
                        hi = h2
                if not _feasible(lo, hi, zmin, zmax):
                    continue
                cmax = max(c for (c, _, _, _, _, _, _) in combo)
                cost = sum(co for (_, co, _, _, _, _, _) in combo)
                obj = ObjectivePair(cmax, cost)
                zeta = hi if hi < zmax else zmax
                sol = OracleSolution(
                    obj, assign,
                    {mid: combo[k][5] for k, mid in enumerate(mids)},
                    {mid: combo[k][6] for k, mid in enumerate(mids)},
                    zeta, n_u)
                front_insert(front, sol, lambda s: s.objectives)
    return sorted(front, key=lambda s: s.objectives)
