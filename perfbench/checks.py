"""Output checks made apart from the program.

Each check re-derives what must hold from the instance and the raw
events, using only the model's definitions: a duration is the nominal
time stretched by wear (p = o * (1 + eta * w) with eta, w >= 0), a
rework copy answers a failed first pass, and a static run follows the
decoded order (slots of a machine sorted by key, ties by slot id).  No
check compares against a stored copy of earlier output.  Every check
returns a list of violations; an empty list means the output is sound.
"""

from __future__ import annotations

import math

TOL = 1e-9


def _capable_by_type(inst) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for job in inst.jobs:
        out.setdefault(job.type, set()).update(job.nominal_times)
    return out


def makespan_lower_bound(inst) -> float:
    """No schedule beats the longest job or a perfectly even split."""
    mins = [min(job.nominal_times.values()) for job in inst.jobs]
    return max(max(mins), sum(mins) / len(inst.machines))


def check_trace(inst, trace, chrom=None) -> list[str]:
    """Structural and arithmetic soundness of one executed trace.

    With a chromosome, the trace must also be a static run of it: every
    machine processes its slots in the decoded order.
    """
    errs: list[str] = []
    jobs = {job.id: job for job in inst.jobs}
    firsts = {}
    copies = []
    for ev in trace.job_events:
        if ev.origin is not None:
            copies.append(ev)
            continue
        job = jobs.get(ev.job_id)
        if job is None:
            errs.append("job %d is not in the instance" % ev.job_id)
            continue
        if ev.job_id in firsts:
            errs.append("job %d runs twice as an original" % ev.job_id)
        firsts[ev.job_id] = ev
        if ev.machine_id not in job.nominal_times:
            errs.append("job %d ran on incapable machine %d"
                        % (ev.job_id, ev.machine_id))
    missing = sorted(set(jobs) - set(firsts))
    if missing:
        errs.append("jobs never run: %s" % missing)

    errs += copies_before_origin(trace)
    copied = set()
    for ev in copies:
        first = firsts.get(ev.origin)
        if first is None:
            errs.append("copy %d of job %d, which never ran"
                        % (ev.job_id, ev.origin))
            continue
        if first.qualified:
            errs.append("copy %d of job %d, which passed quality"
                        % (ev.job_id, ev.origin))
        if ev.origin in copied:
            errs.append("job %d copied twice" % ev.origin)
        copied.add(ev.origin)
        if ev.machine_id not in jobs[ev.origin].nominal_times:
            errs.append("copy %d ran on incapable machine %d"
                        % (ev.job_id, ev.machine_id))

    for ev in trace.job_events:
        base = jobs.get(ev.job_id if ev.origin is None else ev.origin)
        nominal = base.nominal_times.get(ev.machine_id) if base else None
        if nominal is not None and ev.duration < nominal:
            errs.append("job %d shorter than its nominal time" % ev.job_id)
    for ev in trace.idle_events:
        nominal = inst.idle_nominal.get(ev.idle_type, {}).get(ev.machine_id)
        if nominal is None:
            errs.append("idle slot %d on a machine that cannot host type %d"
                        % (ev.slot, ev.idle_type))
        elif ev.duration < nominal:
            errs.append("idle slot %d shorter than its nominal time" % ev.slot)

    lanes: dict[int, list] = {}
    for ev in trace.job_events:
        lanes.setdefault(ev.machine_id, []).append(
            (ev.start, ev.start + ev.duration, "job %d" % ev.job_id))
    for ev in trace.idle_events:
        lanes.setdefault(ev.machine_id, []).append(
            (ev.start, ev.start + ev.duration, "idle slot %d" % ev.slot))
    for ev in trace.maint_events:
        lanes.setdefault(ev.machine_id, []).append(
            (ev.time, ev.time + ev.duration, "%s at %r" % (ev.kind, ev.time)))
    for mid, lane in lanes.items():
        lane.sort()
        for a, b in zip(lane, lane[1:]):
            if b[0] < a[1] - TOL:
                errs.append("machine %d: %s overlaps %s" % (mid, b[2], a[2]))

    makespan = max((ev.start + ev.duration for ev in trace.job_events),
                   default=0.0)
    if trace.makespan != makespan:
        errs.append("makespan %r, events give %r" % (trace.makespan, makespan))
    cost = math.fsum(ev.cost for ev in trace.maint_events)
    if not math.isclose(trace.maint_cost, cost, rel_tol=TOL, abs_tol=TOL):
        errs.append("maintenance cost %r, events give %r"
                    % (trace.maint_cost, cost))
    q_count = sum(1 for ev in trace.job_events if ev.qualified)
    if trace.q_count != q_count:
        errs.append("q_count %r, events give %r" % (trace.q_count, q_count))
    bound = makespan_lower_bound(inst)
    if trace.makespan < bound - TOL:
        errs.append("makespan %r below the instance bound %r"
                    % (trace.makespan, bound))

    if chrom is not None:
        ran: dict[int, list] = {}
        for ev in list(trace.job_events) + list(trace.idle_events):
            ran.setdefault(ev.machine_id, []).append((ev.start, ev.slot))
        for mid in {m.id for m in inst.machines}:
            planned = sorted((s for s, m in enumerate(chrom.assign) if m == mid),
                             key=lambda s: (chrom.key[s], s))
            done = [s for _, s in sorted(ran.get(mid, []))]
            if done != planned:
                errs.append("machine %d ran slots %s, the plan orders %s"
                            % (mid, done[:8], planned[:8]))
    return errs


def copies_before_origin(trace) -> list[str]:
    """Rework copies that start before their original ends: a copy is
    made when the original's failed outcome is known, at its completion."""
    ends = {ev.job_id: ev.start + ev.duration for ev in trace.job_events
            if ev.origin is None}
    return ["copy %d starts before job %d ends" % (ev.job_id, ev.origin)
            for ev in trace.job_events
            if ev.origin in ends and ev.start < ends[ev.origin] - TOL]


def check_reschedules(records) -> list[str]:
    """records: (f_r, append fallback score) per trigger.  The improver
    keeps the fallback in its pool, so it may never score below it."""
    return ["trigger %d: f_r %r below the append fallback %r" % (i, f_r, f_app)
            for i, (f_r, f_app) in enumerate(records) if not f_r >= f_app]


def check_population(inst, pop, size, bounds, idle_types, prev_best=None
                     ) -> list[str]:
    """A planner population after one generation."""
    errs: list[str] = []
    if len(pop) != size:
        errs.append("population of %d, expected %d" % (len(pop), size))
    labels = [ind.label for ind in pop]
    if any(not math.isfinite(x) or x < 0 for x in labels):
        errs.append("label not finite and nonnegative: %r" % labels)
        return errs
    if prev_best is not None and max(labels) < prev_best:
        errs.append("best label fell from %r to %r" % (prev_best, max(labels)))
    caps = _capable_by_type(inst)
    n = inst.n_jobs
    for k, ind in enumerate(pop):
        ch = ind.chrom
        if tuple(ch.idle_types) != tuple(idle_types):
            errs.append("member %d: idle slots changed" % k)
            continue
        if len(ch.assign) != n + len(idle_types) or len(ch.key) != len(ch.assign):
            errs.append("member %d: wrong slot count" % k)
            continue
        for slot, mid in enumerate(ch.assign):
            ok = (mid in inst.jobs[slot].nominal_times if slot < n
                  else mid in caps.get(idle_types[slot - n], ()))
            if not ok:
                errs.append("member %d: slot %d on incapable machine %d"
                            % (k, slot, mid))
                break
        if any(not 0.0 <= x < 1.0 for x in ch.key):
            errs.append("member %d: slot key outside [0, 1)" % k)
        for gene in ("zeta", "psi", "thr_r"):
            lo, hi = getattr(bounds, gene)
            if not lo <= getattr(ch, gene) <= hi:
                errs.append("member %d: %s %r outside [%r, %r]"
                            % (k, gene, getattr(ch, gene), lo, hi))
        if not (isinstance(ch.n_u, int) and 0 <= ch.n_u <= bounds.n_u_max):
            errs.append("member %d: n_u %r outside [0, %d]"
                        % (k, ch.n_u, bounds.n_u_max))
    return errs


def _dominates(p, q) -> bool:
    return p[0] <= q[0] and p[1] <= q[1] and (p[0] < q[0] or p[1] < q[1])


def check_archive(points, bound=0.0) -> list[str]:
    """A Pareto archive: nonempty, mutually nondominated, no repeats,
    every makespan at or above the instance bound."""
    errs: list[str] = []
    if not points:
        errs.append("empty archive")
    if len(set(points)) != len(points):
        errs.append("archive repeats a point")
    for p in points:
        if p[0] < bound - TOL:
            errs.append("archive makespan %r below the bound %r" % (p[0], bound))
        for q in points:
            if _dominates(q, p):
                errs.append("archive point %r dominated by %r" % (p, q))
    return errs


def check_report(text: str, seeds) -> list[str]:
    """The aggregate report: one row per seed with hv in [0, 1] and
    nonnegative igd and rpd."""
    errs: list[str] = []
    rows = {}
    for line in text.splitlines()[2:]:
        parts = line.split("\t")
        if len(parts) == 4:
            rows[int(parts[0])] = [float(x) for x in parts[1:]]
    if sorted(rows) != sorted(seeds):
        errs.append("report rows for seeds %s, expected %s"
                    % (sorted(rows), sorted(seeds)))
    for seed, (hv, igd, rpd) in sorted(rows.items()):
        if not 0.0 <= hv <= 1.0:
            errs.append("seed %d: hypervolume %r outside [0, 1]" % (seed, hv))
        if not igd >= 0.0:
            errs.append("seed %d: negative igd %r" % (seed, igd))
        if not rpd >= 0.0:
            errs.append("seed %d: negative rpd %r" % (seed, rpd))
    return errs
