"""Online rework rescheduling.

When a trigger fires mid-execution the pending suffix of the plan plus
the fresh rework copies are re-arranged by a short hill climb: odd
iterations pull a job into the machine that frees up first, even
iterations shake sequences with adjacent swaps plus one cross-machine
exchange.  Candidates are scored by a suffix projection under shared
random draws, and the trivial tail-append fallback is always in the
pool, so the returned plan never scores below it.
"""

from __future__ import annotations

from .encoding import planned_starts
from .model import ProblemInstance
from .rng import NS_SEARCH, shared_draws
from .simulate import (RescheduleContext, ScheduleTrace, append_copies,
                       fill_idle_slots, fitness_resched, simulate_suffix)


def ji_insert(seq: list, item, pos: int) -> list:
    """Copy of seq with item inserted so it lands at index pos.

    pos may equal len(seq) (append); anything outside [0, len] raises
    IndexError.
    """
    if pos < 0 or pos > len(seq):
        raise IndexError(f"insert position {pos} outside [0, {len(seq)}]")
    out = list(seq)
    out.insert(pos, item)
    return out


def js_swap(seq: list, i: int, j: int) -> list:
    """Copy of seq with positions i and j exchanged."""
    n = len(seq)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"swap positions ({i}, {j}) outside [0, {n})")
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return out


def deviation(plan, trace: ScheduleTrace, inst: ProblemInstance) -> float:
    """Drift of the realized run from the published timetable.

    1 + (summed start delays over summed planned durations)
      + (share of jobs that changed machine).
    Only original jobs are compared; copies exist only in the realization.
    """
    base = planned_starts(plan, inst)
    n = inst.n_jobs
    shift = 0.0
    planned_total = 0.0
    reassigned = 0
    for ev in trace.job_events:
        if ev.origin is not None or ev.slot < 0 or ev.slot >= n:
            continue
        shift += abs(ev.start - base[ev.slot])
        planned_total += inst.jobs[ev.slot].nominal_times[plan.machine_of(ev.slot)]
        if ev.machine_id != plan.machine_of(ev.slot):
            reassigned += 1
    d = 1.0 + (shift / planned_total if planned_total > 0 else 0.0) \
        + reassigned / n
    return d if d > 1.0 else 1.0


def _score(ctx: RescheduleContext, queues, counter, seen: list) -> float:
    """Rescheduling fitness of one candidate suffix plan.

    Every evaluation counts as one simulator call, but a candidate equal
    to one already projected at this trigger (the same entities in the
    same order on every machine, idle entries included) reuses its
    score from seen: shared draws make the outcome identical.  Entries
    compare by identity, so no key is built."""
    if counter is not None:
        counter[0] += 1
    for prev, f in seen:
        if prev == queues:
            return f
    span, cost, q = simulate_suffix(ctx, queues, ctx.rng)
    f = fitness_resched(q, cost, span)
    seen.append((queues, f))
    return f


def _real_positions(row) -> list[int]:
    return [i for i, e in enumerate(row) if e.job is not None]


def _ready_times(ctx: RescheduleContext, queues) -> dict:
    """When each machine would free up: its ready time plus the nominal
    times of the real jobs queued on it."""
    return {mid: ctx.states[mid].ready
            + sum(e.job.nominal_times[mid] for e in row if e.job is not None)
            for mid, row in queues.items()}


def reschedule(ctx: RescheduleContext, budget: int,
               counter: list | None = None):
    """Pick a suffix plan for the pending work plus the rework copies.

    Returns (queues, f_r) as expected by the simulator hook.  Every
    candidate is projected on the trigger's evaluation stream, so the
    projections share their draws.
    """
    with shared_draws():
        rng = ctx.rng.substream(NS_SEARCH)
        seen: list = []
        base_fill = fill_idle_slots(ctx)
        base_append = append_copies(ctx)
        best = base_fill
        best_f = _score(ctx, base_fill, counter, seen)
        f_append = _score(ctx, base_append, counter, seen)
        if f_append > best_f:
            best, best_f = base_append, f_append
        cur, cur_f = best, best_f
        est = _ready_times(ctx, cur)
        for it in range(1, budget + 1):
            cand = {mid: list(row) for mid, row in cur.items()}
            if it % 2 == 1:
                # pull one job toward the machine that frees up first
                erl = min(cand, key=lambda m: (est[m], m))
                donors = [m for m in cand
                          if m != erl and _real_positions(cand[m])]
                if donors:
                    src = max(donors, key=lambda m: (est[m], m))
                    movable = [i for i in _real_positions(cand[src])
                               if erl in cand[src][i].job.nominal_times]
                    if movable:
                        i = movable[rng.randrange(len(movable))]
                        ent = cand[src].pop(i)
                        pos = rng.randrange(len(cand[erl]) + 1)
                        cand[erl] = ji_insert(cand[erl], ent, pos)
            else:
                for mid, row in cand.items():
                    if len(row) > 1:
                        i = rng.randrange(len(row) - 1)
                        cand[mid] = js_swap(row, i, i + 1)
                mids = [m for m in cand if _real_positions(cand[m])]
                if len(mids) >= 2:
                    ma = mids[rng.randrange(len(mids))]
                    mb_opts = [m for m in mids if m != ma]
                    mb = mb_opts[rng.randrange(len(mb_opts))]
                    ia = rng.choice(_real_positions(cand[ma]))
                    ib = rng.choice(_real_positions(cand[mb]))
                    ea, eb = cand[ma][ia], cand[mb][ib]
                    if (mb in ea.job.nominal_times
                            and ma in eb.job.nominal_times):
                        cand[ma][ia], cand[mb][ib] = eb, ea
            f = _score(ctx, cand, counter, seen)
            if f > cur_f:
                cur, cur_f = cand, f
                est = _ready_times(ctx, cur)
            if f > best_f:
                best, best_f = cand, f
    return best, best_f


def make_rescheduler(budget: int, counter: list | None = None):
    """Bind a budget so the simulator can call the improver per trigger."""
    def hook(ctx: RescheduleContext):
        return reschedule(ctx, budget, counter)
    return hook


def right_shift_rescheduler(counter: list | None = None):
    """Baseline policy: never re-sequence, just append the copies."""
    def hook(ctx: RescheduleContext):
        queues = append_copies(ctx)
        return queues, _score(ctx, queues, counter, [])
    return hook
