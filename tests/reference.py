"""The slow reference of the event loop: one global loop, one
``job_step`` call per event.

``ReferenceSim`` runs every mode, summary or full, event by event: it
picks the frontier machine (earliest effective start, ties to the
lowest id), consumes the quality outcomes up to it, and then skips an
unfilled placeholder, repairs, takes a due preventive action or steps
the event.  The simulator steps its runs in the kernel's
``run_machine`` instead, machine by machine; the parity tests in
``test_simulate`` hold it to this loop event for event.
"""

from __future__ import annotations

import heapq
import math

from reworkopt import _kernel
from reworkopt.encoding import SchedulePlan
from reworkopt.maintenance import MachineState
from reworkopt.model import ProblemInstance
from reworkopt.rng import RngStream
from reworkopt.simulate import (ONLINE, STATIC, IdleEvent, JobEvent,
                                PreparedPlan, ScheduleTrace, SimConfig, _Sim,
                                prepare)


class ReferenceSim(_Sim):
    """A run of _Sim whose events are stepped by _advance."""

    def run(self) -> None:
        while True:
            self._advance()
            if self.pending_trigger is None and self.cfg.mode == ONLINE:
                self._drain(math.inf)
            if self.pending_trigger is None:
                return
            self._do_reschedule(self.pending_trigger)

    def _advance(self) -> None:
        """Process events in global time order until every queue is
        empty or a rework trigger is pending."""
        job_step = _kernel.job_step
        queues, ptr, states = self.queues, self.ptr, self.states
        det, env, job_keys = self.det, self.env, self.job_keys
        zeta, n_u = self.chrom.zeta, self.chrom.n_u
        caps = {m.id: m.cap for m in self.inst.machines}
        skip_idle, summary = self.cfg.mode != STATIC, self.cfg.summary
        heap = self.heap if self.cfg.mode == ONLINE else None
        while True:
            mid = -1
            t = 0.0
            for m, row in queues.items():
                i = ptr[m]
                if i < len(row):
                    tm = states[m].ready
                    rel = row[i].release
                    if rel > tm:
                        tm = rel
                    if mid < 0 or tm < t or (tm == t and m < mid):
                        mid, t, ent = m, tm, row[i]
            if mid < 0:
                return
            if heap and heap[0][0] <= t:
                self._drain(t)
                if self.pending_trigger is not None:
                    return
            job = ent.job
            if job is None and skip_idle:
                ptr[mid] += 1
                continue
            st = states[mid]
            cap = caps[mid]
            if st.w > cap:
                self._apply_cm(mid, st.ready)
                continue
            if not st.suspended and st.w / cap >= zeta and st.n_pm < n_u:
                self._try_pm(mid, t, queues)
                if not st.suspended:
                    continue
            dt = (t - st.last_start) - st.maint_acc
            if dt < 0.0:
                dt = 0.0
            erng = env[mid]
            w = st.w
            (p, d, q, ups, eps, dv, du_m, du_p, w_after, _, erng.ctr) = job_step(
                0 if det else job_keys[ent.eid], 0, erng.key, erng.ctr, det,
                1 if job is None else 0, w, dt, ent.times[mid],
                *ent.args[mid])
            if job is None:
                if not summary:
                    self.idle_events.append(IdleEvent(
                        ent.eid, ent.slot, ent.type, mid, t, p, dv, du_p,
                        w, w_after))
            else:
                if not summary:
                    self.job_events.append(JobEvent(
                        ent.eid, job.id, job.origin, job.type, mid, ent.slot,
                        t, p, d, bool(q), ups, eps, du_m, du_p, dv, w, w_after))
                if t + p > self.end:
                    self.end = t + p
                self.q_count += q
                st.cyc_jobs += 1
                st.cyc_busy += p
                if heap is not None:
                    heapq.heappush(heap, (t + p, self.seq, mid, ent, q))
                    self.seq += 1
            st.last_start = t
            st.maint_acc = 0.0
            st.w = w_after
            st.ready = t + p
            ptr[mid] += 1
            # a crossing is repaired at the completion that caused it,
            # even when the machine has nothing left to do
            if w_after > cap:
                self._apply_cm(mid, st.ready)


def reference_simulate(inst: ProblemInstance,
                       plan: SchedulePlan | PreparedPlan, root: RngStream,
                       cfg: SimConfig | None = None) -> ScheduleTrace:
    """simulate(), stepped by the reference loop."""
    if not isinstance(plan, PreparedPlan):
        plan = prepare(inst, plan)
    states = {m.id: MachineState(m.id, m.w0) for m in inst.machines}
    sim = ReferenceSim(inst, plan.rows, states, plan.chrom, root,
                       cfg or SimConfig())
    sim.run()
    return sim.trace()
