"""Maintenance policy: imperfect preventive actions, corrective resets,
threshold triggering, the joint-action merge window and the suspension
screen, applied at the simulator's due step (``simulate._Sim._take_due``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from .model import MachineParams


@dataclass
class MachineState:
    """Mutable per-machine simulation state."""

    machine_id: int
    w: float                    # current wear
    n_pm: int = 0               # preventive actions since the last corrective one
    suspended: bool = False     # preventive maintenance switched off until failure
    ready: float = 0.0          # next time the machine can start work
    last_start: float = 0.0     # start time of the last processed slot
    maint_acc: float = 0.0      # maintenance time since last_start
    # current life cycle (since last corrective reset)
    cyc_jobs: int = 0
    cyc_busy: float = 0.0
    cyc_cost: float = 0.0

    def copy(self) -> "MachineState":
        return MachineState(*_state_fields(self))


# copy() goes through __init__: touching __dict__ slows attribute access
_state_fields = attrgetter(*(f.name for f in fields(MachineState)))


@dataclass
class MaintenanceEvent:
    kind: str                   # "pm" | "cm"
    machine_id: int
    time: float                 # start of the action
    duration: float
    cost: float
    group: int | None = None    # joint-PM group id; corrective actions have none
    w_before: float = 0.0
    w_after: float = 0.0
    n_pm_after: int = 0


def imperfect_pm(w: float, n_pm: int, theta: float, varphi: float) -> float:
    """Wear after a preventive action.

    Restoration is partial and decays with the number of actions already
    taken in this life cycle.
    """
    return theta * w + varphi * n_pm


def corrective_maintenance(state: MachineState, m: MachineParams) -> None:
    """Reset at failure: wear back to the post-repair baseline, preventive
    counter cleared, suspension lifted, a fresh life cycle starts."""
    state.w = m.w0
    state.n_pm = 0
    state.suspended = False
    state.cyc_jobs = 0
    state.cyc_busy = 0.0
    state.cyc_cost = 0.0


def cm_required(w: float, cap: float) -> bool:
    """Failure is a strict threshold crossing."""
    return w > cap


def pm_due(state: MachineState, zeta: float, n_u: int, m: MachineParams) -> bool:
    """Preventive action is due at a wear fraction zeta of the failure
    threshold, capped at n_u actions per life cycle, unless screened off.

    The comparison runs on the wear fraction w/cap, not on zeta*cap, so
    that any threshold inside an interval of fractions reproduces the
    exact same accept/skip decisions (floats included)."""
    return (not state.suspended
            and state.w / m.cap >= zeta
            and state.n_pm < n_u)


def pm_window(machines: dict[int, MachineParams], psi: float) -> float:
    """Joint-maintenance merge window: psi x the longest preventive action."""
    return psi * max(m.t_pm_full for m in machines.values())


def lifecycle_stats_defined(n_c: int, t_c: float, c_c: float) -> bool:
    """Can the suspension screen judge this life cycle?  It needs at
    least one completed job, some busy time and some maintenance spend
    (right after a repair the spend is zero)."""
    return not (n_c <= 0 or t_c <= 0 or c_c <= 0)


def pm_suspension_check(n_gain: int, n_c: int, t_c: float, c_c: float,
                        t_pm_full: float, c_pm_full: float) -> bool:
    """Screen a candidate preventive action against its projected payoff.

    n_gain is the projected extra job count the action buys over the
    rest of the life cycle; the action is suspended when that relative
    gain undercuts both the relative time and the relative cost of the
    action itself.  The caller checks lifecycle_stats_defined first:
    the ratios need a judgeable life cycle.
    """
    threshold = min(t_pm_full / t_c, c_pm_full / c_c)
    return n_gain / n_c < threshold
