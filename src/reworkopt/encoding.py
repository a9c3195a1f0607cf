"""Solution encoding and decoding.

A chromosome covers one slot per real job plus one per reserved idle
space.  Each slot carries a machine assignment and a fractional sort key
(sequencing on its machine), and four policy genes ride along: the
preventive-maintenance wear fraction zeta, the joint-maintenance window
factor psi, the rework trigger threshold thr_r and the per-cycle
preventive cap n_u.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .model import IncapableMachineError, ProblemInstance
from .rng import RngStream


@dataclass
class Chromosome:
    assign: list[int]               # slot -> machine id
    key: list[float]                # slot -> fractional priority
    idle_types: tuple[int, ...]     # types of the trailing idle slots
    zeta: float = 0.6
    psi: float = 0.5
    thr_r: float = 0.5
    n_u: int = 2

    @property
    def n_slots(self) -> int:
        return len(self.assign)

    def copy(self) -> "Chromosome":
        return replace(self, assign=list(self.assign), key=list(self.key))

    def digest(self) -> str:
        h = hashlib.sha1()
        h.update(repr(tuple(getattr(self, f.name) for f in fields(self))).encode())
        return h.hexdigest()[:16]


@dataclass
class GeneBounds:
    """Sampling/mutation ranges for the policy genes."""

    zeta: tuple[float, float] = (0.05, 0.95)
    psi: tuple[float, float] = (0.0, 1.0)
    thr_r: tuple[float, float] = (0.05, 0.95)
    n_u_max: int = 4


@dataclass
class SchedulePlan:
    """A decoded chromosome: per-machine slot sequences.

    The plan is tight: every slot may start as soon as its machine frees
    up, and the simulator decides when it actually does.
    """

    order: dict[int, list[int]]     # machine id -> slot ids in sequence
    chrom: Chromosome

    def machine_of(self, slot: int) -> int:
        return self.chrom.assign[slot]


def random_chromosome(inst: ProblemInstance, idle_types: tuple[int, ...],
                      rng: RngStream, bounds: GeneBounds | None = None) -> Chromosome:
    bounds = bounds or GeneBounds()
    assign: list[int] = []
    key: list[float] = []
    for times in inst.slot_times(idle_types):
        assign.append(list(times)[rng.randrange(len(times))])
        key.append(rng.uniform())
    lo, hi = bounds.zeta
    zeta = lo + rng.uniform() * (hi - lo)
    lo, hi = bounds.psi
    psi = lo + rng.uniform() * (hi - lo)
    lo, hi = bounds.thr_r
    thr_r = lo + rng.uniform() * (hi - lo)
    n_u = rng.randint(0, bounds.n_u_max)
    return Chromosome(assign, key, idle_types, zeta, psi, thr_r, n_u)


def decode(chrom: Chromosome, inst: ProblemInstance) -> SchedulePlan:
    """Chromosome -> per-machine sequences, keys ascending, ties by slot id.

    Raises IncapableMachineError if any slot sits on a machine its entry
    of the slot table (ProblemInstance.slot_times) does not list.
    """
    order: dict[int, list[int]] = {m.id: [] for m in inst.machines}
    table = inst.slot_times(chrom.idle_types)
    for slot, mid in enumerate(chrom.assign):
        if mid not in table[slot]:
            raise IncapableMachineError(
                f"slot {slot}: machine {mid} is not one of {sorted(table[slot])}")
        order[mid].append(slot)
    for mid in order:
        order[mid].sort(key=lambda s: (chrom.key[s], s))
    return SchedulePlan(order, chrom)


def planned_starts(plan: SchedulePlan, inst: ProblemInstance) -> dict[int, float]:
    """Nominal published timetable: tight sequences at nominal durations,
    no wear, no maintenance.  This is the baseline that execution drift
    is measured against."""
    out: dict[int, float] = {}
    table = inst.slot_times(plan.chrom.idle_types)
    for mid, slots in plan.order.items():
        t = 0.0
        for s in slots:
            out[s] = t
            t += table[s][mid]
    return out
