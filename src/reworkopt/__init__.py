"""reworkopt: scheduling of unrelated parallel machines that wear out.

Machines degrade stochastically while they process jobs, degradation
slows them down and hurts product quality, bad products come back as
rework, and maintenance (preventive, grouped, or corrective) restores
the machines at a cost.  The package provides the discrete-event
simulator for that shop floor, a two-module evolutionary optimizer
(offline planner plus online rescheduler), brute-force oracles for
testing, and a CLI for running seeded experiments.
"""

from .encoding import Chromosome, GeneBounds, SchedulePlan
from .model import (
    GlobalParams,
    IncapableMachineError,
    InvalidInstanceError,
    Job,
    MachineParams,
    ObjectivePair,
    ProblemInstance,
    QualitySpec,
    validate_instance,
)
from .orchestrator import DpeiaConfig, DpeiaResult, ParetoArchive, dpeia, random_search
from .rng import RngStream
from .simulate import ONLINE, STATIC, ScheduleTrace, SimConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "Chromosome",
    "DpeiaConfig",
    "DpeiaResult",
    "GeneBounds",
    "GlobalParams",
    "IncapableMachineError",
    "InvalidInstanceError",
    "Job",
    "MachineParams",
    "ONLINE",
    "ObjectivePair",
    "ParetoArchive",
    "ProblemInstance",
    "QualitySpec",
    "RngStream",
    "STATIC",
    "SchedulePlan",
    "ScheduleTrace",
    "SimConfig",
    "dpeia",
    "random_search",
    "simulate",
    "validate_instance",
    "__version__",
]
