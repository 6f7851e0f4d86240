"""xp-scalar: simulated-annealing design-space exploration."""

from ..search.anneal import AnnealingResult, AnnealingSchedule, SimulatedAnnealing
from .moves import MoveGenerator
from .sweep import ClockSweep, SweepPoint
from .xpscalar import ExplorationResult, Objective, XpScalar, ipt_objective

__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "SimulatedAnnealing",
    "MoveGenerator",
    "ClockSweep",
    "SweepPoint",
    "ExplorationResult",
    "Objective",
    "XpScalar",
    "ipt_objective",
]
