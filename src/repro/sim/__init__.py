"""Discrete-event simulator for real-time scheduling with DVS.

This is the reproduction of the paper's C++ simulator (Sec. 3.1): a
preemptive uniprocessor, EDF or RM priorities, cycle-counting execution
(no per-instruction variation), per-cycle V² energy, an idle-level factor,
and optional voltage-switch overheads.
"""

from repro.sim.scheduler import PriorityPolicy, EDFPriority, RMPriority
from repro.sim.trace import Segment, render_trace
from repro.sim.results import SimResult, EnergyBreakdown, DeadlineMiss
from repro.sim.engine import Admission, Simulator, SchedulerView, simulate
from repro.sim.bound import theoretical_bound, minimum_energy_for_cycles
from repro.sim.ticksim import TickSimulator
from repro.sim.steady import SteadyStateEnergy, steady_state_energy
from repro.sim.validation import (Violation, rederive_counters,
                                  validate_schedule)

__all__ = [
    "PriorityPolicy",
    "EDFPriority",
    "RMPriority",
    "Segment",
    "render_trace",
    "SimResult",
    "EnergyBreakdown",
    "DeadlineMiss",
    "Admission",
    "Simulator",
    "SchedulerView",
    "simulate",
    "theoretical_bound",
    "minimum_energy_for_cycles",
    "TickSimulator",
    "SteadyStateEnergy",
    "steady_state_energy",
    "Violation",
    "rederive_counters",
    "validate_schedule",
]
