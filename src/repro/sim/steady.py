"""Steady-state (per-hyperperiod) energy analysis.

Finite simulation horizons leave "tail" artifacts: jobs released near the
end execute partially, so executed-cycle totals differ slightly across
policies (see EXPERIMENTS.md, known deviations).  When the periods are
commensurable and the demand pattern repeats, the whole system — schedule,
frequencies, energy — becomes periodic with the hyperperiod once initial
transients decay, and the energy *per hyperperiod* is an exact, tail-free
figure of merit.

:func:`steady_state_energy` measures it by simulating a warmup plus two
hyperperiods and differencing cumulative energy at the boundaries; it also
verifies periodicity (the two windows must agree), so it doubles as a
system-level regression check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.model.demand import DemandModel
from repro.model.task import TaskSet
from repro.sim.engine import simulate


@dataclass(frozen=True)
class SteadyStateEnergy:
    """Per-hyperperiod steady-state figures."""

    hyperperiod: float
    energy_per_hyperperiod: float
    average_power: float
    periodicity_error: float  # |window1 - window2| / energy

    @property
    def is_periodic(self) -> bool:
        """Whether consecutive hyperperiods agreed (they must, for
        deterministic policies and hyperperiod-periodic demands)."""
        return self.periodicity_error < 1e-6


def steady_state_energy(taskset: TaskSet, machine: Machine, policy,
                        demand: Union[str, float, DemandModel,
                                      None] = None,
                        energy_model: Optional[EnergyModel] = None,
                        warmup_hyperperiods: int = 1,
                        resolution: float = 1e-6) -> SteadyStateEnergy:
    """Exact per-hyperperiod energy of the steady-state schedule.

    Requirements: commensurable periods (a finite hyperperiod) and a
    demand pattern that is itself hyperperiod-periodic — worst-case or
    constant-fraction demands always qualify; trace demands qualify when
    their invocation pattern divides the per-task job count per
    hyperperiod.

    Raises
    ------
    SimulationError
        If the task set has no (reasonable) hyperperiod or the two
        measured windows disagree by more than 0.1 % (non-periodic
        demand, or a policy carrying aperiodic state).
    """
    hyperperiod = taskset.hyperperiod(resolution=resolution)
    if hyperperiod is None:
        raise SimulationError(
            "task set has no usable hyperperiod; steady-state analysis "
            "needs commensurable periods")
    if warmup_hyperperiods < 0:
        raise SimulationError(
            f"warmup_hyperperiods must be >= 0, got {warmup_hyperperiods}")
    windows = warmup_hyperperiods + 2
    duration = windows * hyperperiod
    result = simulate(taskset, machine, policy, demand=demand,
                      duration=duration, energy_model=energy_model,
                      record_trace=True)
    boundaries = [warmup_hyperperiods * hyperperiod,
                  (warmup_hyperperiods + 1) * hyperperiod,
                  duration]
    cumulative = _cumulative_energy_at(result, boundaries)
    window1 = cumulative[1] - cumulative[0]
    window2 = cumulative[2] - cumulative[1]
    reference = max(abs(window1), abs(window2), 1e-12)
    error = abs(window1 - window2) / reference
    if error > 1e-3:
        raise SimulationError(
            f"energy not hyperperiod-periodic (windows {window1:g} vs "
            f"{window2:g}); demands or policy state are not periodic")
    return SteadyStateEnergy(
        hyperperiod=hyperperiod,
        energy_per_hyperperiod=(window1 + window2) / 2.0,
        average_power=(window1 + window2) / (2.0 * hyperperiod),
        periodicity_error=error,
    )


def _cumulative_energy_at(result, times):
    """Cumulative trace energy at each requested time (sorted),
    interpolating linearly inside the straddling segment.

    One scan straight off the trace's columns, without materializing
    ``Segment`` objects.
    """
    starts, ends, _cycles, energies, _task, _op, _kind = \
        result.trace.columns()
    n = len(result.trace)
    out = []
    total = 0.0
    index = 0
    for target in times:
        while index < n and ends[index] <= target + 1e-9:
            total += energies[index]
            index += 1
        partial = 0.0
        if index < n and starts[index] < target - 1e-9:
            fraction = ((target - starts[index])
                        / (ends[index] - starts[index]))
            partial = energies[index] * fraction
        out.append(total + partial)
    return out

