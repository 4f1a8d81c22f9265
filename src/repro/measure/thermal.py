"""A lumped thermal model: from power traces to die temperature.

The paper's closing argument: RT-DVS "can also reduce the heat generated
by the real-time embedded controllers in various factory or home
automation products, or even reduce cooling requirements and costs"
(Sec. 6).  This module quantifies that: the standard first-order lumped
RC model

    C · dT/dt = P(t) − (T − T_ambient) / R

driven by a recorded run's piecewise-constant power.  Within each trace
segment the power is constant, so the exact solution is exponential decay
toward ``T_ambient + P·R`` — no numeric integration error.

Outputs: the temperature trajectory at segment boundaries, the peak
temperature (what a heat sink must be sized for), and the steady-state
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import MachineError, SimulationError
from repro.sim.results import SimResult


@dataclass(frozen=True)
class ThermalModel:
    """First-order thermal RC lump.

    Parameters
    ----------
    resistance:
        Thermal resistance junction-to-ambient (°C per power unit).
    capacitance:
        Thermal capacitance (energy units per °C); with millisecond time
        units, ``R·C`` is the thermal time constant in ms.
    ambient:
        Ambient temperature (°C).
    """

    resistance: float
    capacitance: float
    ambient: float = 25.0

    def __post_init__(self):
        if self.resistance <= 0:
            raise MachineError(
                f"thermal resistance must be positive, got "
                f"{self.resistance}")
        if self.capacitance <= 0:
            raise MachineError(
                f"thermal capacitance must be positive, got "
                f"{self.capacitance}")

    @property
    def time_constant(self) -> float:
        """R·C, in the trace's time units."""
        return self.resistance * self.capacitance

    def steady_state(self, power: float) -> float:
        """Equilibrium temperature under constant ``power``."""
        return self.ambient + power * self.resistance

    def step(self, temperature: float, power: float,
             duration: float) -> float:
        """Exact temperature after ``duration`` at constant ``power``."""
        target = self.steady_state(power)
        decay = math.exp(-duration / self.time_constant)
        return target + (temperature - target) * decay


@dataclass(frozen=True)
class ThermalTrajectory:
    """Result of driving a thermal model with a run's power trace."""

    times: Tuple[float, ...]
    temperatures: Tuple[float, ...]

    @property
    def peak(self) -> float:
        return max(self.temperatures)

    @property
    def final(self) -> float:
        return self.temperatures[-1]

    def mean(self) -> float:
        """Time-weighted mean temperature (trapezoidal, exactness is not
        needed for reporting)."""
        if len(self.times) < 2:
            return self.temperatures[0]
        total = 0.0
        for i in range(len(self.times) - 1):
            dt = self.times[i + 1] - self.times[i]
            total += dt * (self.temperatures[i]
                           + self.temperatures[i + 1]) / 2.0
        return total / (self.times[-1] - self.times[0])


def thermal_trajectory(result: SimResult, model: ThermalModel,
                       initial: Optional[float] = None,
                       power_scale: float = 1.0) -> ThermalTrajectory:
    """Integrate the thermal model over a recorded run.

    ``power_scale`` converts the run's energy units to the thermal
    model's power units (e.g. the laptop calibration constant).  The
    temperature is sampled at every segment boundary; within a segment
    temperature moves monotonically, and the per-segment peak is observed
    because the extremum of a first-order response lies at a boundary.
    """
    if result.trace is None:
        raise SimulationError(
            "thermal_trajectory needs a run with record_trace=True")
    temperature = model.ambient if initial is None else initial
    times: List[float] = [0.0]
    temperatures: List[float] = [temperature]
    for segment in result.trace:
        if segment.duration <= 0:
            continue
        power = power_scale * segment.energy / segment.duration
        temperature = model.step(temperature, power, segment.duration)
        times.append(segment.end)
        temperatures.append(temperature)
    return ThermalTrajectory(times=tuple(times),
                             temperatures=tuple(temperatures))
