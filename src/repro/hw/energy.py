"""The CMOS energy model used throughout the paper.

"The simulation assumes that a constant amount of energy is required for
each cycle of operation at a given voltage.  This quantum is scaled by the
square of the operating voltage, consistent with energy dissipation in CMOS
circuits (E ∝ V²)" (Sec. 3.1).

Idle (halted) cycles cost ``idle_level`` times a normal cycle at the current
operating point.  ``idle_level = 0`` models a perfect software-controlled
halt; ``idle_level = 1`` models a processor that burns as much idling as
computing.  The paper sweeps 0, 0.01, 0.1 and 1.0 (Fig. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MachineError
from repro.hw.operating_point import OperatingPoint


@dataclass(frozen=True)
class EnergyModel:
    """Per-cycle V² energy accounting with an idle-level factor.

    Parameters
    ----------
    idle_level:
        Ratio of energy consumed per halted cycle to energy per executed
        cycle at the same operating point, in [0, 1].
    cycle_energy_scale:
        Multiplier applied to every V² quantum; purely a unit choice (the
        paper's plots are in arbitrary/normalized units).  The measurement
        substrate uses it to calibrate simulated watts to the laptop.
    """

    idle_level: float = 0.0
    cycle_energy_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.idle_level <= 1.0):
            raise MachineError(
                f"idle_level must be in [0, 1], got {self.idle_level}")
        if not (self.cycle_energy_scale > 0
                and math.isfinite(self.cycle_energy_scale)):
            raise MachineError(
                "cycle_energy_scale must be positive and finite, got "
                f"{self.cycle_energy_scale}")

    def execution_energy(self, point: OperatingPoint, cycles: float) -> float:
        """Energy to execute ``cycles`` cycles at ``point``."""
        if cycles < 0:
            raise MachineError(f"cycles must be >= 0, got {cycles}")
        return self.cycle_energy_scale * cycles * point.energy_per_cycle

    def idle_energy(self, point: OperatingPoint, duration: float) -> float:
        """Energy spent halted for ``duration`` time units at ``point``.

        While halted at relative frequency ``f``, ``f × duration`` clock
        cycles elapse, each costing ``idle_level × V²``.
        """
        if duration < 0:
            raise MachineError(f"duration must be >= 0, got {duration}")
        cycles = point.cycles_in_time(duration)
        return (self.cycle_energy_scale * self.idle_level
                * cycles * point.energy_per_cycle)

    def execution_power(self, point: OperatingPoint) -> float:
        """Instantaneous power while executing at ``point``."""
        return self.cycle_energy_scale * point.power

    def idle_power(self, point: OperatingPoint) -> float:
        """Instantaneous power while halted at ``point``."""
        return self.cycle_energy_scale * self.idle_level * point.power
