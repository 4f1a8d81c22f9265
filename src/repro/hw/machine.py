"""DVS-capable machine specifications.

A :class:`Machine` is an ordered table of discrete operating points, exactly
the "machine specification (a list of the frequencies and corresponding
voltages available on the simulated platform)" that the paper's simulator
takes as input (Sec. 3.1).  The module ships the three machine presets of
Sec. 3.2 and the AMD K6-2+/PowerNow! specification of the prototype
(Sec. 4.1).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import MachineError
from repro.hw.operating_point import OperatingPoint

#: Tolerance used when matching a requested relative frequency against the
#: discrete table ("round up to the closest available setting").
_EPS = 1e-9


class Machine:
    """An ordered list of operating points for a DVS-capable processor.

    Invariants enforced at construction:

    * at least one operating point;
    * frequencies strictly increasing, the highest equal to 1.0;
    * voltages non-decreasing with frequency (a higher frequency never runs
      at a *lower* voltage — the CMOS frequency/voltage relation).

    Parameters
    ----------
    points:
        Iterable of :class:`OperatingPoint` or ``(frequency, voltage)``
        tuples.
    name:
        Label used in reports.
    """

    def __init__(self, points: Iterable, name: str = "machine"):
        converted: List[OperatingPoint] = []
        for point in points:
            if isinstance(point, OperatingPoint):
                converted.append(point)
            else:
                try:
                    frequency, voltage = point
                except (TypeError, ValueError):
                    raise MachineError(
                        f"operating point must be OperatingPoint or "
                        f"(frequency, voltage) pair, got {point!r}") from None
                converted.append(OperatingPoint(frequency, voltage))
        if not converted:
            raise MachineError("a machine needs at least one operating point")
        converted.sort()
        for prev, cur in zip(converted, converted[1:]):
            if cur.frequency - prev.frequency <= _EPS:
                raise MachineError(
                    f"duplicate operating frequency {cur.frequency}")
            if cur.voltage < prev.voltage - _EPS:
                raise MachineError(
                    "voltage must be non-decreasing with frequency: "
                    f"{prev} then {cur}")
        if abs(converted[-1].frequency - 1.0) > _EPS:
            raise MachineError(
                "the highest operating point must have relative frequency "
                f"1.0, got {converted[-1].frequency}")
        self._points: Tuple[OperatingPoint, ...] = tuple(converted)
        self._frequencies: Tuple[float, ...] = tuple(
            p.frequency for p in converted)
        self._point_index = {p: i for i, p in enumerate(self._points)}
        self.name = name

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        return self._points[index]

    def __contains__(self, point) -> bool:
        return point in self._point_index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Machine):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(p) for p in self._points)
        return f"Machine({self.name!r}: {inner})"

    # -- queries ---------------------------------------------------------------
    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        """Operating points sorted by increasing frequency."""
        return self._points

    @property
    def frequencies(self) -> Tuple[float, ...]:
        """Available relative frequencies, ascending."""
        return self._frequencies

    @property
    def slowest(self) -> OperatingPoint:
        """The lowest-frequency (lowest-power) operating point."""
        return self._points[0]

    @property
    def fastest(self) -> OperatingPoint:
        """The full-speed operating point (relative frequency 1.0)."""
        return self._points[-1]

    def point_for(self, frequency: float) -> OperatingPoint:
        """The operating point whose frequency equals ``frequency``.

        Raises :class:`MachineError` when the frequency is not in the table.
        """
        index = bisect.bisect_left(self._frequencies, frequency - _EPS)
        if index < len(self._points) and \
                abs(self._frequencies[index] - frequency) <= 1e-6:
            return self._points[index]
        raise MachineError(
            f"{frequency} is not an operating frequency of {self.name}; "
            f"available: {list(self._frequencies)}")

    def lowest_at_least(self, speed: float) -> OperatingPoint:
        """Lowest operating point with relative frequency >= ``speed``.

        This is the frequency-selection primitive every RT-DVS algorithm in
        the paper uses ("use lowest frequency f_i such that ... <= f_i/f_m").
        Requests <= 0 return the slowest point; requests > 1 raise.

        Resolution is one bisect over the precomputed frequency
        thresholds, with no memo: the paper policies' speed requests
        recur too rarely for a memo's hits to repay its misses.
        """
        if speed > 1.0 + 1e-7:
            raise MachineError(
                f"required relative speed {speed} exceeds the maximum (1.0)")
        index = bisect.bisect_left(self._frequencies, speed - _EPS)
        points = self._points
        return points[index] if index < len(points) else points[-1]

    def index_of(self, point: OperatingPoint) -> int:
        """The table index of ``point`` (raises ``MachineError`` if absent)."""
        try:
            return self._point_index[point]
        except KeyError:
            raise MachineError(
                f"{point} is not an operating point of {self.name}") from None

    def next_faster(self, point: OperatingPoint) -> Optional[OperatingPoint]:
        """The next-higher operating point, or ``None`` at full speed."""
        index = self.index_of(point)
        if index + 1 < len(self._points):
            return self._points[index + 1]
        return None

    def next_slower(self, point: OperatingPoint) -> Optional[OperatingPoint]:
        """The next-lower operating point, or ``None`` at the slowest."""
        index = self.index_of(point)
        if index > 0:
            return self._points[index - 1]
        return None

    # -- derived machines -------------------------------------------------------
    def continuous(self, steps: int = 101) -> "Machine":
        """A machine with ``steps`` points interpolating this one.

        Voltage is interpolated linearly between adjacent points (and held
        at the lowest voltage below the slowest real point).  Used by the
        ablation studies on frequency-step granularity.
        """
        if steps < 2:
            raise MachineError(f"steps must be >= 2, got {steps}")
        lo = self._points[0].frequency
        new_points = []
        for k in range(steps):
            f = lo + (1.0 - lo) * k / (steps - 1)
            new_points.append(OperatingPoint(f, self.voltage_at(f)))
        return Machine(new_points, name=f"{self.name}-continuous{steps}")

    def voltage_at(self, frequency: float) -> float:
        """Voltage needed for ``frequency``, interpolating between points."""
        if frequency <= self._frequencies[0]:
            return self._points[0].voltage
        if frequency > 1.0 + _EPS:
            raise MachineError(
                f"frequency {frequency} above maximum 1.0")
        index = bisect.bisect_left(self._frequencies, frequency - _EPS)
        if abs(self._frequencies[index] - frequency) <= _EPS:
            return self._points[index].voltage
        lo, hi = self._points[index - 1], self._points[index]
        span = hi.frequency - lo.frequency
        weight = (frequency - lo.frequency) / span
        return lo.voltage + weight * (hi.voltage - lo.voltage)


# -- Paper presets -----------------------------------------------------------

def machine0() -> Machine:
    """Machine 0 (Sec. 3.2): (0.5, 3V), (0.75, 4V), (1.0, 5V).

    "Frequency settings that can be expected on a standard PC motherboard,
    although the corresponding voltage levels were arbitrarily selected."
    Used by all the paper's simulations unless stated otherwise.
    """
    return Machine([(0.5, 3.0), (0.75, 4.0), (1.0, 5.0)], name="machine0")


def machine1() -> Machine:
    """Machine 1 (Sec. 3.2): machine 0 plus an extra point (0.83, 4.5V)."""
    return Machine([(0.5, 3.0), (0.75, 4.0), (0.83, 4.5), (1.0, 5.0)],
                   name="machine1")


def machine2() -> Machine:
    """Machine 2 (Sec. 3.2): an AMD K6 PowerNow!-style table with 7 points
    and a narrow voltage range (1.4-2.0V)."""
    return Machine([
        (0.36, 1.4), (0.55, 1.5), (0.64, 1.6), (0.73, 1.7),
        (0.82, 1.8), (0.91, 1.9), (1.0, 2.0),
    ], name="machine2")


def k6_2_plus(max_mhz: float = 550.0) -> Machine:
    """The prototype's AMD K6-2+ as configured on the HP N3350 (Sec. 4.1).

    The PLL offers 200-600 MHz in 50 MHz steps (skipping 250), capped at the
    part's 550 MHz maximum.  HP wired only two voltages: the processor was
    stable at 1.4V up to 450 MHz and needed 2.0V at 500 and 550 MHz —
    exactly the frequency-to-voltage mapping the authors determined
    experimentally.
    """
    if max_mhz <= 0:
        raise MachineError(f"max_mhz must be positive, got {max_mhz}")
    mhz_steps = [m for m in (200, 300, 350, 400, 450, 500, 550, 600)
                 if m <= max_mhz]
    if not mhz_steps:
        raise MachineError(f"no PLL steps available below {max_mhz} MHz")
    points = []
    for mhz in mhz_steps:
        voltage = 1.4 if mhz <= 450 else 2.0
        points.append(OperatingPoint(mhz / max(mhz_steps), voltage))
    return Machine(points, name="k6-2+")


#: Name -> factory mapping used by the CLI and the experiment drivers.
MACHINE_PRESETS = {
    "machine0": machine0,
    "machine1": machine1,
    "machine2": machine2,
    "k6-2+": k6_2_plus,
}
