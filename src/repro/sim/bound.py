"""Theoretical lower bound on energy (Sec. 3.2 of the paper).

"This lower bound reflects execution throughput only, and does not consider
any timing issues ...  It is computed by taking the total number of task
computation cycles in the simulation, and determining the absolute minimum
energy with which these can be executed over the simulation time duration
with the given platform frequency and voltage specification."

Formally: given ``W`` cycles to execute within time ``T`` on a machine with
operating points ``(f_j, V_j)``, minimize ``Σ_j w_j V_j²`` subject to
``Σ_j w_j = W``, ``Σ_j w_j / f_j <= T``, ``w_j >= 0``.

This linear program is solved exactly by time-sharing between at most two
operating points that are adjacent on the lower convex hull of the
(time-per-cycle, energy-per-cycle) = (1/f, V²) curve.  Idle time is free
(the bound assumes a perfect halt, which only makes the bound lower —
i.e. safe).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import MachineError, SimulationError
from repro.hw.machine import Machine
from repro.hw.operating_point import OperatingPoint
from repro.sim.results import SimResult


def _lower_hull(points: Sequence[OperatingPoint]
                ) -> List[OperatingPoint]:
    """Operating points on the lower convex hull of (1/f, V²).

    Points above the hull are never part of an optimal mix (some blend of
    their neighbours executes cycles both faster and cheaper).  The input
    is sorted by frequency; the output is sorted by decreasing 1/f, i.e.
    increasing frequency.
    """
    # Work in (x, y) = (1/f, V²); x is decreasing as frequency increases.
    coords = [(1.0 / p.frequency, p.energy_per_cycle, p) for p in points]
    coords.sort(key=lambda c: (-c[0], c[1]))  # increasing frequency
    hull: List[Tuple[float, float, OperatingPoint]] = []
    for c in coords:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], c):
            hull.pop()
        # Drop dominated points: same or larger x with larger y.
        while hull and hull[-1][1] >= c[1] and hull[-1][0] >= c[0]:
            hull.pop()
        hull.append(c)
    return [c[2] for c in hull]


def _turns_up(a, b, c) -> bool:
    """True when b lies on or above segment a-c (not on the lower hull).

    The traversal runs in *decreasing* x (increasing frequency), so a point
    above the a-c chord has a non-negative cross product (a,b) × (a,c).
    """
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return cross >= 0.0


def minimum_energy_for_cycles(machine: Machine, cycles: float,
                              duration: float) -> float:
    """Minimum energy to execute ``cycles`` within ``duration``.

    Raises :class:`SimulationError` when the workload is infeasible even at
    full speed (``cycles > duration``, since full speed executes one cycle
    per time unit).
    """
    if cycles < 0:
        raise SimulationError(f"cycles must be >= 0, got {cycles}")
    if duration <= 0:
        raise SimulationError(f"duration must be positive, got {duration}")
    if cycles == 0:
        return 0.0
    required = cycles / duration  # average relative frequency needed
    if required > 1.0 + 1e-9:
        raise SimulationError(
            f"workload infeasible: needs average relative frequency "
            f"{required:.4f} > 1.0")
    hull = _lower_hull(machine.points)
    slowest = hull[0]
    if required <= slowest.frequency:
        # Run everything at the cheapest point, idle the rest for free.
        return cycles * slowest.energy_per_cycle
    for lo, hi in zip(hull, hull[1:]):
        if lo.frequency - 1e-12 <= required <= hi.frequency + 1e-12:
            return _mix_energy(lo, hi, cycles, duration)
    # required is within (slowest, 1.0]; the loop above must have matched.
    raise MachineError(
        f"no hull pair brackets required frequency {required}")  # pragma: no cover


def _mix_energy(lo: OperatingPoint, hi: OperatingPoint, cycles: float,
                duration: float) -> float:
    """Energy of the optimal time-share between two operating points.

    Solve ``t_lo + t_hi = duration`` and
    ``f_lo t_lo + f_hi t_hi = cycles`` for the split, then price each
    point's cycles at its V².
    """
    if abs(hi.frequency - lo.frequency) < 1e-12:
        return cycles * lo.energy_per_cycle
    t_hi = (cycles - lo.frequency * duration) / (hi.frequency - lo.frequency)
    t_hi = min(max(t_hi, 0.0), duration)
    t_lo = duration - t_hi
    return (t_lo * lo.frequency * lo.energy_per_cycle
            + t_hi * hi.frequency * hi.energy_per_cycle)


def trace_executed_cycles(trace) -> float:
    """Total executed cycles, reduced off a recorded trace.

    One pass over the cycles column of a
    :class:`~repro.sim.timeline.SimTimeline` — no ``Segment`` objects, no
    per-job Python loop.  Equals ``result.executed_cycles`` up to float
    summation order and sub-``1e-12`` slices the trace drops.
    """
    return trace.executed_cycles()


def theoretical_bound(result: SimResult, machine: Machine,
                      cycle_energy_scale: float = 1.0,
                      cycles: float = None) -> float:
    """The paper's lower bound for the workload a simulation executed.

    Takes the cycles actually executed in ``result`` and spreads them
    optimally over the run's duration.  ``cycle_energy_scale`` must match
    the energy model used in the run for the comparison to be meaningful.
    ``cycles`` overrides the per-job total — e.g. a
    :func:`trace_executed_cycles` reduction on runs that kept a trace.
    """
    if cycles is None:
        cycles = result.executed_cycles
    raw = minimum_energy_for_cycles(machine, cycles, result.duration)
    return raw * cycle_energy_scale
