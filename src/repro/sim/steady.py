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

:func:`try_steady_fast_path` turns the same structure into a sweep
accelerator (the hyperperiod short-circuit): when a cell's task set has a
finite hyperperiod and its demand trace is *verified* hyperperiod-periodic,
it simulates only warmup + two hyperperiods, checks that the two windows
agree (energy **and** executed cycles, to tight tolerance), and
extrapolates both totals over the requested horizon.  Verification failing
at any step returns ``None`` with a reason, and callers fall back to full
simulation — the fast path never guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.model.demand import (
    ConstantFractionDemand,
    DemandModel,
    TraceDemand,
    WorstCaseDemand,
    demand_from_spec,
)
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
    """Cumulative trace energy at each requested time (sorted)."""
    return [energy for energy, _ in _cumulative_at(result, times)]


def _cumulative_at(result, times):
    """Cumulative (energy, executed cycles) at each requested time
    (sorted), interpolating linearly inside the straddling segment.

    One scan straight off the trace's columns, without materializing
    ``Segment`` objects.
    """
    starts, ends, cycles, energies, _task, _op, _kind = \
        result.trace.columns()
    n = len(result.trace)
    out = []
    energy_total = 0.0
    cycle_total = 0.0
    index = 0
    for target in times:
        while index < n and ends[index] <= target + 1e-9:
            energy_total += energies[index]
            cycle_total += cycles[index]
            index += 1
        energy_partial = 0.0
        cycle_partial = 0.0
        if index < n and starts[index] < target - 1e-9:
            fraction = ((target - starts[index])
                        / (ends[index] - starts[index]))
            energy_partial = energies[index] * fraction
            cycle_partial = cycles[index] * fraction
        out.append((energy_total + energy_partial,
                    cycle_total + cycle_partial))
    return out


# ---------------------------------------------------------------------------
# the hyperperiod short-circuit (sweep fast path)
# ---------------------------------------------------------------------------

#: Relative tolerance for the window-agreement verification.  Much tighter
#: than :func:`steady_state_energy`'s 1e-3 regression check: the fast path
#: substitutes extrapolation for simulation, so the two measured windows
#: must agree to nearly full float precision before we trust periodicity.
_FAST_PATH_RTOL = 1e-9

#: The fast path must simulate at least this factor less than the full
#: horizon to be worth the trace-recording overhead.
_MIN_HORIZON_RATIO = 2.0


@dataclass(frozen=True)
class FastPathOutcome:
    """Extrapolated full-horizon figures from a verified periodic window."""

    hyperperiod: float
    simulated_duration: float  # warmup + 2 hyperperiods actually simulated
    horizon: float             # the duration the totals extrapolate to
    total_energy: float
    executed_cycles: float
    energy_per_hyperperiod: float
    periodicity_error: float   # max relative window disagreement observed


def demand_is_hyperperiodic(demand, taskset: TaskSet, hyperperiod: float,
                            duration: float) -> Tuple[bool, str]:
    """Whether ``demand`` provably repeats with ``hyperperiod``.

    Detected, never assumed: worst-case and constant-fraction models are
    periodic by construction; a :class:`~repro.model.demand.TraceDemand`
    is checked entry-by-entry (exact float equality) over every invocation
    the horizon can fire; anything else — random models in particular —
    is rejected.  Returns ``(ok, reason)``.
    """
    if demand is None:
        # The simulator's default: worst case, periodic by construction.
        return True, "ok"
    if isinstance(demand, (str, float, int)):
        try:
            demand = demand_from_spec(demand)
        except Exception:  # unknown spec: let the simulator complain
            return False, "aperiodic-demand"
    if isinstance(demand, (WorstCaseDemand, ConstantFractionDemand)):
        return True, "ok"
    if not isinstance(demand, TraceDemand):
        return False, "aperiodic-demand"
    for task in taskset:
        per_hp = hyperperiod / task.period
        jobs_per_hp = round(per_hp)
        if jobs_per_hp <= 0 or \
                abs(per_hp - jobs_per_hp) > 1e-6 * max(1.0, per_hp):
            return False, "aperiodic-demand"
        values = demand.trace.get(task.name)
        if values is None:
            # Uncovered task: every invocation uses the (constant)
            # fallback fraction — periodic.
            continue
        needed = max(1, math.ceil(duration / task.period))
        if demand.repeat:
            # Cyclic replay: periodic iff shifting by one hyperperiod maps
            # the cycle onto itself.
            length = len(values)
            if any(values[(k + jobs_per_hp) % length] != values[k]
                   for k in range(length)):
                return False, "not-periodic"
        else:
            if needed > len(values):
                return False, "not-periodic"  # tail falls off the trace
            if any(values[k] != values[k - jobs_per_hp]
                   for k in range(jobs_per_hp, needed)):
                return False, "not-periodic"
    return True, "ok"


def fast_path_window(taskset: TaskSet, demand, hyperperiod: Optional[float],
                     duration: float, warmup_hyperperiods: int = 1,
                     ) -> Tuple[Optional[float], str]:
    """The window the hyperperiod short-circuit would simulate for a run.

    Returns ``(warmup + 2 hyperperiods, "ok")`` when the run is eligible,
    else ``(None, reason)`` with ``reason`` one of ``"no-hyperperiod"``,
    ``"short-horizon"`` or a :func:`demand_is_hyperperiodic` rejection.
    ``hyperperiod`` must come from the caller's pinned resolution; the
    block engine plans its warmup lanes with this same decision.
    """
    if hyperperiod is None:
        return None, "no-hyperperiod"
    simulated = (warmup_hyperperiods + 2) * hyperperiod
    if simulated * _MIN_HORIZON_RATIO > duration:
        return None, "short-horizon"
    ok, reason = demand_is_hyperperiodic(demand, taskset, hyperperiod,
                                         duration)
    if not ok:
        return None, reason
    return simulated, "ok"


def try_steady_fast_path(taskset: TaskSet, machine: Machine, policy,
                         demand: Union[str, float, DemandModel, None] = None,
                         duration: float = 0.0,
                         energy_model: Optional[EnergyModel] = None,
                         on_miss: str = "raise",
                         warmup_hyperperiods: int = 1,
                         resolution: float = 1e-6,
                         simulate_fn=None,
                         ) -> Tuple[Optional[FastPathOutcome], str]:
    """Attempt the hyperperiod short-circuit for one simulation.

    Returns ``(outcome, "ok")`` when eligibility and periodicity both
    verify, else ``(None, reason)`` with ``reason`` one of
    ``"no-hyperperiod"`` (incommensurable periods), ``"short-horizon"``
    (the warmup + 2 hyperperiods window is not meaningfully shorter than
    the horizon), ``"aperiodic-demand"`` (demand model cannot be proven
    periodic), or ``"not-periodic"`` (the two measured windows disagreed —
    e.g. a policy carrying aperiodic state).

    ``resolution`` is the hyperperiod detection grid — callers that cache
    or group cells by hyperperiod must pass the same pinned value here,
    or eligibility and grouping can disagree.  ``simulate_fn`` is the
    warmup-window simulation entry point: by default the per-cell
    :func:`repro.sim.batch_kernels.batch_simulate` that sweep cells run
    on (the block engine substitutes its lanes); any replacement must be
    drop-in compatible with :func:`repro.sim.engine.simulate`.

    Schedulability and deadline-miss errors propagate exactly as they
    would from a full simulation (they surface within the first
    hyperperiods), so callers' fallback handling is unchanged.
    """
    hyperperiod = taskset.hyperperiod(resolution=resolution)
    simulated, reason = fast_path_window(taskset, demand, hyperperiod,
                                         duration, warmup_hyperperiods)
    if simulated is None:
        return None, reason
    if simulate_fn is None:
        # Imported here so that importing repro.sim (or the sweep module)
        # does not load the kernel module.
        from repro.sim.batch_kernels import batch_simulate as simulate_fn
    result = simulate_fn(taskset, machine, policy, demand=demand,
                         duration=simulated, energy_model=energy_model,
                         on_miss=on_miss, record_trace=True)
    warmup = warmup_hyperperiods * hyperperiod
    boundaries = _cumulative_at(
        result, [warmup, warmup + hyperperiod, simulated])
    (energy_w, cycles_w), (energy_1, cycles_1), (energy_2, cycles_2) = \
        boundaries
    window_energy = energy_1 - energy_w
    window_cycles = cycles_1 - cycles_w
    error = max(
        _relative_gap(window_energy, energy_2 - energy_1),
        _relative_gap(window_cycles, cycles_2 - cycles_1))
    if error > _FAST_PATH_RTOL:
        return None, "not-periodic"
    # duration = warmup + k·H + r with 0 <= r < H: splice k verified
    # windows plus the [warmup, warmup + r) prefix measured in-trace.
    whole = int((duration - warmup) // hyperperiod)
    remainder = duration - warmup - whole * hyperperiod
    if remainder < 0.0:  # float guard; duration >= warmup + 2H here
        whole -= 1
        remainder += hyperperiod
    (energy_r, cycles_r), = _cumulative_at(result, [warmup + remainder])
    total_energy = energy_w + whole * window_energy + (energy_r - energy_w)
    executed = cycles_w + whole * window_cycles + (cycles_r - cycles_w)
    return FastPathOutcome(
        hyperperiod=hyperperiod,
        simulated_duration=simulated,
        horizon=duration,
        total_energy=total_energy,
        executed_cycles=executed,
        energy_per_hyperperiod=window_energy,
        periodicity_error=error,
    ), "ok"


def _relative_gap(a: float, b: float) -> float:
    reference = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / reference
