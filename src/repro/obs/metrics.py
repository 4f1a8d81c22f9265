"""Per-run metrics collection: counters, residency histograms, profiling.

:class:`MetricsCollector` is the standard :class:`~repro.obs.hooks.
Instrumentation` implementation.  It is deliberately *pull-based* wherever
the finished result already carries the information (per-task job counts,
executed cycles, deadline misses, the energy breakdown) and only hooks the
events that cannot be reconstructed afterwards:

* **operating-point changes** — to build the frequency/voltage residency
  histogram (how long the processor spent at each point, the quantity
  behind the paper's per-frequency analyses);
* **context switches / preemptions / wakeups** — via the engine-side
  :class:`~repro.obs.hooks.HotCounters` block (inline increments, no
  Python call);
* **event dispatch** (opt-in ``self_profile=True``) — per-event-type wall
  time and counts for event-loop self-profiling.

The residency histogram is built by telescoping timestamps (each change
adds ``now - last_change`` to the outgoing point), so the histogram sums
to the instrumented simulated span *by construction* — the property tests
in ``tests/obs/`` pin it to the run duration within relative 1e-9.

Everything lands in a :class:`RunMetrics` record; its
:meth:`RunMetrics.deterministic_dict` view excludes wall-clock-dependent
fields, so two engines producing the same schedule yield *bit-identical*
metrics (pinned against :class:`~repro.sim.baseline.BaselineSimulator` in
``tests/sim/test_event_queue.py``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.hooks import HotCounters, Instrumentation


def residency_from_trace(trace) -> Dict[float, float]:
    """Frequency-residency histogram rebuilt from a recorded trace.

    For runs that kept a trace, this replaces attaching a live collector:
    the ``{frequency: seconds}`` table (same shape as
    :attr:`RunMetrics.residency`) folds the per-point totals of
    :meth:`~repro.sim.timeline.SimTimeline.frequency_residency` by
    frequency.  Matches the hook-built histogram up to float summation
    order and sub-``1e-12`` slices the trace drops.
    """
    out: Dict[float, float] = {}
    for point, seconds in trace.frequency_residency().items():
        f = point.frequency
        out[f] = out.get(f, 0.0) + seconds
    return out


@dataclass
class TaskMetrics:
    """Per-task observables of one run."""

    released: int = 0
    completed: int = 0
    missed: int = 0
    executed_cycles: float = 0.0

    def to_dict(self) -> dict:
        return {"released": self.released, "completed": self.completed,
                "missed": self.missed,
                "executed_cycles": self.executed_cycles}


@dataclass
class RunMetrics:
    """Everything :class:`MetricsCollector` measured for one run.

    Residency dictionaries are keyed by relative frequency; values are
    simulated seconds.  ``residency`` covers the whole span (busy + idle +
    switch halts) and sums to ``span``; ``busy_residency`` /
    ``idle_residency`` / ``switch_residency`` split it by activity (only
    available when the result carries an energy breakdown, i.e. for the
    event-driven engines).
    """

    policy: str
    scheduler: str
    duration: float
    span: float
    jobs_released: int
    jobs_completed: int
    deadline_misses: int
    frequency_switches: int
    context_switches: int
    preemptions: int
    wakeups: int
    over_unity_clamps: int
    busy_time: Optional[float]
    idle_time: Optional[float]
    residency: Dict[float, float] = field(default_factory=dict)
    busy_residency: Dict[float, float] = field(default_factory=dict)
    idle_residency: Dict[float, float] = field(default_factory=dict)
    switch_residency: Dict[float, float] = field(default_factory=dict)
    voltages: Dict[float, float] = field(default_factory=dict)
    tasks: Dict[str, TaskMetrics] = field(default_factory=dict)
    events: int = 0
    wall_seconds: float = 0.0
    events_per_sec: float = 0.0
    dispatch: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def idle_fraction(self) -> float:
        """Fraction of the span the processor spent idle (0 when the
        engine does not track idle time)."""
        if self.idle_time is None or self.span <= 0:
            return 0.0
        return self.idle_time / self.span

    @property
    def residency_total(self) -> float:
        """Sum of the residency histogram (== ``span`` by construction)."""
        return sum(self.residency.values())

    def deterministic_dict(self) -> dict:
        """Engine-independent view: everything except host wall time.

        Two engines that produce the same schedule produce *identical*
        output here — the differential tests rely on it.
        """
        return {
            "policy": self.policy,
            "scheduler": self.scheduler,
            "duration": self.duration,
            "span": self.span,
            "jobs_released": self.jobs_released,
            "jobs_completed": self.jobs_completed,
            "deadline_misses": self.deadline_misses,
            "frequency_switches": self.frequency_switches,
            "context_switches": self.context_switches,
            "preemptions": self.preemptions,
            "wakeups": self.wakeups,
            "over_unity_clamps": self.over_unity_clamps,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "events": self.events,
            "residency": {f"{f:g}": v for f, v in
                          sorted(self.residency.items())},
            "busy_residency": {f"{f:g}": v for f, v in
                               sorted(self.busy_residency.items())},
            "idle_residency": {f"{f:g}": v for f, v in
                               sorted(self.idle_residency.items())},
            "switch_residency": {f"{f:g}": v for f, v in
                                 sorted(self.switch_residency.items())},
            "voltages": {f"{f:g}": v for f, v in
                         sorted(self.voltages.items())},
            "tasks": {name: tm.to_dict() for name, tm in
                      sorted(self.tasks.items())},
        }

    def to_dict(self) -> dict:
        """JSON-ready rendering (deterministic part + timing/profiling)."""
        out = self.deterministic_dict()
        out["wall_seconds"] = self.wall_seconds
        out["events_per_sec"] = self.events_per_sec
        out["idle_fraction"] = self.idle_fraction
        if self.dispatch:
            out["dispatch"] = {k: dict(v) for k, v in
                               sorted(self.dispatch.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        """Rebuild a record from :meth:`to_dict` output (e.g. a JSON-lines
        archive line); frequency keys come back as floats."""
        def by_freq(mapping: Optional[dict]) -> Dict[float, float]:
            return {float(k): v for k, v in (mapping or {}).items()}

        return cls(
            policy=data.get("policy", "?"),
            scheduler=data.get("scheduler", "?"),
            duration=data.get("duration", 0.0),
            span=data.get("span", 0.0),
            jobs_released=data.get("jobs_released", 0),
            jobs_completed=data.get("jobs_completed", 0),
            deadline_misses=data.get("deadline_misses", 0),
            frequency_switches=data.get("frequency_switches", 0),
            context_switches=data.get("context_switches", 0),
            preemptions=data.get("preemptions", 0),
            wakeups=data.get("wakeups", 0),
            over_unity_clamps=data.get("over_unity_clamps", 0),
            busy_time=data.get("busy_time"),
            idle_time=data.get("idle_time"),
            residency=by_freq(data.get("residency")),
            busy_residency=by_freq(data.get("busy_residency")),
            idle_residency=by_freq(data.get("idle_residency")),
            switch_residency=by_freq(data.get("switch_residency")),
            voltages=by_freq(data.get("voltages")),
            tasks={name: TaskMetrics(**tm) for name, tm in
                   (data.get("tasks") or {}).items()},
            events=data.get("events", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
            events_per_sec=data.get("events_per_sec", 0.0),
            dispatch={k: dict(v) for k, v in
                      (data.get("dispatch") or {}).items()},
        )


class MetricsCollector(Instrumentation):
    """Collect :class:`RunMetrics` from instrumented simulator runs.

    Parameters
    ----------
    self_profile:
        When True, also record event-loop self-profiling (dispatch counts
        and per-event-type wall time).  Off by default because it brackets
        every dispatch with ``perf_counter`` calls.

    One collector can instrument several runs in sequence (state resets in
    ``on_run_start``); ``runs`` keeps every finished :class:`RunMetrics`
    and :attr:`metrics` is the latest.  Attach the collector when the
    simulator is *constructed* — engines cache the hook set up front.
    """

    def __init__(self, self_profile: bool = False):
        self.counters = HotCounters()
        self.self_profile = self_profile
        self._finished: List[RunMetrics] = []
        self._pending: List[dict] = []
        if self_profile:
            # Instance attribute shadows the class-level ``None`` so the
            # engine sees (and pays for) the hook only when asked to.
            self.on_event = self._record_dispatch
        self._reset(None)

    @property
    def runs(self) -> List[RunMetrics]:
        """Every finished run's metrics, oldest first.

        Materialized lazily: ``on_run_end`` only snapshots cheap scalars
        so the timed run never pays for the O(jobs) aggregation.
        """
        while self._pending:
            self._finished.append(self._materialize(self._pending.pop(0)))
        return self._finished

    @property
    def metrics(self) -> RunMetrics:
        """Metrics of the most recently finished run."""
        runs = self.runs
        if not runs:
            raise LookupError("no instrumented run has finished yet")
        return runs[-1]

    # -- lifecycle -------------------------------------------------------
    def _reset(self, sim) -> None:
        self.counters.reset()
        self._residency: Dict[float, float] = {}
        self._switch_halt: Dict[float, float] = {}
        self._voltages: Dict[float, float] = {}
        self._freq_changes = 0
        self._dispatch: Dict[str, Dict[str, float]] = {}
        if sim is not None:
            point = sim.current_point
            self._last_point = point
            self._voltages[point.frequency] = point.voltage
        else:
            self._last_point = None
        self._last_change = sim.time if sim is not None else 0.0
        self._wall_start = _time.perf_counter()

    def on_run_start(self, sim) -> None:
        self._reset(sim)

    # -- hooks -----------------------------------------------------------
    def on_frequency_change(self, sim, old_point, new_point) -> None:
        now = sim.time
        residency = self._residency
        f_old = old_point.frequency
        residency[f_old] = residency.get(f_old, 0.0) + (now -
                                                        self._last_change)
        self._last_change = now
        self._last_point = new_point
        self._voltages[new_point.frequency] = new_point.voltage
        self._freq_changes += 1
        switching = getattr(sim, "switching", None)
        if switching is not None:
            halt = switching.switch_time(old_point, new_point)
            if halt > 0.0:
                f_new = new_point.frequency
                self._switch_halt[f_new] = (self._switch_halt.get(f_new, 0.0)
                                            + halt)

    def _record_dispatch(self, kind: str, time: float,
                         wall_seconds: float) -> None:
        stat = self._dispatch.get(kind)
        if stat is None:
            stat = self._dispatch[kind] = {"count": 0, "wall_seconds": 0.0}
        stat["count"] += 1
        stat["wall_seconds"] += wall_seconds

    # -- finalization ----------------------------------------------------
    def on_run_end(self, sim, result) -> None:
        """Snapshot the run cheaply; the O(jobs) rollup happens lazily.

        Everything recorded here is either a scalar, a small per-frequency
        dict, or a reference to state that is immutable once the run ends
        (the result's job/miss lists), so deferring the aggregation to
        :attr:`runs` cannot change the answer — and keeps the collector
        inside the engine's instrumentation overhead budget.
        """
        wall = _time.perf_counter() - self._wall_start
        span = sim.time
        if self._last_point is not None:
            f_last = self._last_point.frequency
            self._residency[f_last] = (self._residency.get(f_last, 0.0)
                                       + (span - self._last_change))
        try:
            busy_time: Optional[float] = sim.busy_time
            idle_time: Optional[float] = sim.idle_time
        except SimulationError:  # TickSimulator does not track these
            busy_time = idle_time = None
        self._pending.append({
            "result": result,
            "span": span,
            "wall": wall,
            "policy": (getattr(result, "policy_name", None)
                       or getattr(sim.policy, "name",
                                  type(sim.policy).__name__)),
            "scheduler": (getattr(result, "scheduler_name", None)
                          or getattr(sim, "scheduler", None)
                          or getattr(sim.policy, "scheduler", "?")),
            "duration": getattr(result, "duration", None) or sim.duration,
            "context_switches": self.counters.context_switches,
            "preemptions": self.counters.preemptions,
            "wakeups": self.counters.wakeups,
            "over_unity_clamps": getattr(sim.policy,
                                         "over_unity_events", 0),
            "busy_time": busy_time,
            "idle_time": idle_time,
            "residency": dict(self._residency),
            "switch_halt": dict(self._switch_halt),
            "voltages": dict(self._voltages),
            "freq_changes": self._freq_changes,
            "energy_model": getattr(sim, "energy_model", None),
            "dispatch": {k: dict(v) for k, v in self._dispatch.items()},
        })

    def _materialize(self, snap: dict) -> RunMetrics:
        result = snap["result"]
        jobs = list(getattr(result, "jobs", ()))
        misses = getattr(result, "misses", None)
        if misses is None:
            misses = getattr(result, "missed", ())
        switches = getattr(result, "switches", None)
        if switches is None:
            switches = snap["freq_changes"]

        tasks: Dict[str, TaskMetrics] = {}
        for job in jobs:
            tm = tasks.get(job.task.name)
            if tm is None:
                tm = tasks[job.task.name] = TaskMetrics()
            tm.released += 1
            if job.completion_time is not None:
                tm.completed += 1
            tm.executed_cycles += job.executed
        for miss in misses:
            name = getattr(miss, "task_name", None)
            if name is None:  # tick simulator records the Job itself
                name = miss.task.name
            if name in tasks:
                tasks[name].missed += 1

        busy_res, idle_res = _activity_split(
            result, snap["energy_model"], snap["residency"],
            snap["switch_halt"])
        completed = sum(tm.completed for tm in tasks.values())
        events = len(jobs) + completed + switches
        wall = snap["wall"]
        return RunMetrics(
            policy=snap["policy"],
            scheduler=snap["scheduler"],
            duration=snap["duration"],
            span=snap["span"],
            jobs_released=len(jobs),
            jobs_completed=completed,
            deadline_misses=len(misses),
            frequency_switches=switches,
            context_switches=snap["context_switches"],
            preemptions=snap["preemptions"],
            wakeups=snap["wakeups"],
            over_unity_clamps=snap["over_unity_clamps"],
            busy_time=snap["busy_time"],
            idle_time=snap["idle_time"],
            residency=snap["residency"],
            busy_residency=busy_res,
            idle_residency=idle_res,
            switch_residency=snap["switch_halt"],
            voltages=snap["voltages"],
            tasks=tasks,
            events=events,
            wall_seconds=wall,
            events_per_sec=events / wall if wall > 0 else 0.0,
            dispatch=snap["dispatch"],
        )


def _activity_split(result, model, residency: Dict[float, float],
                    switch_halt: Dict[float, float]):
    """Busy/idle split of the residency histogram.

    Busy time per point is recovered by inverting the V²-per-cycle
    pricing of the recorded execution energy — no per-segment hook
    needed.  Only possible when the result carries an
    :class:`~repro.sim.results.EnergyBreakdown`.
    """
    energy = getattr(result, "energy", None)
    execution = getattr(energy, "execution", None)
    if not isinstance(execution, dict) or model is None:
        return {}, {}
    busy: Dict[float, float] = {}
    for point, joules in execution.items():
        cycles = joules / (model.cycle_energy_scale
                           * point.energy_per_cycle)
        f = point.frequency
        busy[f] = busy.get(f, 0.0) + cycles / f
    idle: Dict[float, float] = {}
    for f, total in residency.items():
        rest = total - busy.get(f, 0.0) - switch_halt.get(f, 0.0)
        idle[f] = rest if rest > 0.0 else 0.0
    return busy, idle
