"""An independent, tick-quantized reference simulator.

The main engine (:mod:`repro.sim.engine`) is event-driven and exact.  This
module is a deliberately *separate* implementation — fixed time quantum,
straight-line code, no shared scheduling logic — used by the test suite to
cross-validate the engine: on the same workload, the two must agree on
energy to within the quantization error and on every deadline outcome.

It is the oracle for everything outside the flat-array
:class:`~repro.sim.batch_kernels.CellKernel`'s envelope, which checks the
engine exactly inside it: dynamic admissions (Sec. 4.3, with deferred
first releases), policy timer wakeups, and ``on_miss="continue"``.

A second implementation that shared the engine's internals would inherit
its bugs; this one only reuses the passive data types (tasks, jobs,
machines, demand models, :class:`~repro.sim.engine.Admission` records),
the reads :class:`~repro.sim.engine.SchedulerView` derives from its
``job_of``/``current_jobs``, and the DVS policy objects themselves (which
are part of the specification being validated).

Resolution: admissions, releases and policy wakeups are handled at tick
boundaries, and a completion ends its job's tick (the rest of that tick
idles), so each completion and the frequency change it triggers is
delayed by up to one tick, and over a busy period the delays add up
(the next job starts late too); energy differs from the exact engine by
at most roughly ``ticks_with_changes × dt × max_power``.  Use small
ticks.
Release times themselves are exact (a release is stamped with its own
time, not the tick boundary that admits it), so job counts and periodic
release times match the engine's exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.hw.operating_point import OperatingPoint
from repro.model.demand import DemandModel, WorstCaseDemand, demand_from_spec
from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sim.engine import Admission, SchedulerView
from repro.sim.timeline import make_trace

_EPS = 1e-9

#: Miss modes the tick simulator models (see :class:`TickSimulator`).
TICK_MISS_MODES = ("drop", "continue")


class TickResult:
    """Minimal result record of a tick simulation."""

    def __init__(self):
        self.energy = 0.0
        self.jobs: List[Job] = []
        self.missed: List[Job] = []
        self.trace = None  # SimTimeline when recording

    @property
    def executed_cycles(self) -> float:
        return sum(job.executed for job in self.jobs)

    @property
    def met_all_deadlines(self) -> bool:
        return not self.missed


class TickSimulator(SchedulerView):
    """Quantized-time reference simulator.

    Parameters mirror :class:`~repro.sim.engine.Simulator` where they
    overlap.  ``tick`` must divide ``duration``.  ``admissions`` take
    effect at the first tick boundary at or after their time (so give
    them tick-aligned times to compare release times exactly).
    ``on_miss`` is ``"drop"`` (a late job is abandoned when its successor
    releases) or ``"continue"`` (it stays runnable beside its successor).
    Switching overheads are not modelled.
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: float = 100.0, tick: float = 0.01,
                 energy_model: Optional[EnergyModel] = None,
                 scheduler: Optional[str] = None,
                 record_trace: bool = False,
                 instrument=None,
                 admissions: Sequence[Admission] = (),
                 on_miss: str = "drop"):
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        if duration <= 0:
            raise SimulationError(
                f"duration must be positive, got {duration}")
        self._steps = round(duration / tick)
        if abs(self._steps * tick - duration) > 1e-9 * duration:
            raise SimulationError(
                f"tick {tick} does not divide duration {duration}: the "
                "last, partial tick would go unsimulated")
        if on_miss not in TICK_MISS_MODES:
            raise SimulationError(
                f"on_miss must be one of {TICK_MISS_MODES}, got {on_miss!r}")
        self.taskset = taskset
        self.machine = machine
        self.policy = policy
        if demand is None:
            self.demand_model: DemandModel = WorstCaseDemand()
        else:
            self.demand_model = demand_from_spec(demand)
        self.duration = duration
        self.tick = tick
        self.energy_model = energy_model or EnergyModel()
        self.scheduler = (scheduler
                          or getattr(policy, "scheduler", "edf")).lower()
        if self.scheduler not in ("edf", "rm"):
            raise SimulationError(f"unknown scheduler {self.scheduler!r}")
        self.on_miss = on_miss
        self._admissions = sorted(admissions, key=lambda a: a.time)
        self._admission_pos = 0

        # run state, one slot per task in task-set order (admitted tasks
        # append); the SchedulerView protocol below reads these
        self.time = 0.0
        self._slot: Dict[str, int] = {t.name: i
                                      for i, t in enumerate(taskset)}
        self._jobs: List[Optional[Job]] = [None] * len(taskset)
        self._next_release: List[float] = [0.0] * len(taskset)
        self._invocation: List[int] = [0] * len(taskset)
        self._next_due = 0.0  # min(_next_release)
        # slot -> jobs a deferred admission's first release waits on
        self._blockers: Dict[int, List[Job]] = {}
        # runnable jobs as (priority key, job), sorted: the head runs
        self._ready: List[tuple] = []
        self._busy_time = 0.0
        self._idle_time = 0.0
        self._point: OperatingPoint = machine.fastest
        self._result = TickResult()
        self._result.trace = make_trace(record_trace)
        self._trace_record = (self._result.trace.record
                              if self._result.trace is not None else None)

        # -- instrumentation (see repro.obs); same caching scheme as the
        # event-driven engine: bound-method-or-None per hook.  Per-event
        # dispatch timing (``on_event``) is an engine self-profile and
        # does not apply here.
        self.instrument = instrument
        if instrument is not None:
            self._obs_counters = getattr(instrument, "counters", None)
            self._obs_release = getattr(instrument, "on_release", None)
            self._obs_completion = getattr(instrument, "on_completion",
                                           None)
            self._obs_miss = getattr(instrument, "on_deadline_miss", None)
            self._obs_ctx = getattr(instrument, "on_context_switch", None)
            self._obs_freq = getattr(instrument, "on_frequency_change",
                                     None)
        else:
            self._obs_counters = self._obs_release = None
            self._obs_completion = self._obs_miss = self._obs_ctx = None
            self._obs_freq = None
        self._obs_track_ctx = (self._obs_counters is not None
                               or self._obs_ctx is not None)
        self._last_exec_job: Optional[Job] = None

    # -- SchedulerView protocol (the base class derives the rest) ---------
    def job_of(self, task: Task) -> Optional[Job]:
        slot = self._slot.get(task.name)
        return self._jobs[slot] if slot is not None else None

    def current_jobs(self) -> List[Optional[Job]]:
        return self._jobs

    def earliest_deadline(self) -> Optional[float]:
        deadlines = [j.absolute_deadline for j in self._jobs if j]
        return min(deadlines) if deadlines else None

    @property
    def busy_time(self) -> float:
        """Cumulative time spent executing tasks."""
        return self._busy_time

    @property
    def idle_time(self) -> float:
        """Cumulative time spent idle."""
        return self._idle_time

    @property
    def current_point(self) -> OperatingPoint:
        return self._point

    def _apply_point(self, new_point: Optional[OperatingPoint]) -> None:
        """Adopt a policy-returned operating point, firing the obs hook."""
        if new_point is None or new_point == self._point:
            return
        old_point = self._point
        self._point = new_point
        cb = self._obs_freq
        if cb is not None:
            cb(self, old_point, new_point)

    # -- main loop ----------------------------------------------------------
    def run(self) -> TickResult:
        point = self.policy.setup(self)
        if point is not None:
            self._point = point
        obs = self.instrument
        if obs is not None:
            obs.on_run_start(self)
        for step in range(self._steps):
            self.time = step * self.tick
            self._admit_due()
            self._release_due()
            self._wake_due()
            self._run_tick()
        # Like the engine, handle what falls due exactly at the horizon
        # (admissions; releases and wakeups there are suppressed).
        self.time = self.duration
        self._admit_due()
        self._release_due()
        self._final_check()
        if obs is not None:
            obs.on_run_end(self, self._result)
        return self._result

    def _run_tick(self) -> None:
        """Execute (or idle) one tick at the current operating point."""
        job = self._ready[0][1] if self._ready else None
        record = self._trace_record
        if job is None:
            idle_hook = getattr(self.policy, "on_idle", None)
            if idle_hook is not None:
                self._apply_point(idle_hook(self))
            energy = self.energy_model.idle_energy(self._point, self.tick)
            self._result.energy += energy
            self._idle_time += self.tick
            if record is not None:
                record(self.time, self.time + self.tick, None,
                       self._point, 0.0, energy, "idle")
            return
        if self._obs_track_ctx and job is not self._last_exec_job:
            self._note_context_switch(job)
        frequency = self._point.frequency
        cycles = min(self.tick * frequency, job.remaining)
        job.executed += cycles
        energy = self.energy_model.execution_energy(self._point, cycles)
        self._result.energy += energy
        run_end = self.time + cycles / frequency
        self._busy_time += cycles / frequency
        if record is not None:
            record(self.time, run_end, job.task.name, self._point,
                   cycles, energy, "run")
        leftover = self.tick - cycles / frequency
        if leftover > _EPS:
            energy = self.energy_model.idle_energy(self._point, leftover)
            self._result.energy += energy
            self._idle_time += leftover
            if record is not None:
                record(run_end, self.time + self.tick, None,
                       self._point, 0.0, energy, "idle")
        if job.remaining <= _EPS:
            job.executed = job.demand
            job.completion_time = run_end
            del self._ready[0]
            cb = self._obs_completion
            if cb is not None:
                cb(self, job)
            self._apply_point(self.policy.on_completion(self, job.task))
            self._release_unblocked(run_end)

    def _note_context_switch(self, job: Job) -> None:
        """Account a change of the executing job (see :mod:`repro.obs`)."""
        prev = self._last_exec_job
        self._last_exec_job = job
        preempted = prev is not None and prev.completion_time is None
        counters = self._obs_counters
        if counters is not None:
            counters.context_switches += 1
            if preempted:
                counters.preemptions += 1
        cb = self._obs_ctx
        if cb is not None:
            cb(self, prev, job, preempted)

    # -- internals -----------------------------------------------------------
    def _key(self, job: Job) -> tuple:
        """Priority order: deadline (EDF) or period (RM), then task-set
        index, then invocation — the tie order of
        :mod:`repro.sim.scheduler`."""
        first = (job.absolute_deadline if self.scheduler == "edf"
                 else job.task.period)
        return (first, self._slot[job.task.name], job.index)

    def _admit_due(self) -> None:
        """Add every admission due at this tick to the task set (Sec. 4.3)."""
        while self._admission_pos < len(self._admissions) and \
                self._admissions[self._admission_pos].time \
                <= self.time + _EPS:
            admission = self._admissions[self._admission_pos]
            self._admission_pos += 1
            self.taskset = self.taskset.with_task(admission.task)
            task = self.taskset[-1]  # carries an auto-assigned name
            slot = len(self._jobs)
            self._slot[task.name] = slot
            self._invocation.append(0)
            if admission.defer:
                self._blockers[slot] = [
                    job for job in self._jobs
                    if job is not None and not job.is_complete]
                self._next_release.append(math.inf)
            else:
                release = max(self.time, admission.time)
                self._next_release.append(release)
                self._next_due = min(self._next_due, release)
            self._jobs.append(None)
            hook = getattr(self.policy, "on_task_added", None)
            if hook is not None:
                self._apply_point(hook(self, task))
        self._release_unblocked(self.time)

    def _release_unblocked(self, now: float) -> None:
        """Schedule deferred first releases whose blockers all completed."""
        for slot, blockers in list(self._blockers.items()):
            if all(job.is_complete for job in blockers):
                del self._blockers[slot]
                self._next_release[slot] = now
                self._next_due = min(self._next_due, now)

    def _release_due(self) -> None:
        if self._next_due > self.time + _EPS:
            return
        released = []
        for slot, task in enumerate(self.taskset):
            while self._next_release[slot] <= self.time + _EPS and \
                    self._next_release[slot] < self.duration - _EPS:
                old = self._jobs[slot]
                if old is not None and not old.is_complete:
                    self._miss(old)
                    if self.on_miss == "drop":
                        del self._ready[bisect_left(self._ready,
                                                    (self._key(old),))]
                release = self._next_release[slot]
                index = self._invocation[slot]
                demand = min(self.demand_model.demand(task, index),
                             task.wcet)
                job = Job(task=task, release_time=release, demand=demand,
                          index=index)
                if demand <= _EPS:
                    job.completion_time = release
                else:
                    insort(self._ready, (self._key(job), job))
                self._jobs[slot] = job
                self._invocation[slot] += 1
                self._next_release[slot] = release + task.period
                self._result.jobs.append(job)
                released.append(task)
                cb = self._obs_release
                if cb is not None:
                    cb(self, job)
                if job.is_complete:
                    cb = self._obs_completion
                    if cb is not None:
                        cb(self, job)
        self._next_due = min(self._next_release, default=math.inf)
        if released:
            # Same batch-invalidation contract as the event-driven engine.
            invalidate = getattr(self.policy, "on_releases_invalidate",
                                 None)
            if invalidate is not None:
                invalidate(self, released)
        for task in released:
            self._apply_point(self.policy.on_release(self, task))
            job = self.job_of(task)
            if job is not None and job.is_complete and job.demand <= _EPS:
                self._apply_point(self.policy.on_completion(self, task))

    def _wake_due(self) -> None:
        """Fire the policy's timer hook for every wakeup due by this tick
        (suppressed within ``_EPS`` of the horizon, as in the engine)."""
        wakeup_time = getattr(self.policy, "wakeup_time", None)
        if wakeup_time is None:
            return
        suppress = self.duration - _EPS
        wakeup = wakeup_time()
        while wakeup is not None and wakeup <= self.time + _EPS \
                and wakeup < suppress:
            self._apply_point(self.policy.on_wakeup(self))
            counters = self._obs_counters
            if counters is not None:
                counters.wakeups += 1
            previous, wakeup = wakeup, wakeup_time()
            if wakeup == previous:
                raise SimulationError(
                    f"policy {self.policy!r} did not advance its wakeup time")

    def _miss(self, job: Job) -> None:
        self._result.missed.append(job)
        cb = self._obs_miss
        if cb is not None:
            cb(self, job)

    def _final_check(self) -> None:
        missed = {id(job) for job in self._result.missed}
        for job in self._result.jobs:
            if not job.is_complete and id(job) not in missed and \
                    job.absolute_deadline <= self.duration + _EPS:
                self._miss(job)
