"""Flat-array simulation kernels: the production simulator of sweep cells.

The discrete-event :class:`~repro.sim.engine.Simulator` is built for
generality: admission queues, policy wakeups, switch halts, per-event
instrumentation, and lazily-invalidated heaps.  A sweep cell needs none of
that — every run the kernel accepts is a fixed periodic task set,
free switching, WCET-clamped demands, and a policy that only reacts to
releases, completions, and idling.  :func:`kernel_simulate` replays exactly
that envelope over flat per-task arrays (release times, current deadlines,
ready slots — one slot per task index) and drives the *real* policy object
through the same :class:`~repro.sim.engine.SchedulerView` protocol the
engine exposes, so every frequency-selection decision (ccEDF's utilization
bands, ccRM's quota walk, laEDF's deferral loop) is made by the same code
and is bit-for-bit identical by construction.

:func:`batch_simulate` is the entry point every sweep cell runs through
(:func:`repro.analysis.sweep.run_cell`'s default, on both engines): the
kernel inside its envelope, the event engine outside it.  The envelope
includes instruments that only need run-level observation — the
residency :class:`~repro.obs.metrics.MetricsCollector` — because the
kernel fires ``on_frequency_change``, ``on_run_start``/``on_run_end`` and
the ``counters`` tallies at the engine's exact points.

What the kernel removes is pure engine overhead: the three event heaps and
their lazy-invalidation tuples, the ready-entry side table, the wakeup
cache churn, the per-event instrumentation pointer tests, the per-event
method-call chains, and the repeated ``energy_per_cycle`` property
evaluations (cached here per operating point).  Because the supported
modes (``on_miss`` "raise"/"drop") keep at most one live job per task, the
ready queue collapses to one slot per task index and job picking to a
linear argmin over ``(deadline-or-period, task index)`` — the same total
order as the engine's heap keys.  The main loop is deliberately one flat
function: between two release instants ("a window") it executes segments
back to back without re-deriving the release state the engine re-scans
per event.

The module also hosts two cross-cell helpers: ``lowest_at_least`` over a
batch of speed requests (used by :mod:`repro.analysis.batch`'s column
blocks) and per-task release counting.  Each evaluates the
identical per-element comparisons as its scalar counterpart; numpy (when
installed) only changes how the elements are iterated, never the
arithmetic, and is imported lazily behind :func:`numpy_backend`.  The
per-cell kernel itself never calls into numpy, so a scalar sweep keeps
its "numpy never imported" invariant (pinned by
``benchmarks/numpy_guard`` and ``tests/analysis/test_batch_engine.py``).
"""

from __future__ import annotations

import bisect
import math
import os
from typing import Dict, List, Optional, Sequence, Union

from repro.core.base import DVSPolicy
from repro.errors import DeadlineMissError, MachineError, SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.model.demand import DemandModel, WorstCaseDemand, demand_from_spec
from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sim import engine
from repro.sim.engine import SchedulerView
from repro.sim.results import DeadlineMiss, EnergyBreakdown, SimResult
from repro.sim.scheduler import make_priority
from repro.sim.timeline import make_trace

#: Same event tolerance as the engine.
_EPS = 1e-9

#: Miss modes the kernel replicates.  "continue" allows several live jobs
#: per task, which breaks the one-ready-slot-per-task layout; cells that
#: need it fall back to the engine.
KERNEL_MISS_MODES = ("raise", "drop")

#: Element count below which the block kernels skip numpy: crossing into
#: numpy costs more than a tiny Python loop for a handful of elements.
#: The size check runs *before* :func:`numpy_backend`, so small batches
#: never trigger the import.
_NUMPY_MIN = 64

_INF = math.inf

# ---------------------------------------------------------------------------
# the lazy numpy seam
# ---------------------------------------------------------------------------

#: ``RTDVS_NO_NUMPY=1`` pins the pure-Python kernels process-wide (the
#: numpy-absent CI leg runs the batch/block suites under it); a later
#: ``set_numpy_enabled(True)`` still overrides for targeted tests.
_numpy_enabled = os.environ.get("RTDVS_NO_NUMPY", "") not in ("1", "true")
_numpy_module = None
_numpy_missing = False


def set_numpy_enabled(enabled: bool) -> None:
    """Force the pure-Python block kernels (``False``) or restore the
    default lazy numpy acceleration (``True``).

    Used by the differential tests to pin both sides of the
    numpy-on/numpy-off bit-identity gate, and available to callers that
    must not pull numpy into the process.
    """
    global _numpy_enabled
    _numpy_enabled = bool(enabled)


def numpy_backend():
    """The numpy module, or ``None`` (disabled or not installed).

    The import happens on first use from *block* code only — the
    per-cell kernel every scalar sweep runs on never calls it, so
    ``numpy`` stays out of ``sys.modules`` for scalar sweeps (the laziness
    invariant asserted by ``benchmarks.numpy_guard``).
    """
    global _numpy_module, _numpy_missing
    if not _numpy_enabled or _numpy_missing:
        return None
    if _numpy_module is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - image always has numpy
            _numpy_missing = True
            return None
        _numpy_module = numpy
    return _numpy_module


# ---------------------------------------------------------------------------
# block kernels (cell/task index as the leading axis)
# ---------------------------------------------------------------------------

def release_counts(periods: Sequence[float], duration: float) -> List[int]:
    """Releases the engine fires per task over ``[0, duration)``.

    Replays the engine's convention exactly: releases happen at the
    *accumulated* times ``0, p, p+p, ...`` (repeated addition, not
    ``k*p``) while the accumulated time stays below ``duration - _EPS``
    (the at-the-horizon release is suppressed).  Accumulation order
    matters in floating point, so this kernel is intentionally not
    expressed as a closed-form divide.
    """
    limit = duration - _EPS
    counts: List[int] = []
    for period in periods:
        release = 0.0
        n = 0
        while release < limit:
            n += 1
            release += period
        counts.append(n)
    return counts


def lowest_at_least_indices(machine: Machine,
                            speeds: Sequence[float]) -> List[int]:
    """Vectorized frequency selection: the operating-point index
    :meth:`~repro.hw.machine.Machine.lowest_at_least` would pick for each
    requested speed.

    Mirrors the scalar method exactly — ``bisect_left(frequencies,
    speed - 1e-9)`` clamped to the table, with the same over-unity error —
    so ``machine.points[i]`` equals the scalar selection element-wise.
    """
    frequencies = machine.frequencies
    top = len(frequencies) - 1
    if len(speeds) >= _NUMPY_MIN:
        np = numpy_backend()
        if np is not None:
            arr = np.asarray(speeds, dtype=np.float64)
            over = arr > 1.0 + 1e-7
            if bool(over.any()):
                _raise_over_unity(float(arr[over][0]))
            indices = np.searchsorted(
                np.asarray(frequencies, dtype=np.float64),
                arr - _EPS, side="left")
            return np.minimum(indices, top).tolist()
    out: List[int] = []
    for speed in speeds:
        if speed > 1.0 + 1e-7:
            _raise_over_unity(speed)
        index = bisect.bisect_left(frequencies, speed - _EPS)
        out.append(index if index <= top else top)
    return out


def _raise_over_unity(speed: float) -> None:
    """The same error ``Machine.lowest_at_least`` raises."""
    raise MachineError(
        f"required relative speed {speed} exceeds the maximum (1.0)")


# ---------------------------------------------------------------------------
# kernel eligibility
# ---------------------------------------------------------------------------

#: Instrumentation hooks only the event engine fires.  An instrument
#: that leaves all of them ``None`` (a
#: :class:`~repro.obs.metrics.MetricsCollector` without
#: ``self_profile``) runs on the kernel, which fires the rest —
#: ``counters``, ``on_frequency_change`` and ``on_run_start`` /
#: ``on_run_end`` — at the engine's exact points.
ENGINE_ONLY_HOOKS = ("on_release", "on_completion", "on_deadline_miss",
                     "on_context_switch", "on_event")


def instrument_supported(instrument) -> bool:
    """Whether the kernel can drive ``instrument`` (``None`` included)."""
    return instrument is None or all(
        getattr(instrument, hook, None) is None
        for hook in ENGINE_ONLY_HOOKS)


def kernel_supported(policy, on_miss: str = "raise", instrument=None,
                     admissions: Sequence = (), enforce_wcet: bool = True,
                     switching=None, **_ignored) -> bool:
    """Whether :func:`kernel_simulate` replicates this run exactly.

    The envelope: a :class:`~repro.core.base.DVSPolicy` without a timer
    (``wakeup_time``), an instrument without per-event hooks (see
    :data:`ENGINE_ONLY_HOOKS`), no dynamic admissions, WCET-clamped
    demands, free switching, and a miss mode that keeps at most one live
    job per task.  Everything else runs on the engine
    (:func:`batch_simulate` makes that choice).
    """
    return (isinstance(policy, DVSPolicy)
            and getattr(policy, "wakeup_time", None) is None
            and instrument_supported(instrument)
            and not admissions
            and enforce_wcet
            and switching is None
            and on_miss in KERNEL_MISS_MODES)


def _overrides(policy, hook_name: str) -> bool:
    """Whether ``policy`` overrides a :class:`DVSPolicy` no-op hook.

    The engine calls every hook unconditionally; the base-class bodies
    return ``None``, which the engine ignores.  Skipping those calls is
    outcome-identical and removes per-event call overhead entirely for
    the static and NoDVS policies.
    """
    return getattr(type(policy), hook_name) is not getattr(DVSPolicy,
                                                           hook_name)


# ---------------------------------------------------------------------------
# the per-cell kernel
# ---------------------------------------------------------------------------

class CellKernel(SchedulerView):
    """One cell's simulation state, flattened to per-task-index arrays.

    Implements the :class:`~repro.sim.engine.SchedulerView` protocol the
    policies read, over:

    * ``_next_release[i]`` — the release queue (argmin instead of a heap;
      at-the-horizon releases follow the engine's suppression convention);
    * ``_job[i]`` / ``_job_deadline[i]`` — the deadline index (the current
      invocation's deadline persists after completion, exactly like the
      engine's lazily-invalidated deadline heap);
    * ``_ready[i]`` — the ready queue (one slot per task: the supported
      miss modes never leave two live jobs of one task ready).

    An ``instrument`` inside the envelope (:func:`instrument_supported`)
    sees what the engine would show it: ``on_run_start`` after the
    policy's ``setup``, ``on_frequency_change`` at each switch decision
    instant, context switches and preemptions tallied per segment into
    its ``counters`` and flushed once after the loop, and ``on_run_end``
    with the finished result, by which time ``busy_time`` and
    ``idle_time`` hold the run's totals.

    Task parameters may be supplied pre-flattened by a column block
    (``params=(periods, wcets)``) so a sweep column shares one SoA
    materialization across its cells.
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: Optional[float] = None,
                 energy_model: Optional[EnergyModel] = None,
                 on_miss: str = "raise",
                 record_trace: bool = False,
                 trace_backend: str = "array",
                 scheduler: Optional[str] = None,
                 instrument=None,
                 params: Optional[tuple] = None):
        if not instrument_supported(instrument):
            raise SimulationError(
                "the cell kernel does not fire per-event instrumentation "
                f"hooks {ENGINE_ONLY_HOOKS}; use the event engine")
        if on_miss not in KERNEL_MISS_MODES:
            raise SimulationError(
                f"cell kernel supports on_miss in {KERNEL_MISS_MODES}, "
                f"got {on_miss!r}")
        self.taskset = taskset
        self.machine = machine
        self.policy = policy
        if demand is None:
            self.demand_model: DemandModel = WorstCaseDemand()
        else:
            self.demand_model = demand_from_spec(demand)
        self.duration = (duration if duration is not None
                         else 2.0 * max(t.period for t in taskset))
        if self.duration <= 0:
            raise SimulationError(
                f"duration must be positive, got {self.duration}")
        self.energy_model = energy_model or EnergyModel()
        scheduler_name = scheduler or getattr(policy, "scheduler", "edf")
        # Built for its validation and canonical name; keys are inlined.
        self._priority_name = make_priority(scheduler_name, taskset).name
        self.on_miss = on_miss

        tasks = list(taskset)
        self._tasks = tasks
        self._n = len(tasks)
        self._tindex: Dict[str, int] = {t.name: i for i, t in
                                        enumerate(tasks)}
        # Identity fast path for job_of: policies pass the task objects of
        # this task set, so an id() lookup skips the attribute access and
        # string hash of the name lookup (kept as the fallback so
        # equal-but-distinct Task objects still resolve, like the engine).
        self._id_index: Dict[int, int] = {id(t): i for i, t in
                                          enumerate(tasks)}
        if params is not None:
            self._period, self._wcet = params
        else:
            self._period = [t.period for t in tasks]
            self._wcet = [t.wcet for t in tasks]

        # -- flat per-task state (the SoA row this cell occupies) --
        self._next_release = [0.0] * self._n
        self._invocation = [0] * self._n
        self._job: List[Optional[Job]] = [None] * self._n
        self._job_deadline = [_INF] * self._n
        self._ready: List[Optional[Job]] = [None] * self._n

        # -- run accounting --
        self.time = 0.0
        self._jobs: List[Job] = []
        self._jobs_deadline: List[float] = []
        self._misses: List[DeadlineMiss] = []
        self._energy = EnergyBreakdown()
        self._switches = 0
        self._point = machine.fastest
        self._trace = make_trace(record_trace, trace_backend)
        self._busy_time = 0.0
        self._idle_time = 0.0
        self._finished = False
        self.instrument = instrument
        self._obs_counters = getattr(instrument, "counters", None)
        self._obs_freq = getattr(instrument, "on_frequency_change", None)

        # Hook dispatch: bound method when overridden, None when the
        # base-class no-op would run (the engine calls it and discards
        # the None — skipping is outcome-identical).
        self._on_release = (policy.on_release
                            if _overrides(policy, "on_release") else None)
        self._on_completion = (policy.on_completion
                               if _overrides(policy, "on_completion")
                               else None)
        self._on_idle = (policy.on_idle
                         if _overrides(policy, "on_idle") else None)
        self._on_invalidate = (policy.on_releases_invalidate
                               if _overrides(policy,
                                             "on_releases_invalidate")
                               else None)

    # ------------------------------------------------------------------
    # SchedulerView protocol
    # ------------------------------------------------------------------
    def job_of(self, task: Task) -> Optional[Job]:
        index = self._id_index.get(id(task))
        if index is None:
            index = self._tindex.get(task.name)
            if index is None:
                return None
        return self._job[index]

    def current_deadline(self, task: Task) -> Optional[float]:
        job = self.job_of(task)
        return job.absolute_deadline if job else None

    def earliest_deadline(self) -> Optional[float]:
        earliest = min(self._job_deadline) if self._job_deadline else _INF
        return earliest if earliest != _INF else None

    def worst_case_remaining(self, task: Task) -> float:
        job = self.job_of(task)
        if job is None:
            return 0.0
        return job.worst_case_remaining

    def worst_case_remaining_each(self, tasks: Sequence[Task],
                                  out: Optional[List[float]] = None
                                  ) -> List[float]:
        id_index = self._id_index
        tindex = self._tindex
        jobs = self._job
        if out is None or len(out) != len(tasks):
            out = [0.0] * len(tasks)
        for index, task in enumerate(tasks):
            i = id_index.get(id(task))
            if i is None:
                i = tindex.get(task.name)
            job = jobs[i] if i is not None else None
            if job is None or job.completion_time is not None:
                out[index] = 0.0
            else:
                remaining = job.task.wcet - job.executed
                out[index] = remaining if remaining > 0.0 else 0.0
        return out

    def executed_in_invocation(self, task: Task) -> float:
        job = self.job_of(task)
        return job.executed if job else 0.0

    def invocation_of(self, task: Task) -> int:
        job = self.job_of(task)
        return job.index if job else -1

    @property
    def current_point(self):
        """The operating point in effect (current at every hook call)."""
        return self._point

    @property
    def busy_time(self) -> float:
        """Time spent executing tasks (the run's total once it ends)."""
        return self._busy_time

    @property
    def idle_time(self) -> float:
        """Time spent idle (the run's total once it ends)."""
        return self._idle_time

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the cell and return its result (single use).

        One flat loop, engine-equivalent step for step: process every due
        release (index order = the engine's ordinal order), stop at the
        duration edge, otherwise execute segments back to back until the
        next release instant.  All simulator state lives in locals; the
        attributes policies read through the view protocol (``time`` and
        the per-task arrays) are synced at every point a policy can
        observe them (hook calls and miss handling).
        """
        if self._finished:
            raise SimulationError("CellKernel instances are single-use; "
                                  "construct a new one to run again")
        self._finished = True

        initial = self.policy.setup(self)
        if initial is not None:
            # The engine assigns the setup point directly: no switch is
            # counted and no membership check is applied.
            self._point = initial
        obs = self.instrument
        if obs is not None:
            obs.on_run_start(self)
        # Context switches are counted per executed segment exactly as in
        # Simulator.run, on locals flushed to the counters after the loop.
        counters = self._obs_counters
        track_ctx = counters is not None
        last_job: Optional[Job] = None
        ctx_switches = 0
        preemptions = 0

        # -- hoist everything the hot loop touches --
        n = self._n
        range_n = range(n)
        tasks = self._tasks
        period = self._period
        wcet = self._wcet
        next_release = self._next_release
        invocation = self._invocation
        job_slot = self._job
        job_deadline = self._job_deadline
        ready = self._ready
        duration = self.duration
        edge = duration - _EPS
        drop_on_miss = self.on_miss == "drop"
        jobs_log = self._jobs
        deadline_log = self._jobs_deadline
        trace = self._trace
        record = trace.record if trace is not None else None
        on_release = self._on_release
        on_completion = self._on_completion
        on_idle = self._on_idle
        invalidate = self._on_invalidate
        key = period if self._priority_name == "rm" else job_deadline

        model = self.demand_model
        demand_at = getattr(model, "demand_at", None)
        demand_of = model.demand

        # Energy coefficients, with energy_per_cycle (a property that
        # multiplies voltage² on every access) cached per point.  The
        # engine computes scale * idle_level * cycles * epc left to
        # right, so hoisting (scale * idle_level) keeps the products
        # bit-identical.
        scale = self.energy_model.cycle_energy_scale
        idle_coeff = scale * self.energy_model.idle_level
        point = self._point
        frequency = point.frequency
        epc = point.energy_per_cycle

        # Execution energy accumulates into flat slots, one per operating
        # point in first-use order (the insertion order the engine's
        # breakdown dict ends up with).  The slot for the current point is
        # resolved lazily after each switch, so the hot segment loop pays
        # a single list-indexed add — no OperatingPoint hashing.
        self._acc_energy: List[float] = []
        self._acc_points: List[object] = []
        self._acc_by_op = [-1] * len(self.machine.frequencies)
        self._acc_off: Dict[object, int] = {}
        acc_energy = self._acc_energy
        slot = -1
        idle_energy = 0.0
        busy_time = 0.0
        idle_time = 0.0

        time = 0.0

        while True:
            # ---- release phase (engine: fixed point over due releases;
            # one extra scan confirms quiescence) ----
            limit = time + _EPS
            due = [i for i in range_n
                   if next_release[i] <= limit and next_release[i] < edge]
            if due:
                released_tasks: List[Task] = []
                zero_tasks: List[Task] = []
                for i in due:
                    while True:
                        release_time = next_release[i]
                        old = job_slot[i]
                        if old is not None and old.completion_time is None:
                            self.time = time
                            self._record_miss(old)  # raises in raise mode
                            if drop_on_miss and ready[i] is old:
                                ready[i] = None
                        task = tasks[i]
                        inv = invocation[i]
                        if demand_at is not None:
                            demand = demand_at(task, inv, release_time)
                        else:
                            demand = demand_of(task, inv)
                        cap = wcet[i]
                        if demand > cap:  # enforce_wcet, as min(d, wcet)
                            demand = cap
                        job = Job(task=task, release_time=release_time,
                                  demand=demand, index=inv)
                        job_slot[i] = job
                        deadline = release_time + period[i]
                        job_deadline[i] = deadline
                        invocation[i] = inv + 1
                        next_release[i] = deadline
                        jobs_log.append(job)
                        deadline_log.append(deadline)
                        released_tasks.append(task)
                        if demand > _EPS:
                            ready[i] = job
                        else:
                            # Engine's zero-demand pass: completes at the
                            # current time without ever becoming ready.
                            job.completion_time = time
                            zero_tasks.append(task)
                        if not (next_release[i] <= limit
                                and next_release[i] < edge):
                            break
                if invalidate is not None:
                    self.time = time
                    invalidate(self, released_tasks)
                if on_release is not None:
                    self.time = time
                    for task in released_tasks:
                        new_point = on_release(self, task)
                        if new_point is not None and new_point != point:
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                if on_completion is not None and zero_tasks:
                    self.time = time
                    for task in zero_tasks:
                        new_point = on_completion(self, task)
                        if new_point is not None and new_point != point:
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                # No quiescence re-scan: every processed index advanced
                # its next release by a full period past ``limit`` (the
                # catch-up loop guarantees it), and hooks never touch the
                # release state, so the engine's fixed-point iteration
                # is provably a single pass here.

            # ---- duration edge (the engine checks after releases) ----
            if time >= edge:
                break

            # ---- one window: [time, next release instant) ----
            horizon_raw = min(next_release)
            horizon = horizon_raw if horizon_raw < duration else duration
            if horizon <= limit:
                # Suppressed at-the-edge release coinciding with the
                # current instant; the engine makes no progress here
                # either (it re-enters its event scan).
                continue
            while True:
                best = -1
                best_key = _INF
                for i in range_n:
                    if ready[i] is not None:
                        k = key[i]
                        if k < best_key:
                            best = i
                            best_key = k
                if best < 0:
                    # Idle to the horizon.  The idle hook may retune
                    # first (ccEDF drops to the slowest point).
                    if on_idle is not None:
                        self.time = time
                        new_point = on_idle(self)
                        if new_point is not None and new_point != point:
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                    cycles = (horizon - time) * frequency
                    energy = idle_coeff * cycles * epc
                    idle_energy += energy
                    idle_time += horizon - time
                    if record is not None:
                        record(time, horizon, None, point, 0.0, energy,
                               "idle")
                    time = horizon
                    break
                job = ready[best]
                if track_ctx and job is not last_job:
                    ctx_switches += 1
                    if (last_job is not None
                            and last_job.completion_time is None):
                        preemptions += 1
                    last_job = job
                remaining = job.demand - job.executed
                if remaining < 0.0:
                    remaining = 0.0
                completion_time = time + remaining / frequency
                if completion_time <= horizon + _EPS:
                    energy = scale * remaining * epc
                    if slot < 0:
                        slot = self._slot_for(point)
                    acc_energy[slot] += energy
                    busy_time += completion_time - time
                    job.executed = job.demand  # absorb float residue
                    job.completion_time = completion_time
                    ready[best] = None
                    if record is not None:
                        record(time, completion_time, job.task.name, point,
                               remaining, energy, "run")
                    time = completion_time
                    if on_completion is not None:
                        self.time = time
                        new_point = on_completion(self, job.task)
                        if new_point is not None and new_point != point:
                            self._point = point
                            self._set_point(new_point)
                            point = self._point
                            frequency = point.frequency
                            epc = point.energy_per_cycle
                            slot = -1
                    # The window survives a completion unless the next
                    # release (or the duration edge) is upon us.
                    if horizon_raw <= time + _EPS or time >= edge:
                        break
                else:
                    cycles = (horizon - time) * frequency
                    energy = scale * cycles * epc
                    if slot < 0:
                        slot = self._slot_for(point)
                    acc_energy[slot] += energy
                    busy_time += horizon - time
                    job.executed += cycles
                    if record is not None:
                        record(time, horizon, job.task.name, point, cycles,
                               energy, "run")
                    time = horizon
                    break

        # ---- wind down ----
        self.time = time
        self._point = point
        self._busy_time = busy_time
        self._idle_time = idle_time
        if track_ctx:
            counters.context_switches += ctx_switches
            counters.preemptions += preemptions
        breakdown = self._energy
        for acc_point, energy in zip(self._acc_points, acc_energy):
            breakdown.add_execution(acc_point, energy)
        breakdown.idle = idle_energy
        self._final_deadline_check()
        result = SimResult(
            taskset=self.taskset,
            policy_name=getattr(self.policy, "name",
                                type(self.policy).__name__),
            scheduler_name=self._priority_name,
            duration=duration,
            energy=breakdown,
            jobs=jobs_log,
            misses=self._misses,
            switches=self._switches,
            trace=trace,
        )
        if obs is not None:
            obs.on_run_end(self, result)
        return result

    # ------------------------------------------------------------------
    # point changes / deadline accounting
    # ------------------------------------------------------------------
    def _slot_for(self, point) -> int:
        """Accumulation slot for ``point``, created on first use.

        Called at most once per operating-point switch (the hot loop
        caches the result), so the hash/index work happens off the
        per-segment path.  Slots are created in first-accumulation order,
        which is exactly the key insertion order of the engine's energy
        breakdown dict; value-equal points share a slot just as they
        share a dict key.  Points outside the machine table (a ``setup``
        return is not membership-checked, matching the engine) fall back
        to a value-keyed side map.
        """
        try:
            op_index = self.machine.index_of(point)
        except MachineError:
            slot = self._acc_off.get(point, -1)
            if slot < 0:
                slot = len(self._acc_energy)
                self._acc_off[point] = slot
                self._acc_points.append(point)
                self._acc_energy.append(0.0)
            return slot
        slot = self._acc_by_op[op_index]
        if slot < 0:
            slot = len(self._acc_energy)
            self._acc_by_op[op_index] = slot
            self._acc_points.append(point)
            self._acc_energy.append(0.0)
        return slot

    def _set_point(self, new_point) -> None:
        if new_point == self._point:
            return
        if new_point not in self.machine:
            raise SimulationError(
                f"policy requested {new_point}, which is not an operating "
                f"point of {self.machine.name}")
        old_point = self._point
        self._switches += 1
        self._point = new_point
        if self._obs_freq is not None:
            self._obs_freq(self, old_point, new_point)

    def _record_miss(self, job: Job) -> None:
        miss = DeadlineMiss(task_name=job.task.name,
                            release_time=job.release_time,
                            deadline=job.absolute_deadline,
                            demand=job.demand, executed=job.executed)
        self._misses.append(miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(job.task.name, job.release_time,
                                    job.absolute_deadline, self.time)

    def _final_deadline_check(self) -> None:
        """The engine's final check: flag every job whose deadline fell
        inside the run but never finished (pure Python, so the per-cell
        path never loads numpy)."""
        limit = self.duration + _EPS
        misses = self._misses
        for job, deadline in zip(self._jobs, self._jobs_deadline):
            if job.completion_time is None and deadline <= limit:
                already = any(m.task_name == job.task.name
                              and m.release_time == job.release_time
                              for m in misses)
                if not already:
                    self._record_miss(job)


def kernel_simulate(taskset: TaskSet, machine: Machine, policy,
                    **kwargs) -> SimResult:
    """One-shot wrapper: build a :class:`CellKernel` and run it.

    Accepts the :func:`repro.sim.engine.simulate` keywords inside the
    kernel envelope (``demand``, ``duration``, ``energy_model``,
    ``on_miss``, ``record_trace``, ``trace_backend``, ``scheduler``,
    ``instrument``) and returns a :class:`~repro.sim.results.SimResult`
    bit-identical to the engine's.  Callers should gate on
    :func:`kernel_supported` and fall back to the engine outside the
    envelope (:func:`batch_simulate` does both).
    """
    return CellKernel(taskset, machine, policy, **kwargs).run()


#: Keyword arguments the engine accepts but :class:`CellKernel` does not
#: spell out; they reach the kernel only with their default (supported)
#: values, so they are dropped rather than forwarded.
_ENGINE_ONLY_KWARGS = ("admissions", "enforce_wcet", "switching")


def batch_simulate(taskset: TaskSet, machine: Machine, policy,
                   params: Optional[tuple] = None, **kwargs) -> SimResult:
    """Simulate one run on the kernel, or on the event engine outside its
    envelope — the simulator behind every sweep cell.

    Drop-in compatible with :func:`repro.sim.engine.simulate` and
    bit-identical to it, exceptions included; ``params`` optionally
    supplies a column block's pre-flattened ``(periods, wcets)`` row.
    ``on_miss="continue"``, wakeup-timer policies, dynamic admissions,
    switch overheads and per-event instruments run on the engine.
    """
    if not kernel_supported(policy, **kwargs):
        return engine.simulate(taskset, machine, policy, **kwargs)
    kernel_kwargs = {key: value for key, value in kwargs.items()
                     if key not in _ENGINE_ONLY_KWARGS}
    return kernel_simulate(taskset, machine, policy, params=params,
                           **kernel_kwargs)
