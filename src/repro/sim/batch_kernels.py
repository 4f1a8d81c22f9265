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
(:func:`repro.analysis.sweep.run_cell`'s default): the
kernel inside its envelope, the event engine outside it.  The envelope
includes instruments that only need run-level observation — the
residency :class:`~repro.obs.metrics.MetricsCollector` — because the
kernel fires ``on_frequency_change``, ``on_run_start``/``on_run_end`` and
the ``counters`` tallies at the engine's exact points.

What the kernel removes is pure engine overhead: the lazily-invalidated
event heaps and their tuples, the ready-entry side table, the wakeup
cache churn, the per-event instrumentation pointer tests, the per-event
method-call chains, the per-release ``Job`` objects, and the repeated
``energy_per_cycle`` property evaluations (cached here per operating
point).  Release times, deadlines and trace demands do not depend on the
policy, so a cell's releases are laid out once as a release stream
(:func:`release_stream`): every release before the horizon in (time,
slot) order, kept with the cell's :func:`cell_params` row and walked
with a cursor by every kernel run of the cell.  Because the supported
modes (``on_miss`` "raise"/"drop") keep at most one live job per task,
the ready queue holds task indexes ("slots"): a heap of
``(deadline-or-period, slot)`` — the same total order as the engine's
heap keys, ties going to the lower task index.  Per-release state lives
in flat per-slot arrays, which laEDF and ccRM read directly through the
view's ``slot_*`` methods, plus one flat record per release from which
:class:`~repro.sim.results.SimResult` builds its ``jobs`` only when
read.  The main loop is deliberately one flat function: between two
release instants ("a window") it executes segments back to back without
re-deriving the release state the engine re-scans per event.

The kernel is pure Python: no path of the package imports numpy
(pinned by ``benchmarks/numpy_guard`` and
``tests/analysis/test_batch_engine.py``).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from repro.core.base import DVSPolicy
from repro.errors import (DeadlineMissError, MachineError, SimulationError,
                          TaskModelError)
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.model.demand import (DemandModel, TraceDemand, WorstCaseDemand,
                                demand_from_spec)
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

_INF = math.inf

#: Sort key of a release phase whose stream entries span two instants:
#: (slot, invocation), the engine's processing order.
_SLOT_ORDER = itemgetter(1, 2)


def numpy_backend():
    """Always ``None``: the package runs without numpy.

    Kept only because the repository benchmark's machine fingerprint
    (``perfbench/run.py``) imports it; it can go once that stops.
    """
    return None


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


class CellParams(NamedTuple):
    """One cell's ``params=`` row for :class:`CellKernel`, built once by
    :func:`cell_params` and shared by every kernel run of the cell.

    ``rows[i]`` holds task ``i``'s per-invocation demands already clipped
    to its WCET (the kernel's ``min(d, wcet)``), or ``None`` when the
    demand is not a :class:`~repro.model.demand.TraceDemand` or does not
    cover the task.  ``streams`` keeps the cell's release stream per
    horizon (:meth:`stream`), built by the first run that needs it.
    """

    periods: List[float]
    wcets: List[float]
    rows: Optional[List[Optional[List[float]]]]
    streams: Dict[float, tuple]

    def stream(self, duration: float) -> tuple:
        """The cell's :func:`release_stream` over ``[0, duration)``."""
        stream = self.streams.get(duration)
        if stream is None:
            stream = release_stream(self.periods, self.rows, duration)
            self.streams[duration] = stream
        return stream


def cell_params(taskset: TaskSet, demand) -> CellParams:
    """Flatten one cell's task set and demand into a :class:`CellParams`.

    A release past the end of a demand row asks the model, so fallback
    draws are still counted in ``fallback_draws``.
    """
    tasks = list(taskset)
    periods = [task.period for task in tasks]
    wcets = [task.wcet for task in tasks]
    rows: Optional[List[Optional[List[float]]]] = None
    if type(demand) is TraceDemand:
        rows = []
        for task in tasks:
            values = demand.trace.get(task.name)
            row = None
            if values is not None:
                cap = task.wcet
                row = [cap if value > cap else value for value in values]
            rows.append(row)
    return CellParams(periods, wcets, rows, {})


def release_stream(periods: Sequence[float],
                   rows: Optional[Sequence[Optional[Sequence[float]]]],
                   duration: float) -> tuple:
    """Every release a run over ``[0, duration)`` fires, in (time, slot)
    order: ``(entries, times)``.

    ``entries[k]`` is ``(release, slot, invocation, demand, deadline)``.
    Releases accumulate as the engine's do (``0, p, p+p, ...``: repeated
    addition, not ``k*p``, because accumulation order matters in floating
    point), and a release's deadline is its slot's next release.  ``demand`` is the row's pre-clipped value, or ``None`` past
    a row's end or without a row: the kernel then asks the demand model
    at that release, in every run.  ``times[k]`` is ``entries[k][0]``,
    and ``times`` ends with one sentinel: the first suppressed release
    (the earliest slot release at or past ``duration - _EPS``).  That is
    also the earliest deadline once every entry has been released.
    """
    edge = duration - _EPS
    entries = []
    suppressed = _INF
    for slot, period in enumerate(periods):
        row = rows[slot] if rows is not None else None
        covered = len(row) if row is not None else 0
        release = 0.0
        invocation = 0
        while release < edge:
            deadline = release + period
            entries.append((release, slot, invocation,
                            row[invocation] if invocation < covered
                            else None, deadline))
            release = deadline
            invocation += 1
        if release < suppressed:
            suppressed = release
    # (release, slot) is unique, so the sort never compares demands.
    entries.sort()
    times = [entry[0] for entry in entries]
    times.append(suppressed)
    return entries, times


# ---------------------------------------------------------------------------
# the per-cell kernel
# ---------------------------------------------------------------------------

class CellKernel(SchedulerView):
    """One cell's simulation state, flattened to per-task-index arrays.

    Implements the :class:`~repro.sim.engine.SchedulerView` protocol the
    policies read, over:

    * a cursor over the cell's :func:`release_stream`: a release phase
      takes the entries due by ``time + _EPS``, re-sorted to the
      engine's (slot, invocation) order when they span two instants;
      the time at the cursor is both the earliest deadline and the
      window's horizon;
    * a ready heap of ``(deadline or period, slot)`` holding every slot
      whose current job is ready (the supported miss modes never leave
      two live jobs of one task), so ties go to the lower task index,
      the engine's order;
    * the per-slot arrays of :meth:`slot_executed`,
      :meth:`slot_completed`, :meth:`slot_invocation` and
      :meth:`slot_deadline` — the current invocation's deadline persists
      after completion, exactly like the engine's lazily-invalidated
      deadline heap.  laEDF and ccRM index them directly.

    The kernel builds no :class:`~repro.model.job.Job` per release.  It
    appends one flat record per release (see
    :meth:`~repro.sim.results.SimResult.from_records`), and the result
    builds its ``jobs`` list from them only when read.  :meth:`job_of`
    (and so the base class's :meth:`current_jobs`) answers with a
    snapshot ``Job`` of the slot's current invocation.

    An ``instrument`` inside the envelope (:func:`instrument_supported`)
    sees what the engine would show it: ``on_run_start`` after the
    policy's ``setup``, ``on_frequency_change`` at each switch decision
    instant, context switches and preemptions tallied per segment into
    its ``counters`` and flushed once after the loop, and ``on_run_end``
    with the finished result, by which time ``busy_time`` and
    ``idle_time`` hold the run's totals.

    Task parameters may be supplied pre-flattened (``params=``, a
    :func:`cell_params` row) so every kernel run of a cell shares one
    materialization and one release stream per horizon; without
    ``params`` the run builds its own.
    """

    def __init__(self, taskset: TaskSet, machine: Machine, policy,
                 demand: Union[str, float, DemandModel, None] = None,
                 duration: Optional[float] = None,
                 energy_model: Optional[EnergyModel] = None,
                 on_miss: str = "raise",
                 record_trace: bool = False,
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
        n = len(tasks)
        self._tindex: Dict[str, int] = {t.name: i for i, t in
                                        enumerate(tasks)}
        if params is None:
            params = CellParams([t.period for t in tasks],
                                [t.wcet for t in tasks], None, {})
        self._params = params
        self._period = params.periods
        self._wcet = params.wcets

        # -- per-slot state of the current invocation (the view arrays) --
        self._executed = [0.0] * n
        self._completed = [True] * n  # no job yet: nothing outstanding
        self._invocation = [-1] * n
        self._deadline = [_INF] * n
        # The current invocation's release record (None before the first
        # release): [slot, index, release, demand, executed, completion].
        self._current: List[Optional[list]] = [None] * n
        self._earliest: Optional[float] = None

        # -- run accounting --
        self.time = 0.0
        self._records: List[list] = []
        self._misses: List[DeadlineMiss] = []
        self._energy = EnergyBreakdown()
        self._switches = 0
        self._point = machine.fastest
        self._trace = make_trace(record_trace)
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
        """A snapshot of ``task``'s current invocation (the kernel keeps
        no live ``Job``; policies that walk many tasks read the slot
        arrays instead)."""
        index = self._tindex.get(task.name)
        if index is None:
            return None
        current = self._current[index]
        if current is None:
            return None
        return Job(task=self._tasks[index], release_time=current[2],
                   demand=current[3], index=current[1],
                   executed=self._executed[index],
                   completion_time=current[5])

    def slot_executed(self) -> List[float]:
        return self._executed

    def slot_completed(self) -> List[bool]:
        return self._completed

    def slot_invocation(self) -> List[int]:
        return self._invocation

    def slot_deadline(self) -> List[float]:
        return self._deadline

    def earliest_deadline(self) -> Optional[float]:
        return self._earliest

    def executed_in_invocation(self, task: Task) -> float:
        # ccEDF reads this at every completion: skip the snapshot.
        index = self._tindex.get(task.name)
        return 0.0 if index is None else self._executed[index]

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
        attributes policies read through the view protocol (``time``, the
        earliest deadline and the per-slot arrays, mutated in place) are
        current at every point a policy can observe them (hook calls and
        miss handling).
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
        # A release record stands in for the engine's Job identity.
        counters = self._obs_counters
        track_ctx = counters is not None
        last_run: Optional[list] = None
        ctx_switches = 0
        preemptions = 0

        # -- hoist everything the hot loop touches --
        tasks = self._tasks
        names = [task.name for task in tasks]
        period = self._period
        wcet = self._wcet
        executed = self._executed
        completed = self._completed
        invocation = self._invocation
        deadline_of = self._deadline
        current = self._current
        duration = self.duration
        edge = duration - _EPS
        records = self._records
        trace = self._trace
        record = trace.record if trace is not None else None
        on_release = self._on_release
        on_completion = self._on_completion
        on_idle = self._on_idle
        invalidate = self._on_invalidate
        hooked = not (on_release is None and on_completion is None
                      and on_idle is None and invalidate is None)
        rm_keys = self._priority_name == "rm"

        model = self.demand_model
        demand_at = getattr(model, "demand_at", None)
        demand_of = model.demand
        stream, times = self._params.stream(duration)
        count = len(stream)
        cursor = 0

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
        # Table index of the current point object (-1 for an object
        # outside the machine table, which only ``setup`` can return).
        # Switches are decided by these indexes, not by OperatingPoint
        # equality and hashing (see :meth:`_switch`).
        self._op_of = {id(table_point): index for index, table_point
                       in enumerate(self.machine.points)}
        op = self._op_of.get(id(point), -1)

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

        # Ready queue: the priority key of every ready slot's current job;
        # ties on the key go to the lower slot, the engine's
        # task-set-order tie-break.
        ready_heap: List[tuple] = []

        time = 0.0

        while True:
            # ---- release phase (engine: fixed point over due releases;
            # one extra scan confirms quiescence) ----
            limit = time + _EPS
            if cursor < count and times[cursor] <= limit:
                start = cursor
                cursor += 1
                while cursor < count and times[cursor] <= limit:
                    cursor += 1
                phase = stream[start:cursor]
                if times[cursor - 1] != times[start]:
                    # Releases less than _EPS apart: the engine takes the
                    # phase in task-set order, a slot's catch-up
                    # releases back to back.
                    phase.sort(key=_SLOT_ORDER)
                released_tasks: List[Task] = []
                zero_tasks: List[Task] = []
                for release_time, i, inv, demand, deadline in phase:
                    old = current[i]
                    if old is not None:
                        if not completed[i]:
                            self.time = time
                            self._record_miss(  # raises in raise mode
                                names[i], old[2], deadline_of[i],
                                old[3], executed[i])
                            # Drop mode: the late job leaves the ready
                            # queue (an unfinished job is always in it).
                            ready_heap.remove(
                                (period[i] if rm_keys else deadline_of[i],
                                 i))
                            heapify(ready_heap)
                        old[4] = executed[i]
                    task = tasks[i]
                    if demand is None:
                        if demand_at is not None:
                            demand = demand_at(task, inv, release_time)
                        else:
                            demand = demand_of(task, inv)
                        cap = wcet[i]
                        if demand > cap:  # enforce_wcet: min(d, wcet)
                            demand = cap
                        if demand < 0:
                            raise TaskModelError(
                                "job demand must be non-negative, got "
                                f"{demand}")
                    deadline_of[i] = deadline
                    invocation[i] = inv
                    executed[i] = 0.0
                    released_tasks.append(task)
                    if demand > _EPS:
                        completed[i] = False
                        current[i] = rec = [i, inv, release_time, demand,
                                            0.0, None]
                        heappush(ready_heap,
                                 (period[i] if rm_keys else deadline, i))
                    else:
                        # Engine's zero-demand pass: completes at the
                        # current time without ever becoming ready.
                        completed[i] = True
                        current[i] = rec = [i, inv, release_time, demand,
                                            0.0, time]
                        zero_tasks.append(task)
                    records.append(rec)
                if hooked:
                    # Every slot has released by now and its deadline is
                    # its next release, so the earliest deadline is the
                    # next stream time (the sentinel past the last entry).
                    self._earliest = times[cursor]
                if invalidate is not None:
                    self.time = time
                    invalidate(self, released_tasks)
                if on_release is not None:
                    self.time = time
                    for task in released_tasks:
                        new_point = on_release(self, task)
                        if new_point is not None and new_point is not point:
                            new_op = self._switch(point, op, new_point)
                            if new_op is not None:
                                point, op = new_point, new_op
                                frequency = point.frequency
                                epc = point.energy_per_cycle
                                slot = -1
                if on_completion is not None and zero_tasks:
                    self.time = time
                    for task in zero_tasks:
                        new_point = on_completion(self, task)
                        if new_point is not None and new_point is not point:
                            new_op = self._switch(point, op, new_point)
                            if new_op is not None:
                                point, op = new_point, new_op
                                frequency = point.frequency
                                epc = point.energy_per_cycle
                                slot = -1
                # No quiescence re-scan: the phase took every stream
                # entry due by ``limit``, and hooks never touch the
                # release state, so the engine's fixed-point iteration
                # is provably a single pass here.

            # ---- duration edge (the engine checks after releases) ----
            if time >= edge:
                break

            # ---- one window: [time, next release instant) ----
            horizon_raw = times[cursor]
            horizon = horizon_raw if horizon_raw < duration else duration
            if horizon <= limit:
                # Suppressed at-the-edge release coinciding with the
                # current instant; the engine makes no progress here
                # either (it re-enters its event scan).
                continue
            while True:
                if not ready_heap:
                    # Idle to the horizon.  The idle hook may retune
                    # first (ccEDF drops to the slowest point).
                    if on_idle is not None:
                        self.time = time
                        new_point = on_idle(self)
                        if new_point is not None and new_point is not point:
                            new_op = self._switch(point, op, new_point)
                            if new_op is not None:
                                point, op = new_point, new_op
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
                best = ready_heap[0][1]
                run = current[best]
                if track_ctx and run is not last_run:
                    ctx_switches += 1
                    if last_run is not None and last_run[5] is None:
                        preemptions += 1
                    last_run = run
                demand = run[3]
                remaining = demand - executed[best]
                if remaining < 0.0:
                    remaining = 0.0
                completion_time = time + remaining / frequency
                if completion_time <= horizon + _EPS:
                    energy = scale * remaining * epc
                    if slot < 0:
                        slot = self._slot_for(point, op)
                    acc_energy[slot] += energy
                    busy_time += completion_time - time
                    executed[best] = demand  # absorb float residue
                    completed[best] = True
                    run[5] = completion_time
                    heappop(ready_heap)
                    if record is not None:
                        record(time, completion_time, names[best], point,
                               remaining, energy, "run")
                    time = completion_time
                    if on_completion is not None:
                        self.time = time
                        new_point = on_completion(self, tasks[best])
                        if new_point is not None and new_point is not point:
                            new_op = self._switch(point, op, new_point)
                            if new_op is not None:
                                point, op = new_point, new_op
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
                        slot = self._slot_for(point, op)
                    acc_energy[slot] += energy
                    busy_time += horizon - time
                    executed[best] += cycles
                    if record is not None:
                        record(time, horizon, names[best], point, cycles,
                               energy, "run")
                    time = horizon
                    break

        # ---- wind down ----
        self.time = time
        self._point = point
        self._busy_time = busy_time
        self._idle_time = idle_time
        for i, rec in enumerate(current):
            if rec is not None:
                rec[4] = executed[i]
        if track_ctx:
            counters.context_switches += ctx_switches
            counters.preemptions += preemptions
        breakdown = self._energy
        for acc_point, energy in zip(self._acc_points, acc_energy):
            breakdown.add_execution(acc_point, energy)
        breakdown.idle = idle_energy
        self._final_deadline_check()
        result = SimResult.from_records(
            tasks, records,
            taskset=self.taskset,
            policy_name=getattr(self.policy, "name",
                                type(self.policy).__name__),
            scheduler_name=self._priority_name,
            duration=duration,
            energy=breakdown,
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
    def _slot_for(self, point, op: int) -> int:
        """Accumulation slot for ``point`` (table index ``op``, or -1 for
        an object outside the table), created on first use.

        Called at most once per operating-point switch (the hot loop
        caches the result).  Slots are created in first-accumulation
        order, which is exactly the key insertion order of the engine's
        energy breakdown dict; value-equal points share a slot just as
        they share a dict key.  A point object outside the machine table
        (a ``setup`` return is not membership-checked, matching the
        engine) is matched by value: to its table row if it equals one,
        else to a value-keyed side map.
        """
        if op < 0:
            try:
                op = self.machine.index_of(point)
            except MachineError:
                slot = self._acc_off.get(point, -1)
                if slot < 0:
                    slot = len(self._acc_energy)
                    self._acc_off[point] = slot
                    self._acc_points.append(point)
                    self._acc_energy.append(0.0)
                return slot
        slot = self._acc_by_op[op]
        if slot < 0:
            slot = len(self._acc_energy)
            self._acc_by_op[op] = slot
            self._acc_points.append(point)
            self._acc_energy.append(0.0)
        return slot

    def _switch(self, old_point, old_op: int, new_point) -> Optional[int]:
        """Switch from ``old_point`` (table index ``old_op``) to
        ``new_point``, a different object; returns ``new_point``'s table
        index, or ``None`` when the two are equal (no switch).

        Two table objects are different points (the table has no
        duplicate frequencies), so between them this is an index lookup.
        An object outside the table on either side is compared by value,
        as the engine does, and a new point must equal a table row.
        """
        op = self._op_of.get(id(new_point), -1)
        if op < 0 or old_op < 0:
            if new_point == old_point:
                return None
            if op < 0 and new_point not in self.machine:
                raise SimulationError(
                    f"policy requested {new_point}, which is not an "
                    f"operating point of {self.machine.name}")
        self._switches += 1
        self._point = new_point
        if self._obs_freq is not None:
            self._obs_freq(self, old_point, new_point)
        return op

    def _record_miss(self, name: str, release_time: float,
                     deadline: float, demand: float,
                     executed: float) -> None:
        miss = DeadlineMiss(task_name=name, release_time=release_time,
                            deadline=deadline, demand=demand,
                            executed=executed)
        self._misses.append(miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(name, release_time, deadline, self.time)

    def _final_deadline_check(self) -> None:
        """The engine's final check: flag every job whose deadline fell
        inside the run but never finished."""
        limit = self.duration + _EPS
        misses = self._misses
        period = self._period
        for slot, _, release, demand, executed, completion in self._records:
            if completion is not None:
                continue
            deadline = release + period[slot]
            if deadline <= limit:
                name = self._tasks[slot].name
                already = any(m.task_name == name
                              and m.release_time == release
                              for m in misses)
                if not already:
                    self._record_miss(name, release, deadline, demand,
                                      executed)


def kernel_simulate(taskset: TaskSet, machine: Machine, policy,
                    **kwargs) -> SimResult:
    """One-shot wrapper: build a :class:`CellKernel` and run it.

    Accepts the :func:`repro.sim.engine.simulate` keywords inside the
    kernel envelope (``demand``, ``duration``, ``energy_model``,
    ``on_miss``, ``record_trace``, ``scheduler``, ``instrument``) and
    returns a :class:`~repro.sim.results.SimResult`
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
    supplies a cell's :func:`cell_params` row, shared with its other runs.
    ``on_miss="continue"``, wakeup-timer policies, dynamic admissions,
    switch overheads and per-event instruments run on the engine.
    """
    if not kernel_supported(policy, **kwargs):
        return engine.simulate(taskset, machine, policy, **kwargs)
    kernel_kwargs = {key: value for key, value in kwargs.items()
                     if key not in _ENGINE_ONLY_KWARGS}
    return kernel_simulate(taskset, machine, policy, params=params,
                           **kernel_kwargs)
