"""Cycle-conserving RM (Sec. 2.4, Figs. 5 and 6).

The idea: the statically-scaled RM schedule meets all deadlines even in the
worst case.  ccRM therefore only needs to make *equal or better progress*
than that worst-case schedule would by the next deadline in the system.
Until the next deadline ``D``, the statically-scaled schedule (frequency
``f_ss``) can execute ``s_j = f_ss · (D − t_alloc)`` cycles; those cycles
are granted to tasks in RM priority order (``allocate_cycles``), giving
each task a quota ``d_i``.  Running fast enough to drain ``Σd_i`` by ``D``
keeps pace.  Early completions zero the completing task's quota, letting
the frequency drop.

The paper's pseudo-code (Fig. 6)::

    assume f_ss is frequency set by the static scaling algorithm

    select_frequency():
        set s_m = max_cycles_until_next_deadline()
        use lowest freq. f_i such that (d_1 + ... + d_n)/s_m <= f_i/f_m

    upon task_release(T_i):
        set c_left_i = C_i
        set s_m = max_cycles_until_next_deadline()
        set s_j = s_m * f_ss / f_m
        allocate_cycles(s_j)
        select_frequency()

    upon task_completion(T_i):
        set c_left_i = 0
        set d_i = 0
        select_frequency()

    during task_execution(T_i):
        decrement c_left_i and d_i

    allocate_cycles(k):
        for i = 1 to n, T_i in order of period:
            if c_left_i < k:  set d_i = c_left_i ; k = k - c_left_i
            else:             set d_i = k        ; k = 0

The "during task_execution" decrements are realized lazily: at each
selection point the quota is reduced by the cycles the task executed since
the last allocation (the engine exposes per-invocation executed cycles).

Maintained state
----------------
Two aggregates are maintained instead of recomputed, both as task-set
slots (indexes) so every walk reads the view's per-slot arrays
(:meth:`~repro.sim.engine.SchedulerView.slot_executed`,
:meth:`~repro.sim.engine.SchedulerView.slot_completed` and
:meth:`~repro.sim.engine.SchedulerView.slot_invocation`) directly instead
of resolving ``Task`` objects one call at a time:

* **RM priority order** — ``allocate_cycles`` walks tasks by period.  The
  sorted order only changes when the task set changes, so it is cached
  as ``(slot, quota)`` pairs (plus each slot's WCET) and invalidated by
  the task-set hooks
  (guarded by a task-set identity check, since
  :class:`~repro.model.task.TaskSet` is immutable).
* **Active quota set** — ``select_frequency`` needs ``Σd_i``, but between
  allocations only tasks that were granted a non-zero allotment can
  contribute: every other task's lazily-decremented quota is *exactly*
  ``0.0`` (``max(0.0, …)`` of a non-positive value).  Each allocation
  records the granted ``(slot, quota)`` pairs in task-set order; the
  selection sums just those.  Skipping exact zeros from a left-to-right
  sum of non-negative floats leaves every partial sum bitwise unchanged
  (``x + 0.0 == x`` for ``x >= 0.0``), so the reduced sum is
  bit-identical to the full sweep — pinned by the differential tests
  against a from-scratch oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.base import DVSPolicy
from repro.core.static_scaling import StaticRM
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task


@dataclass
class _Quota:
    """One task's cycle allotment ``d_i`` plus the execution snapshot that
    lets us decrement it lazily."""

    allotted: float = 0.0
    executed_at_alloc: float = 0.0
    invocation: int = -1
    completed: bool = False


class CycleConservingRM(DVSPolicy):
    """Cycle-conserving RT-DVS for RM schedulers (``ccRM``).

    Parameters
    ----------
    exact_rm_test:
        Which RM test the embedded static-scaling step uses (see
        :class:`~repro.core.static_scaling.StaticRM`).
    """

    name = "ccRM"
    scheduler = "rm"

    def __init__(self, exact_rm_test: bool = True):
        self._static = StaticRM(exact=exact_rm_test)
        self._static_frequency = 1.0
        self._quota: Dict[str, _Quota] = {}
        self._rm_pairs: Tuple[Tuple[int, _Quota], ...] = ()
        self._wcets: List[float] = []  # by slot, cached with the pairs
        self._rm_pairs_for: object = None  # taskset the cache was built for
        self._active: List[Tuple[int, _Quota]] = []

    def setup(self, view) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota = {task.name: _Quota() for task in view.taskset}
        self._rm_pairs_for = None
        self._active = []
        # No jobs exist yet; the t=0 releases will allocate immediately.
        return view.machine.slowest

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        self._allocate(view)
        return self._select(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        quota = self._quota.get(task.name)
        if quota is None:
            quota = self._quota[task.name] = _Quota()
        quota.completed = True
        return self._select(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        # Re-derive the static frequency for the enlarged set, then re-pace.
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota.setdefault(task.name, _Quota())
        self._allocate(view)
        return self._select(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._quota.pop(task.name, None)
        self._allocate(view)
        return self._select(view)

    # ------------------------------------------------------------------
    def _rm_sorted_pairs(self, view) -> Tuple[Tuple[int, _Quota], ...]:
        """``(slot, quota)`` pairs by period (RM priority; a stable sort,
        so equal periods keep task-set order).  The task set is
        immutable, so the pairs are cached until the set itself is
        replaced."""
        taskset = view.taskset
        if self._rm_pairs_for is not taskset:
            tasks = list(taskset)
            order = sorted(range(len(tasks)),
                           key=lambda slot: tasks[slot].period)
            self._rm_pairs = tuple(
                (slot, self._quota.setdefault(tasks[slot].name, _Quota()))
                for slot in order)
            self._wcets = [task.wcet for task in tasks]
            self._rm_pairs_for = taskset
        return self._rm_pairs

    def _allocate(self, view) -> None:
        """``allocate_cycles``: split the statically-scaled capacity until
        the next deadline among tasks in RM priority order."""
        deadline = view.earliest_deadline()
        if deadline is None:
            return
        budget = max(0.0, (deadline - view.time) * self._static_frequency)
        pairs = self._rm_sorted_pairs(view)
        wcets = self._wcets
        executed = view.slot_executed()
        completed = view.slot_completed()
        invocation = view.slot_invocation()
        # Tasks that would be granted exactly 0.0 cycles keep their
        # *stale* snapshot — provably harmless, because a zero allotment
        # yields a zero current quota under any snapshot (executed
        # cycles never shrink within an invocation and invocation indexes
        # never repeat).  Only genuinely-granted tasks pay the snapshot
        # refresh.
        granted: List[Tuple[int, _Quota]] = []
        for slot, quota in pairs:
            if budget <= 0.0:
                # Capacity exhausted: every remaining allotment is exactly
                # 0.0 (``min(c_left, 0.0)``).
                quota.allotted = 0.0
                continue
            if completed[slot]:
                # No outstanding invocation: ``worst_case_remaining`` is
                # exactly 0.0, so the allotment is exactly 0.0.  In steady
                # state this covers nearly every non-running task.
                quota.allotted = 0.0
                continue
            # c_left and the snapshot come from the same invocation
            # (bitwise what Job.worst_case_remaining and Job.executed
            # return).
            done = executed[slot]
            left = wcets[slot] - done
            c_left = left if left > 0.0 else 0.0
            quota.invocation = invocation[slot]
            quota.executed_at_alloc = done
            quota.completed = False
            # min(c_left, budget), spelled as a comparison.
            grant = budget if budget < c_left else c_left
            quota.allotted = grant
            budget -= grant
            if grant > 0.0:
                granted.append((slot, quota))
        # Tasks granted nothing contribute an exact 0.0 to every later
        # quota sum (see module docstring); record the rest, in task-set
        # order so the reduced sum matches the full sweep.  The granted
        # list is tiny (bounded by the budget), so re-ordering it beats a
        # full task-set pass.
        granted.sort(key=itemgetter(0))
        self._active = granted

    def _select(self, view) -> OperatingPoint:
        """``select_frequency``: pace the outstanding quotas over the time
        left until the next deadline."""
        deadline = view.earliest_deadline()
        if deadline is None:
            return view.machine.slowest
        s_m = deadline - view.time  # cycles at max frequency until deadline
        if s_m <= 1e-12:
            return view.machine.fastest
        executed = view.slot_executed()
        completed = view.slot_completed()
        invocation = view.slot_invocation()
        total = 0.0
        for slot, quota in self._active:
            # ``d_i`` right now: the allotment minus cycles executed since
            # the allocation; zero once the invocation completes.
            if quota.completed:
                continue  # contributes an exact 0.0
            if completed[slot] or invocation[slot] != quota.invocation:
                continue
            executed_since = executed[slot] - quota.executed_at_alloc
            left = quota.allotted - executed_since
            total += left if left > 0.0 else 0.0  # max(0.0, left)
        return view.machine.lowest_at_least(min(1.0, total / s_m))

    @property
    def static_frequency(self) -> float:
        """The statically-scaled RM frequency ``f_ss`` used for pacing."""
        return self._static_frequency
