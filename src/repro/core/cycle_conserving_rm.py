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
Every quota lives in flat per-slot lists (indexed by task-set position,
like the view's per-slot arrays
:meth:`~repro.sim.engine.SchedulerView.slot_executed`,
:meth:`~repro.sim.engine.SchedulerView.slot_completed` and
:meth:`~repro.sim.engine.SchedulerView.slot_invocation`, which every
walk reads directly instead of resolving ``Task`` objects one call at a
time): the allotment ``d_i``, and the executed cycles and invocation
index snapshotted when it was granted.  Two aggregates are maintained
instead of recomputed:

* **RM priority order** — ``allocate_cycles`` walks tasks by period.  The
  sorted order only changes when the task set changes, so it is cached
  as a tuple of slots and invalidated by the task-set hooks (guarded by
  a task-set identity check, since :class:`~repro.model.task.TaskSet` is
  immutable), which carry every quota over to its task's new slot.
* **Active quota set** — ``select_frequency`` needs ``Σd_i``, but only
  tasks granted a non-zero allotment by the last allocation can
  contribute: every other allotment is held at exactly ``0.0`` (each
  allocation first zeroes the previous grants, and a completion zeroes
  its task's allotment, the paper's ``set d_i = 0``), and a zero
  allotment's lazily-decremented quota is exactly ``0.0``
  (``max(0.0, …)`` of a non-positive value).  Each allocation records
  the granted slots in task-set order and stops at the first task that
  exhausts the budget; the selection sums just those.  Skipping exact
  zeros from a left-to-right sum of non-negative floats leaves every
  partial sum bitwise unchanged (``x + 0.0 == x`` for ``x >= 0.0``), so
  the reduced sum is bit-identical to the full sweep — pinned by the
  differential tests against a from-scratch oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import DVSPolicy
from repro.core.static_scaling import StaticRM
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task


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
        # Per-slot quota state of the task set ``_for``: the allotment
        # d_i and the (executed cycles, invocation) snapshot it was
        # granted against.
        self._for: object = None
        self._slot_of: Dict[str, int] = {}
        self._allotted: List[float] = []
        self._at_alloc: List[float] = []
        self._inv_at_alloc: List[int] = []
        self._wcets: List[float] = []
        self._rm_order: Tuple[int, ...] = ()
        self._active: List[int] = []  # granted slots, task-set order

    def setup(self, view) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        self._for = None
        self._slot_of = {}
        self._active = []
        self._slots(view)
        # No jobs exist yet; the t=0 releases will allocate immediately.
        return view.machine.slowest

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        return self._allocate(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        slot = self._slot_of.get(task.name)
        if slot is not None:
            self._allotted[slot] = 0.0  # d_i = 0
        return self._select(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        # Re-derive the static frequency for the enlarged set, then re-pace.
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        return self._allocate(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        static_point = self._static.select_point(view.taskset, view.machine)
        self._static_frequency = static_point.frequency
        return self._allocate(view)

    # ------------------------------------------------------------------
    def _slots(self, view) -> Tuple[int, ...]:
        """The RM order as slots (by period; a stable sort, so equal
        periods keep task-set order).  The task set is immutable, so the
        order and the per-slot lists are rebuilt only when the set itself
        is replaced; each task carries its quota to its new slot, and a
        new task starts with none."""
        taskset = view.taskset
        if self._for is not taskset:
            tasks = list(taskset)
            old = self._slot_of
            moved = [old.get(task.name) for task in tasks]
            self._allotted = [0.0 if was is None else self._allotted[was]
                              for was in moved]
            self._at_alloc = [0.0 if was is None else self._at_alloc[was]
                              for was in moved]
            self._inv_at_alloc = [-1 if was is None
                                  else self._inv_at_alloc[was]
                                  for was in moved]
            self._active = [slot for slot, was in enumerate(moved)
                            if was is not None and was in self._active]
            self._slot_of = {task.name: slot for slot, task in
                             enumerate(tasks)}
            self._wcets = [task.wcet for task in tasks]
            self._rm_order = tuple(sorted(range(len(tasks)),
                                          key=lambda slot:
                                          tasks[slot].period))
            self._for = taskset
        return self._rm_order

    def _allocate(self, view) -> OperatingPoint:
        """``allocate_cycles`` then ``select_frequency``: split the
        statically-scaled capacity until the next deadline among tasks in
        RM priority order, and pace the new quotas."""
        order = self._slots(view)
        deadline = view.earliest_deadline()
        if deadline is None:
            return view.machine.slowest
        budget = max(0.0, (deadline - view.time) * self._static_frequency)
        allotted = self._allotted
        for slot in self._active:
            allotted[slot] = 0.0
        granted: List[int] = []
        if budget > 0.0:
            wcets = self._wcets
            at_alloc = self._at_alloc
            inv_at_alloc = self._inv_at_alloc
            executed = view.slot_executed()
            completed = view.slot_completed()
            invocation = view.slot_invocation()
            for slot in order:
                if completed[slot]:
                    # No outstanding invocation: ``worst_case_remaining``
                    # is exactly 0.0, so the allotment is exactly 0.0.  In
                    # steady state this covers nearly every non-running
                    # task.
                    continue
                # c_left and the snapshot come from the same invocation
                # (bitwise what Job.worst_case_remaining and Job.executed
                # return).
                done = executed[slot]
                c_left = wcets[slot] - done
                if c_left <= 0.0:
                    continue  # grants exactly 0.0
                at_alloc[slot] = done
                inv_at_alloc[slot] = invocation[slot]
                granted.append(slot)
                if budget <= c_left:
                    # min(c_left, budget) exhausts the budget: every later
                    # allotment is exactly 0.0 (``min(c_left, 0.0)``).
                    allotted[slot] = budget
                    break
                allotted[slot] = c_left
                budget -= c_left
            # Only granted tasks can contribute to a later quota sum (see
            # the module docstring); keep them in task-set order so the
            # reduced sum matches the full sweep.  The list is tiny
            # (bounded by the budget), so sorting it beats a full pass.
            granted.sort()
        self._active = granted
        s_m = deadline - view.time
        if s_m <= 1e-12:
            return view.machine.fastest
        # ``_select`` right after the allocation: nothing has executed
        # since the snapshots, so each granted quota is its allotment
        # (``allotted - 0.0``), summed in task-set order.
        total = 0.0
        for slot in granted:
            total += allotted[slot]
        return view.machine.lowest_at_least(min(1.0, total / s_m))

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
        allotted = self._allotted
        at_alloc = self._at_alloc
        inv_at_alloc = self._inv_at_alloc
        total = 0.0
        for slot in self._active:
            # ``d_i`` right now: the allotment minus cycles executed since
            # the allocation; zero once the invocation completes.
            if completed[slot] or invocation[slot] != inv_at_alloc[slot]:
                continue  # contributes an exact 0.0
            left = allotted[slot] - (executed[slot] - at_alloc[slot])
            total += left if left > 0.0 else 0.0  # max(0.0, left)
        return view.machine.lowest_at_least(min(1.0, total / s_m))

    @property
    def static_frequency(self) -> float:
        """The statically-scaled RM frequency ``f_ss`` used for pacing."""
        return self._static_frequency
