"""Look-ahead EDF (Sec. 2.5, Figs. 7 and 8).

The most aggressive RT-DVS algorithm: defer as much work as possible past
the earliest deadline in the system, and run just fast enough to finish the
work that *cannot* be deferred.  If tasks keep finishing early, the deferred
peak never materializes and the processor stays slow.

The paper's pseudo-code (Fig. 8)::

    select_frequency(x):
        use lowest freq. f_i such that x <= f_i / f_m

    upon task_release(T_i):   set c_left_i = C_i ; defer()
    upon task_completion(T_i): set c_left_i = 0  ; defer()
    during task_execution(T_i): decrement c_left_i

    defer():
        set U = C_1/P_1 + ... + C_n/P_n
        set s = 0
        for i = 1 to n, T_i in reverse EDF order (latest deadline first):
            set U = U - C_i/P_i
            set x = max(0, c_left_i - (1 - U)(D_i - D_n))
            set U = U + (c_left_i - x)/(D_i - D_n)
            set s = s + x
        select_frequency(s / (D_n - current_time))

where ``D_n`` is the earliest deadline in the system.  Walking tasks from
the latest deadline backwards, each task may push work into its window
beyond ``D_n`` only up to the capacity ``(1 - U)`` left after reserving the
worst-case utilization of all earlier-deadline tasks (their future
invocations); whatever does not fit (``x``) must execute before ``D_n``.

``c_left_i`` is tracked by the engine (worst-case remaining cycles of the
current invocation); tasks admitted but not yet released have no deadline
and simply keep their full worst-case utilization reserved in ``U``.

Maintained order
----------------
``defer()`` is inherently O(n), but re-deriving the reverse-EDF order
from scratch costs an additional O(n log n) sort per event.  A task's
current deadline changes *only at its own release*, so the order is
maintained instead: a sorted key list (``(-deadline, -slot)`` ascending,
where ``slot`` is the task-set index — exactly a descending
``(deadline, index)`` sort) repositions one entry per release via
``bisect``.  Parallel lists hold each position's slot, deadline, WCET and
worst-case utilization, and the task-set utilization sum is cached (the
task set only changes through the add/remove hooks, which rebuild
everything).  The walk derives every ``c_left`` from the view's per-slot
arrays (:meth:`~repro.sim.engine.SchedulerView.slot_executed` and
:meth:`~repro.sim.engine.SchedulerView.slot_completed`), indexed by the
stored slots, so no callback maps a ``Task`` back to its job.  Every
float read in the walk — deadlines, utilizations, the starting ``U``,
each ``c_left`` — is the identical bit pattern a from-scratch walk
derives, so the selected operating points match bit-for-bit; the
differential tests pin this against a from-scratch oracle on full
simulations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.base import DVSPolicy
from repro.errors import SchedulabilityError
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task


class LookAheadEDF(DVSPolicy):
    """Look-ahead RT-DVS for EDF schedulers (``laEDF``).

    Parameters
    ----------
    strict:
        The deferral calculation can demand more than the full-speed
        capacity of the processor (``s / (D_n - now) > 1``) when work is
        injected late — e.g. a non-deferred dynamic admission close to the
        earliest deadline in the system (the transient the paper's Sec. 4.3
        deferral recipe exists to avoid).  Running at ``f_max`` is then the
        best the machine can do, but the deferred work *cannot* finish by
        ``D_n`` and a deadline miss is already unavoidable.  With
        ``strict=True`` such an instant raises
        :class:`~repro.errors.SchedulabilityError` immediately; by default
        the policy clamps to ``f_max`` and counts the instant in
        :attr:`over_unity_events` so callers can detect the overload
        instead of it being silently swallowed.

    Attributes
    ----------
    over_unity_events:
        Number of deferral instants during the last run whose required
        speed exceeded 1 (reset by ``setup``).
    """

    name = "laEDF"
    scheduler = "edf"

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.over_unity_events = 0
        # Maintained reverse-EDF order: ascending (-deadline, -slot) keys
        # with parallel slot/deadline/WCET/utilization lists, spliced in
        # lock-step so the walk reads plain list entries.  Tasks without
        # a current job have no position (``_key_of[slot] is None``) and
        # contribute nothing to the walk.
        self._keys: List[Tuple[float, int]] = []
        self._slots: List[int] = []
        self._deadlines: List[float] = []
        self._utils: List[float] = []
        self._wcets: List[float] = []
        self._key_of: List[Optional[Tuple[float, int]]] = []
        self._index_of: Dict[str, int] = {}
        self._util_of: List[float] = []
        self._wcet_of: List[float] = []
        self._total_util = 0.0

    def setup(self, view) -> Optional[OperatingPoint]:
        if view.taskset.utilization > 1.0 + 1e-9:
            raise SchedulabilityError(
                f"task set utilization {view.taskset.utilization:.3f} > 1; "
                "not EDF-schedulable at any frequency")
        self.over_unity_events = 0
        self._rebuild(view)
        # Nothing is released yet; start at the bottom — the t=0 releases
        # immediately re-run defer().
        return view.machine.slowest

    def on_releases_invalidate(self, view, tasks) -> None:
        # The engine creates every job of a same-instant batch before the
        # first per-task hook fires, so the view is already "ahead" of the
        # maintained order; reposition the whole batch now or the batch's
        # intermediate deferrals read stale deadlines (observable as
        # spurious same-instant operating-point switches vs from-scratch).
        for task in tasks:
            self._reposition(view, task)

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        # No-op when the batch hook already repositioned this task; kept
        # for direct hook-level driving outside the engine.
        self._reposition(view, task)
        return self._defer(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        # A completion leaves the task's current deadline (and hence the
        # deferral order) untouched; only c_left drops to zero.
        return self._defer(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        self._rebuild(view)  # task-set change: rare, rebuild wholesale
        return self._defer(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        self._rebuild(view)  # slots of later tasks shift
        return self._defer(view)

    # ------------------------------------------------------------------
    # maintained order
    # ------------------------------------------------------------------
    def _rebuild(self, view) -> None:
        """Reconstruct every cached aggregate from the view (used at setup
        and on task-set changes; the per-release path is ``_reposition``)."""
        taskset = view.taskset
        self._index_of = {task.name: slot for slot, task in
                          enumerate(taskset)}
        self._util_of = [task.utilization for task in taskset]
        self._wcet_of = [task.wcet for task in taskset]
        # Bitwise-identical to TaskSet.utilization (same terms, same order).
        self._total_util = sum(self._util_of)
        # Negating a stored key recovers the exact deadline bit pattern
        # and slot (float negation is sign-flip only).
        self._keys = sorted(
            (-deadline, -slot)
            for slot, deadline in enumerate(view.slot_deadline())
            if deadline != math.inf)  # inf: no job yet
        self._slots = [-key[1] for key in self._keys]
        self._deadlines = [-key[0] for key in self._keys]
        self._utils = [self._util_of[slot] for slot in self._slots]
        self._wcets = [self._wcet_of[slot] for slot in self._slots]
        self._key_of = [None] * len(self._util_of)
        for key, slot in zip(self._keys, self._slots):
            self._key_of[slot] = key

    def _reposition(self, view, task: Task) -> None:
        """Move ``task`` to the position of its newly-released deadline.
        O(log n) search + one list splice."""
        slot = self._index_of.get(task.name)
        if slot is None:  # task unknown (hook order surprise): resync
            self._rebuild(view)
            return
        deadline = view.slot_deadline()[slot]
        if deadline == math.inf:  # defensive: release without a job
            return
        key = (-deadline, -slot)
        old = self._key_of[slot]
        if old is not None:
            if old == key:
                return
            pos = bisect_left(self._keys, old)
            self._keys.pop(pos)
            self._slots.pop(pos)
            self._deadlines.pop(pos)
            self._utils.pop(pos)
            self._wcets.pop(pos)
        pos = bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._slots.insert(pos, slot)
        self._deadlines.insert(pos, deadline)
        self._utils.insert(pos, self._util_of[slot])
        self._wcets.insert(pos, self._wcet_of[slot])
        self._key_of[slot] = key

    # ------------------------------------------------------------------
    def _defer(self, view) -> OperatingPoint:
        """The deferral calculation; returns the selected operating point."""
        now = view.time
        earliest = view.earliest_deadline()
        if earliest is None or earliest <= now + 1e-12:
            return view.machine.slowest
        executed = view.slot_executed()
        completed = view.slot_completed()
        utilization = self._total_util
        must_run = 0.0  # `s`: cycles that must execute before `earliest`
        for slot, deadline, util, wcet in zip(self._slots, self._deadlines,
                                              self._utils, self._wcets):
            utilization -= util
            if completed[slot]:
                # Done, or no job yet: c_left = 0, so nothing is deferred
                # and the steps below add exact zeros — skip them.
                continue
            left = wcet - executed[slot]  # Job.worst_case_remaining
            c_left = left if left > 0.0 else 0.0
            span = deadline - earliest
            if span <= 1e-12:
                # This task's deadline *is* the earliest: nothing can be
                # deferred.
                deferred = 0.0
            else:
                # max(0.0, 1.0 - U) * span and min(c_left, capacity),
                # spelled as comparisons (same selected operands).
                free = 1.0 - utilization
                capacity = (free if free > 0.0 else 0.0) * span
                deferred = capacity if capacity < c_left else c_left
                utilization += deferred / span
            must_run += c_left - deferred
        speed = must_run / (earliest - now)
        if speed > 1.0 + 1e-9:
            # Even f_max cannot finish the non-deferrable work by the
            # earliest deadline: an unavoidable (transient) overload, not a
            # quantity to clamp silently.
            self.over_unity_events += 1
            if self.strict:
                raise SchedulabilityError(
                    f"look-ahead deferral at t={now:g} needs speed "
                    f"{speed:.3f} > 1: {must_run:g} cycles cannot finish "
                    f"by the earliest deadline {earliest:g} even at f_max")
        return view.machine.lowest_at_least(min(1.0, speed))
