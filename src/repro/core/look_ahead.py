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
maintained instead: one sorted list of entry tuples ``(-deadline,
-slot, slot, deadline, utilization, WCET)``, where ``slot`` is the
task-set index, so ascending order is exactly a descending ``(deadline,
index)`` sort.  A release moves one entry (one ``bisect`` search, one
pop and one insert), and the task-set utilization sum is cached (the
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

Walk reuse at completions
-------------------------
Each full walk records its outstanding jobs in walk order: the slot,
its executed cycles, and the ``must_run`` accumulated before it.  A
completion changes no deadline, and in the simulators at most one job
runs between two hooks — under EDF the earliest-deadline one, which is
the *last* outstanding job of the walk.  When that last recorded job
has completed and every other recorded job is still outstanding with
the executed cycles the walk saw, a full walk now would visit the same
entries with the same inputs up to that job and find nothing
outstanding after it, so its ``must_run`` is exactly the recorded
prefix.  The completion pops that record and selects from it; the next
completion can reuse the walk again.  Any other state (a release or a
task-set change since the walk, another job executed or completed, as
under an RM scheduler or a hook-level driver) falls back to the full
walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

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
        # Maintained reverse-EDF order: ascending entries (-deadline,
        # -slot, slot, deadline, utilization, WCET).  Tasks without a
        # current job have no entry (``_entry_of[slot] is None``) and
        # contribute nothing to the walk.
        self._order: List[tuple] = []
        self._entry_of: List[Optional[tuple]] = []
        self._index_of: Dict[str, int] = {}
        self._util_of: List[float] = []
        self._wcet_of: List[float] = []
        self._total_util = 0.0
        # The last full walk's outstanding jobs in walk order, as
        # (slot, executed, must_run before it), and the earliest deadline
        # it walked to; ``None`` once a release or task-set change has
        # made the walk stale.
        self._pending: Optional[List[Tuple[int, float, float]]] = None
        self._walk_earliest = 0.0
        # The tasks the last batch hook repositioned, in the order their
        # on_release hooks follow.
        self._batch: Iterator[Task] = iter(())

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
        self._pending = None
        for task in tasks:
            self._reposition(view, task)
        self._batch = iter(tasks)

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        # The simulators fire one on_release per task of the batch, in
        # batch order, right after the batch hook repositioned them all;
        # any other release (hook-level driving) repositions here.
        if next(self._batch, None) is not task:
            self._reposition(view, task)
        return self._defer(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        # A completion leaves the task's current deadline (and hence the
        # deferral order) untouched; only c_left drops to zero.  Reuse the
        # last full walk when the state proves it current (see "Walk
        # reuse at completions" in the module docstring).
        pending = self._pending
        if pending:
            now = view.time
            earliest = view.earliest_deadline()
            if earliest == self._walk_earliest and earliest > now + 1e-12:
                last, _, must_run = pending.pop()
                completed = view.slot_completed()
                if completed[last]:
                    executed = view.slot_executed()
                    for slot, done, _ in pending:
                        if completed[slot] or executed[slot] != done:
                            break
                    else:
                        return self._select(view, must_run, earliest, now)
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
        self._util_of = util_of = [task.utilization for task in taskset]
        self._wcet_of = wcet_of = [task.wcet for task in taskset]
        # Bitwise-identical to TaskSet.utilization (same terms, same order).
        self._total_util = sum(util_of)
        self._order = sorted(
            (-deadline, -slot, slot, deadline, util_of[slot], wcet_of[slot])
            for slot, deadline in enumerate(view.slot_deadline())
            if deadline != math.inf)  # inf: no job yet
        self._entry_of = [None] * len(util_of)
        for entry in self._order:
            self._entry_of[entry[2]] = entry
        self._pending = None
        self._batch = iter(())

    def _reposition(self, view, task: Task) -> None:
        """Move ``task`` to the position of its newly-released deadline.
        O(log n) search + one pop and one insert."""
        self._pending = None
        slot = self._index_of.get(task.name)
        if slot is None:  # task unknown (hook order surprise): resync
            self._rebuild(view)
            return
        deadline = view.slot_deadline()[slot]
        if deadline == math.inf:  # defensive: release without a job
            return
        order = self._order
        old = self._entry_of[slot]
        if old is not None:
            if old[3] == deadline:
                return
            order.pop(bisect_left(order, old))
        entry = (-deadline, -slot, slot, deadline, self._util_of[slot],
                 self._wcet_of[slot])
        order.insert(bisect_left(order, entry), entry)
        self._entry_of[slot] = entry

    # ------------------------------------------------------------------
    def _defer(self, view) -> OperatingPoint:
        """The deferral calculation (a full walk); returns the selected
        operating point and records the walk for reuse."""
        now = view.time
        earliest = view.earliest_deadline()
        if earliest is None or earliest <= now + 1e-12:
            return view.machine.slowest
        executed = view.slot_executed()
        completed = view.slot_completed()
        pending: List[Tuple[int, float, float]] = []
        utilization = self._total_util
        must_run = 0.0  # `s`: cycles that must execute before `earliest`
        for _, _, slot, deadline, util, wcet in self._order:
            utilization -= util
            if completed[slot]:
                # Done, or no job yet: c_left = 0, so nothing is deferred
                # and the steps below add exact zeros — skip them.
                continue
            done = executed[slot]
            pending.append((slot, done, must_run))
            left = wcet - done  # Job.worst_case_remaining
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
        self._pending = pending
        self._walk_earliest = earliest
        return self._select(view, must_run, earliest, now)

    def _select(self, view, must_run: float, earliest: float,
                now: float) -> OperatingPoint:
        """``select_frequency(s / (D_n - now))``."""
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
