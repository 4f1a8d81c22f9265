"""Cycle-conserving EDF (Sec. 2.4, Fig. 4).

The algorithm, verbatim from the paper::

    select_frequency():
        use lowest freq. f_i such that U_1 + ... + U_n <= f_i / f_m

    upon task_release(T_i):
        set U_i to C_i / P_i
        select_frequency()

    upon task_completion(T_i):
        set U_i to cc_i / P_i     /* cc_i is the actual cycles used */
        select_frequency()

When a task completes early, its utilization entry shrinks to what it
actually used, which stays valid until its next release (condition C2 still
holds with the lowered bound, so EDF's guarantee is untouched).  On release
the worst case is restored — possibly raising the frequency.

Maintained sum
--------------
``select_frequency`` only ever needs ``ΣU_i``, and each event changes a
single ``U_i`` — so the sum is maintained as a running aggregate updated in
O(1) per event (``total += new − old``) instead of re-summed over all
tasks.  Two mechanisms keep this *provably* equivalent to re-summing the
table at every selection, as the paper's pseudo-code does:

* **Periodic exact resync** bounds accumulated float drift: every
  ``_RESYNC_INTERVAL`` updates the aggregate is replaced by the exact
  ``sum()`` over the table.  Between resyncs the drift is at most a few
  hundred ulps — many orders of magnitude below the guard band.
* **Decision-boundary recompute**: frequency selection only depends on
  which side of a machine threshold (``f_j + 1e-9``, and the ``1 + 1e-9``
  schedulability bound) the sum falls.  Whenever the running aggregate
  lies within ``_GUARD`` of any threshold, the exact sum is recomputed and
  used instead.  Since the drift bound is far smaller than ``_GUARD``,
  the maintained and from-scratch sums always pick the same operating
  point and raise the same errors — the differential tests pin this
  bit-for-bit against a from-scratch oracle on full simulations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Tuple

from repro.core.base import DVSPolicy
from repro.errors import SchedulabilityError
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task

#: Distance from a decision threshold below which the exact sum is
#: recomputed.  Must exceed the worst-case incremental drift between
#: resyncs (~``_RESYNC_INTERVAL × eps`` ≈ 1e-13) by a wide margin.
_GUARD = 1e-10

#: Number of incremental updates between exact resyncs of the aggregate
#: (bounds float drift).
_RESYNC_INTERVAL = 256


class CycleConservingEDF(DVSPolicy):
    """Cycle-conserving RT-DVS for EDF schedulers (``ccEDF``)."""

    name = "ccEDF"
    scheduler = "edf"

    def __init__(self):
        self._utilization: Dict[str, float] = {}
        self._wc_utilization: Dict[str, float] = {}
        self._total = 0.0
        self._updates = 0
        self._thresholds: Tuple[float, ...] = ()
        # Memoized decision band: the selection is constant while the sum
        # stays strictly inside (lo + _GUARD, hi - _GUARD], where lo/hi
        # are the thresholds bracketing the last full selection.
        self._band_point: Optional[OperatingPoint] = None
        self._band_lo = 0.0
        self._band_hi = 0.0

    def setup(self, view) -> Optional[OperatingPoint]:
        if view.taskset.utilization > 1.0 + 1e-9:
            raise SchedulabilityError(
                f"task set utilization {view.taskset.utilization:.3f} > 1; "
                "not EDF-schedulable at any frequency")
        # Worst-case utilizations cached once: releases restore exactly
        # these values, so the hot path skips the property's division.
        self._wc_utilization = {
            task.name: task.utilization for task in view.taskset}
        self._utilization = dict(self._wc_utilization)
        self._total = sum(self._utilization.values())
        self._updates = 0
        # Selection changes exactly when the sum crosses f_j + 1e-9 (the
        # bisect epsilon in Machine.lowest_at_least); the schedulability
        # bound 1 + 1e-9 coincides with the top frequency's threshold.
        # Machine.frequencies is ascending, so the guard-band check below
        # can bisect for the nearest thresholds.
        self._thresholds = tuple(
            f + 1e-9 for f in view.machine.frequencies)
        self._band_point = None
        return self._select(view)

    def on_release(self, view, task: Task) -> Optional[OperatingPoint]:
        name = task.name
        worst = self._wc_utilization.get(name)
        if worst is None:  # defensive: release outside the known task set
            worst = self._wc_utilization[name] = task.utilization
        self._update(name, worst)
        return self._select(view)

    def on_completion(self, view, task: Task) -> Optional[OperatingPoint]:
        actual = view.executed_in_invocation(task)
        self._update(task.name, actual / task.period)
        return self._select(view)

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        # An admitted-but-unreleased task reserves its full worst case, so
        # DVS decisions are already based on the new task set (Sec. 4.3).
        self._wc_utilization[task.name] = task.utilization
        self._update(task.name, task.utilization)
        return self._select(view)

    def on_task_removed(self, view, task: Task) -> Optional[OperatingPoint]:
        self._wc_utilization.pop(task.name, None)
        old = self._utilization.pop(task.name, 0.0)
        self._total -= old
        self._count_update()
        return self._select(view)

    def on_idle(self, view) -> Optional[OperatingPoint]:
        # Nothing is runnable: halt at the bottom of the table.  Safe — the
        # next release re-runs select_frequency() before any work starts.
        return view.machine.slowest

    # ------------------------------------------------------------------
    def _update(self, name: str, value: float) -> None:
        old = self._utilization.get(name, 0.0)
        self._utilization[name] = value
        self._total += value - old
        self._updates += 1  # _count_update, inlined for the hot path
        if self._updates >= _RESYNC_INTERVAL:
            self._resync()

    def _count_update(self) -> None:
        self._updates += 1
        if self._updates >= _RESYNC_INTERVAL:
            self._resync()

    def _resync(self) -> None:
        self._total = sum(self._utilization.values())
        self._updates = 0

    def _select(self, view) -> OperatingPoint:
        total = self._total
        if self._band_point is not None \
                and self._band_lo + _GUARD < total \
                and total <= self._band_hi - _GUARD:
            # Memoized decision band: the sum sits strictly between the
            # thresholds that bracketed the last full selection (with the
            # guard margin absorbing incremental drift), so the selection
            # cannot have changed.  Note an over-unity sum exits the top
            # band and takes the full path, which raises.
            return self._band_point
        # Guard-band check against the *nearest* thresholds only (the
        # tuple is ascending, so they bracket the bisection point) —
        # equivalent to scanning all of them, without the O(points) loop
        # on every selection.
        thresholds = self._thresholds
        index = bisect_left(thresholds, total)
        if (index < len(thresholds)
                and thresholds[index] - total <= _GUARD) or \
                (index and total - thresholds[index - 1] <= _GUARD):
            # Too close to a decision boundary for the drift bound to
            # guarantee the same choice: recompute exactly.
            self._resync()
            total = self._total
        if total > 1.0 + 1e-9:
            raise SchedulabilityError(
                f"utilization sum {total:.3f} > 1 at t={view.time}; the "
                "task set is not schedulable at any frequency")
        point = view.machine.lowest_at_least(min(total, 1.0))
        index = view.machine.index_of(point)
        self._band_hi = self._thresholds[index]
        self._band_lo = self._thresholds[index - 1] if index \
            else float("-inf")
        self._band_point = point
        return point

    @property
    def utilization_estimate(self) -> float:
        """Current ``ΣU_i`` (worst case for running tasks, actual for
        completed ones) — the numbers annotated on the paper's Fig. 3.
        Always recomputed exactly (reporting path, not the hot path)."""
        return sum(self._utilization.values())
