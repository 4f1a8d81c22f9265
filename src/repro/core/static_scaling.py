"""Static voltage scaling (Sec. 2.3, Fig. 1).

"Select the lowest possible operating frequency that will allow the RM or
EDF scheduler to meet all the deadlines for a given task set.  This
frequency is set statically, and will not be changed unless the task set is
changed."

Scaling the frequency by factor ``alpha`` scales every worst-case
computation time by ``1/alpha``, so the schedulability tests become:

* EDF: ``ΣC_i/P_i <= alpha``;
* RM:  the chosen RM test evaluated with the right-hand side scaled by
  ``alpha`` (the paper presents the scheduling-point test; the Liu-Layland
  bound is provided as a conservative alternative and ablation).

The frequency is recomputed when the task set changes (dynamic admission,
Sec. 4.3) — the only event that moves a static policy.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import DVSPolicy
from repro.errors import SchedulabilityError
from repro.hw.machine import Machine
from repro.hw.operating_point import OperatingPoint
from repro.model.schedulability import (
    edf_schedulable,
    rm_liu_layland_schedulable,
    rm_rta_schedulable,
)
from repro.model.task import Task, TaskSet


class _StaticBase(DVSPolicy):
    """Shared machinery: pick the lowest frequency passing a test."""

    def __init__(self):
        self._point: Optional[OperatingPoint] = None

    def _passes(self, taskset: TaskSet, alpha: float) -> bool:
        raise NotImplementedError

    def select_point(self, taskset: TaskSet, machine: Machine
                     ) -> OperatingPoint:
        """Lowest operating point whose frequency passes the test.

        Raises
        ------
        SchedulabilityError
            When the task set is unschedulable even at full speed.
        """
        for point in machine.points:
            if self._passes(taskset, point.frequency):
                return point
        raise SchedulabilityError(
            f"task set (U={taskset.utilization:.3f}) fails the "
            f"{self.name} schedulability test even at full frequency")

    def setup(self, view) -> Optional[OperatingPoint]:
        self._point = self.select_point(view.taskset, view.machine)
        return self._point

    def on_task_added(self, view, task: Task) -> Optional[OperatingPoint]:
        self._point = self.select_point(view.taskset, view.machine)
        return self._point

    @property
    def selected_point(self) -> Optional[OperatingPoint]:
        """The statically selected point (after ``setup``)."""
        return self._point


class StaticEDF(_StaticBase):
    """Statically-scaled EDF: lowest ``f`` with ``ΣC_i/P_i <= f``."""

    name = "staticEDF"
    scheduler = "edf"

    def _passes(self, taskset: TaskSet, alpha: float) -> bool:
        return edf_schedulable(taskset, alpha)


class StaticRM(_StaticBase):
    """Statically-scaled RM: lowest ``f`` passing the scaled RM test.

    Parameters
    ----------
    exact:
        When True (default) use an exact test — the memoized
        response-time analysis, equivalent to the scheduling-point test
        the paper's Fig. 1 presents but orders of magnitude cheaper for
        large task sets; when False use the conservative Liu-Layland
        utilization bound (ablation).
    """

    name = "staticRM"
    scheduler = "rm"

    def __init__(self, exact: bool = True):
        super().__init__()
        self.exact = exact
        if not exact:
            self.name = "staticRM-LL"

    def _passes(self, taskset: TaskSet, alpha: float) -> bool:
        if self.exact:
            return rm_rta_schedulable(taskset, alpha)
        return rm_liu_layland_schedulable(taskset, alpha)
