"""Periodic real-time tasks and task sets.

The model follows Sec. 2.2 of the paper: a task ``T_i`` is released once per
period ``P_i``, requires at most ``C_i`` cycles per invocation (``C_i`` is the
computation time at the maximum processor frequency, so "cycles" and
"milliseconds at full speed" are interchangeable), and must complete by the
end of its period.

Units
-----
Times are plain floats in an arbitrary unit (the paper uses milliseconds).
Work is measured in *cycles*, normalized so that relative frequency 1.0
executes one cycle per time unit.  A task's worst case is therefore both
``C_i`` time units at full speed and ``C_i`` cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import TaskModelError


@dataclass(frozen=True)
class Task:
    """A periodic real-time task.

    Parameters
    ----------
    wcet:
        Worst-case computation time per invocation, expressed at the maximum
        processor frequency (equivalently: worst-case cycles, normalized).
    period:
        Release period; the relative deadline equals the period (classic
        Liu & Layland model, as assumed by the paper).
    name:
        Optional human-readable name; auto-assigned by :class:`TaskSet` when
        empty.
    """

    wcet: float
    period: float
    name: str = ""

    def __post_init__(self):
        if not (self.wcet > 0 and math.isfinite(self.wcet)):
            raise TaskModelError(
                f"task wcet must be positive and finite, got {self.wcet!r}")
        if not (self.period > 0 and math.isfinite(self.period)):
            raise TaskModelError(
                f"task period must be positive and finite, got {self.period!r}")
        if self.wcet > self.period:
            raise TaskModelError(
                f"task wcet ({self.wcet}) exceeds its period ({self.period}); "
                "such a task can never meet its deadline on one processor")

    @property
    def utilization(self) -> float:
        """Worst-case utilization ``C_i / P_i``."""
        return self.wcet / self.period

    @property
    def deadline(self) -> float:
        """Relative deadline (equals the period in this model)."""
        return self.period

    def with_name(self, name: str) -> "Task":
        """Return a copy of this task carrying ``name``."""
        return replace(self, name=name)

    def scaled(self, factor: float) -> "Task":
        """Return a copy with the worst-case computation scaled by ``factor``.

        Used by the task-set generator to hit a target total utilization.
        """
        if factor <= 0:
            raise TaskModelError(f"scale factor must be positive, got {factor}")
        return replace(self, wcet=self.wcet * factor)

    def release_times(self, until: float, start: float = 0.0) -> Iterator[float]:
        """Yield the release times of this task in ``[start, until)``.

        The first release is at ``start`` (phase 0, as in the paper).
        """
        k = 0
        while True:
            t = start + k * self.period
            if t >= until:
                return
            yield t
            k += 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "task"
        return f"{label}(C={self.wcet:g}, P={self.period:g})"


class TaskSet:
    """An ordered collection of :class:`Task` objects.

    The order is preserved and used for deterministic tie-breaking in the
    schedulers (lower index wins among equal priorities).  Task names are
    made unique on construction: unnamed tasks get ``T1``, ``T2``, ...

    ``TaskSet`` behaves as an immutable sequence of tasks.
    """

    def __init__(self, tasks: Iterable[Task]):
        tasks = list(tasks)
        if not tasks:
            raise TaskModelError("a task set must contain at least one task")
        named: List[Task] = []
        seen = set()
        for index, task in enumerate(tasks):
            if not isinstance(task, Task):
                raise TaskModelError(
                    f"task set entries must be Task instances, got {task!r}")
            name = task.name or f"T{index + 1}"
            if name in seen:
                raise TaskModelError(f"duplicate task name {name!r}")
            seen.add(name)
            named.append(task if task.name == name else task.with_name(name))
        self._tasks: Tuple[Task, ...] = tuple(named)

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index) -> Task:
        return self._tasks[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(t) for t in self._tasks)
        return f"TaskSet([{inner}])"

    # -- derived quantities ------------------------------------------------
    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The tasks, in construction order."""
        return self._tasks

    @property
    def utilization(self) -> float:
        """Total worst-case utilization ``ΣC_i/P_i``."""
        return sum(t.utilization for t in self._tasks)

    def by_name(self, name: str) -> Task:
        """Return the task called ``name``.

        Raises
        ------
        KeyError
            If no task has that name.
        """
        for task in self._tasks:
            if task.name == name:
                return task
        raise KeyError(name)

    def index_of(self, task: Task) -> int:
        """Return the construction index of ``task``."""
        return self._tasks.index(task)

    def sorted_by_period(self) -> List[Task]:
        """Tasks in RM priority order (shortest period first, stable)."""
        return sorted(self._tasks, key=lambda t: t.period)

    def hyperperiod(self, resolution: float = 1e-6) -> Optional[float]:
        """Least common multiple of the periods, if they are commensurable.

        Periods are snapped to an integer grid of ``resolution`` before the
        LCM is computed.  Returns ``None`` when the LCM would be absurdly
        large (more than ``1e12`` resolution ticks), which indicates
        effectively incommensurable periods.
        """
        ticks: List[int] = []
        for task in self._tasks:
            scaled = task.period / resolution
            tick = round(scaled)
            if tick <= 0 or abs(scaled - tick) > 1e-6 * max(1.0, scaled):
                return None
            ticks.append(tick)
        lcm = 1
        for tick in ticks:
            lcm = lcm * tick // math.gcd(lcm, tick)
            if lcm > 1e12:
                return None
        return lcm * resolution

    def scaled_to_utilization(self, target: float) -> "TaskSet":
        """Return a copy whose total utilization equals ``target``.

        All worst-case computation times are multiplied by the same constant,
        exactly the scaling step in the paper's task-set generator
        (Sec. 3.1).  Raises :class:`TaskModelError` if scaling would push any
        task's wcet above its period (target too high for this set).
        """
        if target <= 0:
            raise TaskModelError(
                f"target utilization must be positive, got {target}")
        factor = target / self.utilization
        return TaskSet([t.scaled(factor) for t in self._tasks])

    def with_task(self, task: Task) -> "TaskSet":
        """Return a new task set with ``task`` appended."""
        return TaskSet(list(self._tasks) + [task])

    def without_task(self, name: str) -> "TaskSet":
        """Return a new task set without the task called ``name``."""
        remaining = [t for t in self._tasks if t.name != name]
        if len(remaining) == len(self._tasks):
            raise KeyError(name)
        return TaskSet(remaining)


def example_taskset() -> TaskSet:
    """The worked example of the paper (Table 2).

    Three tasks with computing times 3, 3, 1 ms and periods 8, 10, 14 ms,
    for a total worst-case utilization of ~0.746.
    """
    return TaskSet([
        Task(wcet=3.0, period=8.0, name="T1"),
        Task(wcet=3.0, period=10.0, name="T2"),
        Task(wcet=1.0, period=14.0, name="T3"),
    ])
