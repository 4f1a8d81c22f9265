"""Simulation results: energy breakdowns, deadline accounting, summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hw.operating_point import OperatingPoint
from repro.model.job import Job, JobOutcome
from repro.model.task import Task, TaskSet
from repro.sim.timeline import SimTimeline


@dataclass
class DeadlineMiss:
    """Record of one missed deadline."""

    task_name: str
    release_time: float
    deadline: float
    demand: float
    executed: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.task_name} released {self.release_time:g} missed "
                f"deadline {self.deadline:g} ({self.executed:g}/"
                f"{self.demand:g} cycles done)")


@dataclass
class EnergyBreakdown:
    """Energy split by activity and by operating point.

    ``execution[point]`` is the energy spent running task cycles at that
    point; ``idle`` and ``switch`` are halted-time energies.
    """

    execution: Dict[OperatingPoint, float] = field(default_factory=dict)
    idle: float = 0.0
    switch: float = 0.0

    def add_execution(self, point: OperatingPoint, energy: float) -> None:
        self.execution[point] = self.execution.get(point, 0.0) + energy

    @property
    def execution_total(self) -> float:
        return sum(self.execution.values())

    @property
    def total(self) -> float:
        return self.execution_total + self.idle + self.switch


@dataclass
class SimResult:
    """Everything a simulation run produces.

    Attributes
    ----------
    taskset:
        The task set simulated.
    policy_name:
        Name of the DVS policy.
    scheduler_name:
        "edf" or "rm".
    duration:
        Simulated time span.
    energy:
        Energy breakdown; ``energy.total`` is the headline number.
    jobs:
        Every job released during the run (completed or not).
    misses:
        Deadline misses detected (empty for correct RT-DVS policies on
        schedulable task sets).
    switches:
        Number of operating-point changes performed.
    trace:
        Execution trace, present when the run recorded one: a columnar
        :class:`~repro.sim.timeline.SimTimeline`.
    """

    taskset: TaskSet
    policy_name: str
    scheduler_name: str
    duration: float
    energy: EnergyBreakdown
    jobs: List[Job]
    misses: List[DeadlineMiss]
    switches: int
    trace: Optional[SimTimeline] = None

    @classmethod
    def from_records(cls, tasks: Sequence[Task], records: List[list],
                     **fields) -> "SimResult":
        """A result whose :attr:`jobs` are built on first access from flat
        per-release records (a simulator that keeps no ``Job`` objects).

        ``records`` holds one ``[slot, index, release_time, demand,
        executed, completion_time]`` list per release, in release order,
        ``slot`` indexing ``tasks``.  The built jobs equal the ones a
        ``Job``-keeping simulator would list, field by field, and
        :attr:`executed_cycles` adds the records' executed cycles in the
        same order without building them.
        """
        result = cls(jobs=[], **fields)
        # Unset, so the first read of ``jobs`` reaches __getattr__.
        del result.jobs
        result._records = (tasks, records)
        return result

    def __getattr__(self, name: str):
        # Normal lookup failed: the unread ``jobs`` of a from_records
        # result.  Any other missing name is a plain AttributeError.
        # ``_records`` goes only once ``jobs`` is set, so a concurrent
        # first read finds one or the other.
        state = self.__dict__
        source = state.get("_records") if name == "jobs" else None
        if source is None:
            if name == "jobs" and "jobs" in state:
                return state["jobs"]
            raise AttributeError(name)
        tasks, records = source
        jobs = self.jobs = [
            Job(task=tasks[slot], release_time=release, demand=demand,
                index=index, executed=executed, completion_time=completion)
            for slot, index, release, demand, executed, completion
            in records]
        state.pop("_records", None)
        return jobs

    @property
    def total_energy(self) -> float:
        """Total energy dissipated over the run."""
        return self.energy.total

    @property
    def executed_cycles(self) -> float:
        """Total task cycles executed."""
        source = self.__dict__.get("_records")
        if source is not None:
            return sum(record[4] for record in source[1])
        return sum(job.executed for job in self.jobs)

    @property
    def average_power(self) -> float:
        """Mean power over the run."""
        if self.duration <= 0:
            return 0.0
        return self.total_energy / self.duration

    @property
    def deadline_miss_count(self) -> int:
        return len(self.misses)

    @property
    def met_all_deadlines(self) -> bool:
        return not self.misses

    def job_outcomes(self) -> Dict[JobOutcome, int]:
        """Histogram of job outcomes at the end of the run."""
        counts: Dict[JobOutcome, int] = {o: 0 for o in JobOutcome}
        for job in self.jobs:
            counts[job.outcome(self.duration)] += 1
        return counts

    def normalized_to(self, reference: "SimResult") -> float:
        """This run's energy normalized to a reference run (the paper
        normalizes to unmodified EDF)."""
        if reference.total_energy <= 0:
            raise ZeroDivisionError(
                "reference run consumed no energy; cannot normalize")
        return self.total_energy / reference.total_energy

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        outcomes = self.job_outcomes()
        return (
            f"{self.policy_name} ({self.scheduler_name.upper()}): "
            f"energy={self.total_energy:.4g} over t=[0,{self.duration:g}], "
            f"{len(self.jobs)} jobs "
            f"({outcomes[JobOutcome.COMPLETED]} completed, "
            f"{outcomes[JobOutcome.MISSED]} missed, "
            f"{outcomes[JobOutcome.UNFINISHED]} unfinished), "
            f"{self.switches} frequency switches")
