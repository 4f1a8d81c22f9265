"""Unit tests for SimResult and EnergyBreakdown."""

import pytest

from repro.core.no_dvs import NoDVS
from repro.core import make_policy
from repro.hw.machine import machine0
from repro.hw.operating_point import OperatingPoint
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.engine import simulate
from repro.sim.results import EnergyBreakdown, SimResult


class TestEnergyBreakdown:
    def test_accumulates_per_point(self):
        breakdown = EnergyBreakdown()
        p = OperatingPoint(0.5, 3.0)
        q = OperatingPoint(1.0, 5.0)
        breakdown.add_execution(p, 10.0)
        breakdown.add_execution(p, 5.0)
        breakdown.add_execution(q, 1.0)
        breakdown.idle = 2.0
        breakdown.switch = 0.5
        assert breakdown.execution[p] == 15.0
        assert breakdown.execution_total == 16.0
        assert breakdown.total == pytest.approx(18.5)


class TestSimResult:
    @pytest.fixture
    def result(self):
        return simulate(example_taskset(), machine0(),
                        make_policy("ccEDF"), demand=0.7, duration=56.0)

    def test_summary_mentions_policy_and_energy(self, result):
        text = result.summary()
        assert "ccEDF" in text
        assert "jobs" in text

    def test_normalized_to(self, result):
        reference = simulate(example_taskset(), machine0(), NoDVS(),
                             demand=0.7, duration=56.0)
        ratio = result.normalized_to(reference)
        assert 0.0 < ratio < 1.0

    def test_normalized_to_zero_reference_raises(self, result):
        # Build a reference with zero energy: no cycles executed.
        zero = simulate(TaskSet([Task(1, 1000)]), machine0(), NoDVS(),
                        demand=1.0, duration=0.5)
        zero.jobs.clear()
        zero.energy.execution.clear()
        zero.energy.idle = 0.0
        with pytest.raises(ZeroDivisionError):
            result.normalized_to(zero)

    def test_executed_cycles_matches_jobs(self, result):
        assert result.executed_cycles == \
            pytest.approx(sum(j.executed for j in result.jobs))

    def test_breakdown_total_matches(self, result):
        assert result.total_energy == pytest.approx(result.energy.total)


class TestFromRecords:
    """A from_records result builds ``jobs`` on first read."""

    @staticmethod
    def _result(records):
        ts = TaskSet([Task(1.0, 4.0, name="A"), Task(2.0, 8.0, name="B")])
        return SimResult.from_records(
            ts.tasks, records, taskset=ts, policy_name="EDF",
            scheduler_name="EDF", duration=8.0,
            energy=EnergyBreakdown(), misses=[], switches=0)

    def test_jobs_built_from_records(self):
        result = self._result([[0, 0, 0.0, 1.0, 1.0, 1.0],
                               [1, 0, 0.0, 1.5, 1.5, 2.5],
                               [0, 1, 4.0, 0.5, 0.25, None]])
        assert result.executed_cycles == 2.75
        assert [(j.task.name, j.index, j.release_time, j.demand,
                 j.executed, j.completion_time) for j in result.jobs] \
            == [("A", 0, 0.0, 1.0, 1.0, 1.0), ("B", 0, 0.0, 1.5, 1.5, 2.5),
                ("A", 1, 4.0, 0.5, 0.25, None)]
        assert result.jobs is result.jobs
        assert result.executed_cycles == 2.75
        with pytest.raises(AttributeError):
            result.no_such_field

    def test_read_during_the_first_build_succeeds(self):
        """A second reader that arrives while the first one is still
        building the list (a worker thread) gets the jobs too."""
        seen = []

        class Records(list):
            def __iter__(self):
                if not seen:
                    seen.append(None)
                    seen.append(result.jobs)  # the interleaved reader
                return super().__iter__()

        result = self._result(Records([[0, 0, 0.0, 1.0, 1.0, 1.0]]))
        jobs = result.jobs
        assert len(jobs) == 1 and seen[1] == jobs
