"""Unit tests for the Task/TaskSet model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import TaskModelError
from repro.model.task import Task, TaskSet, example_taskset


class TestTaskValidation:
    def test_valid_task(self):
        task = Task(wcet=3.0, period=8.0)
        assert task.utilization == pytest.approx(0.375)
        assert task.deadline == 8.0

    @pytest.mark.parametrize("wcet", [0.0, -1.0, float("nan"),
                                      float("inf")])
    def test_bad_wcet_rejected(self, wcet):
        with pytest.raises(TaskModelError):
            Task(wcet=wcet, period=10.0)

    @pytest.mark.parametrize("period", [0.0, -5.0, float("nan"),
                                        float("inf")])
    def test_bad_period_rejected(self, period):
        with pytest.raises(TaskModelError):
            Task(wcet=1.0, period=period)

    def test_wcet_above_period_rejected(self):
        with pytest.raises(TaskModelError):
            Task(wcet=11.0, period=10.0)

    def test_wcet_equal_period_allowed(self):
        task = Task(wcet=10.0, period=10.0)
        assert task.utilization == 1.0

    def test_tasks_are_immutable(self):
        task = Task(wcet=1.0, period=2.0)
        with pytest.raises(AttributeError):
            task.wcet = 5.0  # type: ignore[misc]


class TestTaskOperations:
    def test_with_name(self):
        task = Task(wcet=1.0, period=2.0).with_name("alpha")
        assert task.name == "alpha"
        assert task.wcet == 1.0

    def test_scaled(self):
        task = Task(wcet=2.0, period=10.0)
        assert task.scaled(2.0).wcet == 4.0
        assert task.scaled(0.5).wcet == 1.0

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(TaskModelError):
            Task(wcet=1.0, period=2.0).scaled(0.0)

    def test_release_times(self):
        task = Task(wcet=1.0, period=5.0)
        assert list(task.release_times(until=16.0)) == [0.0, 5.0, 10.0, 15.0]

    def test_release_times_with_start(self):
        task = Task(wcet=1.0, period=5.0)
        assert list(task.release_times(until=12.0, start=2.0)) == [2.0, 7.0]


class TestTaskSet:
    def test_auto_naming(self):
        ts = TaskSet([Task(1, 4), Task(1, 5)])
        assert [t.name for t in ts] == ["T1", "T2"]

    def test_explicit_names_kept(self):
        ts = TaskSet([Task(1, 4, name="video"), Task(1, 5)])
        assert [t.name for t in ts] == ["video", "T2"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(TaskModelError):
            TaskSet([Task(1, 4, name="x"), Task(1, 5, name="x")])

    def test_empty_rejected(self):
        with pytest.raises(TaskModelError):
            TaskSet([])

    def test_non_task_rejected(self):
        with pytest.raises(TaskModelError):
            TaskSet([Task(1, 4), "not a task"])  # type: ignore[list-item]

    def test_utilization(self):
        ts = example_taskset()
        assert ts.utilization == pytest.approx(3 / 8 + 3 / 10 + 1 / 14)

    def test_sequence_protocol(self):
        ts = example_taskset()
        assert len(ts) == 3
        assert ts[0].name == "T1"
        assert [t.name for t in ts] == ["T1", "T2", "T3"]

    def test_by_name(self):
        ts = example_taskset()
        assert ts.by_name("T2").wcet == 3.0
        with pytest.raises(KeyError):
            ts.by_name("nope")

    def test_index_of(self):
        ts = example_taskset()
        assert ts.index_of(ts[1]) == 1

    def test_sorted_by_period(self):
        ts = TaskSet([Task(1, 10, name="slow"), Task(1, 2, name="fast")])
        assert [t.name for t in ts.sorted_by_period()] == ["fast", "slow"]

    def test_equality_and_hash(self):
        a = example_taskset()
        b = example_taskset()
        assert a == b
        assert hash(a) == hash(b)
        assert a != TaskSet([Task(1, 2)])

    def test_with_task(self):
        ts = example_taskset().with_task(Task(1, 20))
        assert len(ts) == 4
        assert ts[3].name == "T4"

    def test_without_task(self):
        ts = example_taskset().without_task("T2")
        assert [t.name for t in ts] == ["T1", "T3"]
        with pytest.raises(KeyError):
            ts.without_task("nope")


class TestHyperperiod:
    def test_integer_periods(self):
        ts = TaskSet([Task(1, 4), Task(1, 6)])
        assert ts.hyperperiod() == pytest.approx(12.0)

    def test_fractional_periods(self):
        ts = TaskSet([Task(0.1, 0.5), Task(0.1, 0.75)])
        assert ts.hyperperiod() == pytest.approx(1.5)

    def test_incommensurable_returns_none(self):
        ts = TaskSet([Task(0.1, math.pi), Task(0.1, 1.0)])
        # pi is not on the resolution grid
        assert ts.hyperperiod(resolution=1.0) is None

    def test_huge_lcm_returns_none(self):
        ts = TaskSet([Task(0.001, 999.983), Task(0.001, 997.991),
                      Task(0.001, 991.997)])
        # co-prime ticks explode past the guard
        assert ts.hyperperiod(resolution=1e-3) is None

    def test_resolution_changes_the_hyperperiod(self):
        # 1.0005 is not representable on a 1e-3 grid (0.5-tick error) but
        # is exact on 1e-4 — so the hyperperiod flips between None and
        # finite purely on the detection resolution.
        taskset = TaskSet([Task(0.1, 1.0005, "A"), Task(0.2, 2.0, "B")])
        assert taskset.hyperperiod(resolution=1e-3) is None
        finite = taskset.hyperperiod(resolution=1e-4)
        assert finite == pytest.approx(4002.0)


class TestScaledToUtilization:
    def test_scaling_hits_target(self):
        ts = example_taskset().scaled_to_utilization(0.5)
        assert ts.utilization == pytest.approx(0.5)

    def test_scaling_preserves_ratios(self):
        ts = example_taskset().scaled_to_utilization(0.5)
        original = example_taskset()
        ratio = ts[0].wcet / original[0].wcet
        for scaled, base in zip(ts, original):
            assert scaled.wcet / base.wcet == pytest.approx(ratio)

    def test_infeasible_target_rejected(self):
        # Scaling T1 (3/8) up to make U=1.0 total would need wcet > period?
        ts = TaskSet([Task(9, 10)])
        with pytest.raises(TaskModelError):
            ts.scaled_to_utilization(1.5)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(TaskModelError):
            example_taskset().scaled_to_utilization(0.0)

    @given(target=st.floats(min_value=0.05, max_value=0.745))
    def test_scaling_property(self, target):
        ts = example_taskset().scaled_to_utilization(target)
        assert ts.utilization == pytest.approx(target)


def test_example_taskset_matches_table2():
    ts = example_taskset()
    assert [(t.wcet, t.period) for t in ts] == [(3, 8), (3, 10), (1, 14)]
    assert ts.utilization == pytest.approx(0.746, abs=5e-4)
