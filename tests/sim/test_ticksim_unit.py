"""Unit tests for the tick simulator's own interface (the cross-validation
behaviour lives in test_ticksim_crossvalidation.py)."""

import pytest

from repro.core import make_policy
from repro.errors import SimulationError
from repro.hw.machine import machine0
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.ticksim import TickSimulator


class TestValidation:
    def test_bad_tick(self):
        with pytest.raises(SimulationError):
            TickSimulator(example_taskset(), machine0(),
                          make_policy("EDF"), tick=0.0)

    def test_bad_duration(self):
        with pytest.raises(SimulationError):
            TickSimulator(example_taskset(), machine0(),
                          make_policy("EDF"), duration=0.0)

    def test_bad_scheduler(self):
        with pytest.raises(SimulationError):
            TickSimulator(example_taskset(), machine0(),
                          make_policy("EDF"), scheduler="fifo")

    @pytest.mark.parametrize("on_miss", ("raise", "skip", None))
    def test_bad_on_miss(self, on_miss):
        with pytest.raises(SimulationError, match="on_miss"):
            TickSimulator(example_taskset(), machine0(),
                          make_policy("EDF"), on_miss=on_miss)

    def test_tick_must_divide_duration(self):
        """A partial last tick would go unsimulated: 1.0 / 0.3 covers
        only 0.9 time units, so a 1-cycle job would never complete and
        the run would still report every deadline met."""
        with pytest.raises(SimulationError, match="does not divide"):
            TickSimulator(TaskSet([Task(1.0, 2.0, name="A")]), machine0(),
                          make_policy("EDF"), duration=1.0, tick=0.3)

    def test_stuck_wakeup_raises(self):
        """A policy timer that never advances would fire forever."""
        from repro.core.avg_throughput import AveragingDVS

        class StuckTimer(AveragingDVS):
            def on_wakeup(self, view):
                return None  # leaves wakeup_time() where it was

        with pytest.raises(SimulationError, match="did not advance"):
            TickSimulator(example_taskset(), machine0(), StuckTimer(),
                          duration=16.0, tick=0.25).run()

    def test_busy_time_tracked(self):
        sim = TickSimulator(example_taskset(), machine0(),
                            make_policy("EDF"), duration=16.0, tick=0.25)
        assert sim.busy_time == 0.0 and sim.idle_time == 0.0
        sim.run()
        # full speed, worst case: T1 (released 0, 8), T2 (0, 10) and
        # T3 (0, 14) all finish by t=16, idle only over [7, 8) and [15, 16)
        assert sim.busy_time == 14.0
        assert sim.idle_time == 2.0


class TestBehaviour:
    def test_zero_demand_jobs_complete(self):
        from repro.model.demand import TraceDemand
        ts = TaskSet([Task(2, 10, name="A")])
        sim = TickSimulator(ts, machine0(), make_policy("EDF"),
                            demand=TraceDemand({"A": [0.0, 1.0]},
                                               repeat=False),
                            duration=20.0, tick=0.01)
        result = sim.run()
        assert result.met_all_deadlines
        first = [j for j in result.jobs if j.index == 0][0]
        assert first.is_complete

    def test_scheduler_view_protocol(self):
        ts = example_taskset()
        sim = TickSimulator(ts, machine0(), make_policy("EDF"),
                            duration=16.0, tick=0.01)
        sim.run()
        task = ts[0]
        assert sim.invocation_of(task) >= 0
        assert sim.current_deadline(task) is not None
        assert sim.earliest_deadline() is not None
        assert sim.executed_in_invocation(task) >= 0.0

    def test_rm_scheduler(self):
        result = TickSimulator(example_taskset(), machine0(),
                               make_policy("staticRM"), duration=56.0,
                               tick=0.005).run()
        assert result.met_all_deadlines

    @pytest.mark.parametrize("policy_name", ("EDF", "RM"))
    def test_ties_break_by_task_index(self, policy_name):
        """Equal deadlines (EDF) or periods (RM) run in task-set order,
        as :mod:`repro.sim.scheduler` and the engine break ties — not in
        name order."""
        ts = TaskSet([Task(1, 4, name="b"), Task(1, 4, name="a")])
        result = TickSimulator(ts, machine0(), make_policy(policy_name),
                               demand="worst", duration=4.0,
                               tick=0.25).run()
        done = {job.task.name: job.completion_time for job in result.jobs}
        assert done == {"b": 1.0, "a": 2.0}

    def test_auto_named_ties_follow_task_order(self):
        """Auto-named sets of 10+ tasks sort ``T10`` before ``T2`` by
        name; the tie order is the task-set index regardless."""
        ts = TaskSet([Task(0.25, 8.0) for _ in range(12)])
        result = TickSimulator(ts, machine0(), make_policy("EDF"),
                               demand="worst", duration=8.0,
                               tick=0.25).run()
        order = sorted(result.jobs, key=lambda job: job.completion_time)
        assert [job.task.name for job in order] == [t.name for t in ts]

    def test_admitted_task_takes_the_next_index(self):
        """An admitted task ties after every task already in the set."""
        from repro.sim.engine import Admission
        ts = TaskSet([Task(1, 4, name="b")])
        admissions = [Admission(time=0.0, task=Task(1, 4, name="a"),
                                defer=False)]
        result = TickSimulator(ts, machine0(), make_policy("EDF"),
                               demand="worst", duration=4.0, tick=0.25,
                               admissions=admissions).run()
        done = {job.task.name: job.completion_time for job in result.jobs}
        assert done == {"b": 1.0, "a": 2.0}

    def test_continue_keeps_a_late_job_runnable(self):
        ts = TaskSet([Task(3, 4, name="A"), Task(3, 4, name="B")])
        result = TickSimulator(ts, machine0(), make_policy("EDF"),
                               demand="worst", duration=8.0, tick=0.25,
                               on_miss="continue").run()
        late_b = [job for job in result.jobs
                  if job.task.name == "B" and job.index == 0][0]
        assert late_b.completion_time == 6.0  # ran past its deadline 4
        dropped = TickSimulator(ts, machine0(), make_policy("EDF"),
                                demand="worst", duration=8.0,
                                tick=0.25).run()
        assert [job for job in dropped.jobs
                if job.task.name == "B"][0].completion_time is None
