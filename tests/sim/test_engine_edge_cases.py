"""Adversarial and corner-case engine tests (failure injection included)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sweep import materialize_demand
from repro.core import make_policy
from repro.core.avg_throughput import AveragingDVS
from repro.core.base import DVSPolicy
from repro.core.fixed import FixedSpeed
from repro.core.no_dvs import NoDVS
from repro.errors import SimulationError
from repro.hw.machine import machine0
from repro.hw.operating_point import OperatingPoint
from repro.hw.regulator import SwitchingModel
from repro.model.demand import UniformFractionDemand
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet, example_taskset
from repro.obs.metrics import MetricsCollector
from repro.sim.engine import Simulator, simulate
from repro.sim.ticksim import TickSimulator

from tests.conftest import tasksets


class TestCoincidentEvents:
    def test_harmonic_simultaneous_releases(self):
        """Every period divides the longest: bursts of simultaneous
        releases at every hyperperiod boundary."""
        ts = TaskSet([Task(1, 4), Task(1, 8), Task(2, 16)])
        result = simulate(ts, machine0(), make_policy("laEDF"),
                          demand="worst", duration=64.0)
        assert result.met_all_deadlines
        assert len(result.jobs) == 16 + 8 + 4

    def test_identical_tasks_tie_break_deterministically(self):
        ts = TaskSet([Task(1, 6, name="a"), Task(1, 6, name="b"),
                      Task(1, 6, name="c")])
        result = simulate(ts, machine0(), NoDVS(), duration=6.0,
                          record_trace=True)
        order = [s.task for s in result.trace.run_segments()]
        assert order == ["a", "b", "c"]  # construction order breaks ties

    def test_completion_coincides_with_release(self):
        # Task A (2 cycles at f=1) completes exactly when B releases.
        ts = TaskSet([Task(2, 8, name="A"), Task(1, 2, name="B")])
        result = simulate(ts, machine0(), NoDVS(), duration=8.0)
        assert result.met_all_deadlines

    def test_all_tasks_complete_exactly_at_duration(self):
        ts = TaskSet([Task(5, 10, name="A")])
        result = simulate(ts, machine0(), FixedSpeed(0.5), duration=10.0)
        job = result.jobs[0]
        assert job.is_complete
        assert job.completion_time == pytest.approx(10.0)


class _LoggedAvgDVS(AveragingDVS):
    """avgDVS that records the instant of every ``on_wakeup`` call."""

    def __init__(self):
        super().__init__()
        self.wakeups = []

    def on_wakeup(self, view):
        self.wakeups.append(view.time)
        return super().on_wakeup(view)


class TestWakeupAtHorizon:
    """A policy wakeup due at ``duration`` is suppressed like a release
    there: avgDVS's 10-unit window closes exactly at t=500 on this set,
    and a point chosen then would never run."""

    DURATION = 500.0

    def _inputs(self):
        taskset = TaskSetGenerator(8, 0.75, seed=11).generate()
        demand = materialize_demand(UniformFractionDemand(seed=11),
                                    taskset, self.DURATION)
        return taskset, demand

    def test_engine_fires_no_wakeup_at_the_horizon(self):
        taskset, demand = self._inputs()
        policy = _LoggedAvgDVS()
        collector = MetricsCollector()
        result = simulate(taskset, machine0(), policy, demand=demand,
                          duration=self.DURATION, instrument=collector)
        assert policy.wakeups[-1] == 490.0
        assert collector.metrics.wakeups == len(policy.wakeups)
        # The suppressed window close used to add a 23rd switch at t=500.
        assert result.switches == 22

    def test_switch_halt_never_runs_past_the_horizon(self):
        taskset, demand = self._inputs()
        sim = Simulator(taskset, machine0(), make_policy("avgDVS"),
                        demand=demand, duration=self.DURATION,
                        switching=SwitchingModel(0.01, 0.1),
                        record_trace=True)
        result = sim.run()
        assert sim.time == self.DURATION
        assert max(s.end for s in result.trace) <= self.DURATION

    def test_tick_simulator_agrees(self):
        taskset, demand = self._inputs()
        exact, ticked = _LoggedAvgDVS(), _LoggedAvgDVS()
        simulate(taskset, machine0(), exact, demand=demand,
                 duration=self.DURATION)
        TickSimulator(taskset, machine0(), ticked, demand=demand,
                      duration=self.DURATION, tick=2.0 ** -6).run()
        assert ticked.wakeups == exact.wakeups
        assert ticked.wakeups[-1] == 490.0


class TestExtremeScales:
    def test_duration_shorter_than_any_period(self):
        result = simulate(example_taskset(), machine0(), NoDVS(),
                          duration=2.0)
        assert len(result.jobs) == 3  # one release each, none due yet
        assert result.met_all_deadlines

    def test_wildly_mixed_periods(self):
        ts = TaskSet([Task(0.2, 1.0), Task(30.0, 500.0)])
        result = simulate(ts, machine0(), make_policy("ccEDF"),
                          demand=0.6, duration=1000.0)
        assert result.met_all_deadlines
        assert len(result.jobs) == 1000 + 2

    def test_task_with_full_utilization(self):
        ts = TaskSet([Task(10, 10)])
        result = simulate(ts, machine0(), make_policy("laEDF"),
                          demand="worst", duration=50.0)
        assert result.met_all_deadlines

    def test_tiny_demand_fractions(self):
        result = simulate(example_taskset(), machine0(),
                          make_policy("laEDF"), demand=0.01,
                          duration=280.0)
        assert result.met_all_deadlines


class TestMisbehavingPolicies:
    def test_foreign_operating_point_rejected(self):
        class RoguePolicy(DVSPolicy):
            name = "rogue"

            def on_release(self, view, task):
                return OperatingPoint(0.42, 2.2)  # not in machine0

        with pytest.raises(SimulationError):
            simulate(example_taskset(), machine0(), RoguePolicy(),
                     duration=16.0)

    def test_policy_crash_propagates(self):
        class CrashingPolicy(DVSPolicy):
            name = "crash"

            def on_completion(self, view, task):
                raise RuntimeError("policy bug")

        with pytest.raises(RuntimeError, match="policy bug"):
            simulate(example_taskset(), machine0(), CrashingPolicy(),
                     duration=16.0)

    def test_stuck_wakeup_detected(self):
        class StuckPolicy(DVSPolicy):
            name = "stuck"

            def wakeup_time(self):
                return 1.0  # never advances

            def on_wakeup(self, view):
                return None

        with pytest.raises(SimulationError, match="wakeup"):
            simulate(example_taskset(), machine0(), StuckPolicy(),
                     duration=16.0)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def run():
            return simulate(example_taskset(), machine0(),
                            make_policy("laEDF"), demand="uniform",
                            duration=112.0)

        a, b = run(), run()
        assert a.total_energy == b.total_energy
        assert a.switches == b.switches
        assert [j.demand for j in a.jobs] == [j.demand for j in b.jobs]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ts=tasksets)
    def test_trace_is_contiguous_and_covers_duration(self, ts):
        duration = min(2.0 * max(t.period for t in ts), 300.0)
        result = simulate(ts, machine0(), make_policy("ccEDF"),
                          demand=0.7, duration=duration,
                          record_trace=True)
        segments = result.trace.segments
        assert segments[0].start == pytest.approx(0.0)
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start == pytest.approx(prev.end, abs=1e-9)
        assert segments[-1].end == pytest.approx(duration, abs=1e-6)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ts=tasksets, seed=st.integers(min_value=0, max_value=999))
    def test_job_count_matches_release_arithmetic(self, ts, seed):
        duration = min(2.0 * max(t.period for t in ts), 300.0)
        result = simulate(ts, machine0(), make_policy("EDF"),
                          demand="uniform", duration=duration)
        import math
        expected = sum(math.ceil((duration - 1e-9) / t.period)
                       for t in ts)
        assert len(result.jobs) == expected
