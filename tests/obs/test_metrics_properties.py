"""Conservation laws of the metrics layer, property-tested.

A :class:`~repro.obs.MetricsCollector` attached to a run must not invent
or lose anything.  On randomized task sets under the DVS policies:

* the frequency residency histogram sums to the instrumented span within
  relative 1e-9 (it is built by telescoping timestamps, so any drift is a
  hook-ordering bug);
* per-task released/completed/missed/executed-cycles roll up exactly to
  the engine's own :class:`~repro.sim.results.SimResult`;
* the hot counters (context switches, preemptions) and the miss/switch
  counts agree with :func:`repro.sim.validation.rederive_counters`, an
  independent re-derivation from the recorded trace;
* the busy/idle split of the histogram conserves the engine's busy time.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import make_policy
from repro.errors import SchedulabilityError
from repro.hw.machine import machine0
from repro.obs import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.ticksim import TickSimulator
from repro.sim.validation import rederive_counters

from tests.conftest import fractions, tasksets

#: The paper's four DVS mechanisms (the EDF/RM baselines add nothing to
#: conservation coverage beyond staticEDF's zero-switch case).
DVS_POLICIES = ("staticEDF", "ccEDF", "ccRM", "laEDF")

policy_names = st.sampled_from(DVS_POLICIES)


def run_collected(ts, policy_name, fraction, record_trace=False):
    """One instrumented run; skips RM-unschedulable draws."""
    collector = MetricsCollector()
    sim = Simulator(ts, machine0(), make_policy(policy_name),
                    demand=fraction,
                    duration=3.0 * max(t.period for t in ts),
                    on_miss="drop", record_trace=record_trace,
                    instrument=collector)
    try:
        result = sim.run()
    except SchedulabilityError:
        assume(False)  # RM policies reject some EDF-schedulable sets
    return result, collector.metrics


COMMON = dict(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])


class TestConservation:
    @settings(**COMMON)
    @given(ts=tasksets, fraction=fractions, policy_name=policy_names)
    def test_residency_sums_to_span(self, ts, fraction, policy_name):
        _result, m = run_collected(ts, policy_name, fraction)
        assert m.span > 0.0
        assert abs(m.residency_total - m.span) <= 1e-9 * max(1.0, m.span)
        # and the busy/idle/switch split re-tiles the histogram
        for f, total in m.residency.items():
            split = (m.busy_residency.get(f, 0.0)
                     + m.idle_residency.get(f, 0.0)
                     + m.switch_residency.get(f, 0.0))
            assert split == pytest.approx(total, rel=1e-9, abs=1e-9)

    @settings(**COMMON)
    @given(ts=tasksets, fraction=fractions, policy_name=policy_names)
    def test_per_task_rollup_matches_result(self, ts, fraction, policy_name):
        result, m = run_collected(ts, policy_name, fraction)
        assert m.jobs_released == len(result.jobs)
        assert m.deadline_misses == len(result.misses)
        assert m.frequency_switches == result.switches
        by_task = {}
        for job in result.jobs:
            row = by_task.setdefault(job.task.name,
                                     {"released": 0, "completed": 0,
                                      "cycles": 0.0})
            row["released"] += 1
            row["completed"] += 1 if job.completion_time is not None else 0
            row["cycles"] += job.executed
        assert set(m.tasks) == set(by_task)
        for name, row in by_task.items():
            tm = m.tasks[name]
            assert tm.released == row["released"]
            assert tm.completed == row["completed"]
            # identical accumulation order -> exact float equality
            assert tm.executed_cycles == row["cycles"]
        assert m.jobs_completed == sum(r["completed"]
                                       for r in by_task.values())

    @settings(**COMMON)
    @given(ts=tasksets, fraction=fractions, policy_name=policy_names)
    def test_counters_agree_with_rederivation(self, ts, fraction,
                                              policy_name):
        result, m = run_collected(ts, policy_name, fraction,
                                  record_trace=True)
        rc = rederive_counters(result)
        assert rc["context_switches"] == m.context_switches
        assert rc["preemptions"] == m.preemptions
        assert rc["deadline_misses"] == m.deadline_misses
        # trace-visible point changes are a lower bound (same-instant
        # double switches leave no segment behind)
        assert rc["frequency_transitions"] <= m.frequency_switches

    @settings(**COMMON)
    @given(ts=tasksets, fraction=fractions, policy_name=policy_names)
    def test_busy_split_conserves_busy_time(self, ts, fraction, policy_name):
        _result, m = run_collected(ts, policy_name, fraction)
        busy = sum(m.busy_residency.values())
        assert busy == pytest.approx(m.busy_time, rel=1e-6, abs=1e-9)
        assert m.busy_time + m.idle_time <= m.span + 1e-9 * max(1.0, m.span)


class TestTickSimulatorConservation:
    """The independent quantized engine obeys the same residency law."""

    @pytest.mark.parametrize("policy_name", DVS_POLICIES)
    def test_residency_sums_to_span(self, policy_name, example_ts):
        collector = MetricsCollector()
        sim = TickSimulator(example_ts, machine0(),
                            make_policy(policy_name), demand=0.7,
                            duration=56.0, tick=0.01, instrument=collector)
        sim.run()
        m = collector.metrics
        assert abs(m.residency_total - m.span) <= 1e-9 * max(1.0, m.span)
        assert m.jobs_released == sum(tm.released for tm in m.tasks.values())

    def test_untracked_busy_time_records_none(self, example_ts):
        collector = MetricsCollector()
        TickSimulator(example_ts, machine0(), make_policy("ccEDF"),
                      demand=0.7, duration=56.0, tick=0.01,
                      instrument=collector).run()
        run = collector.runs[0]
        assert run.busy_time is None and run.idle_time is None


class _BrokenBusyTime(Simulator):
    """A view whose ``busy_time`` fails with something other than the
    :class:`~repro.errors.SimulationError` an untracking simulator
    raises."""

    @property
    def busy_time(self):
        raise RuntimeError("busy-time bookkeeping broke")


class TestCollectorErrors:
    def test_unexpected_busy_time_error_propagates(self, example_ts):
        collector = MetricsCollector()
        sim = _BrokenBusyTime(example_ts, machine0(), make_policy("ccEDF"),
                              demand=0.7, duration=56.0,
                              instrument=collector)
        with pytest.raises(RuntimeError, match="bookkeeping broke"):
            sim.run()


class TestCollectorLifecycle:
    def test_metrics_before_any_run_raises(self):
        with pytest.raises(LookupError):
            MetricsCollector().metrics

    def test_collector_accumulates_runs(self, example_ts):
        collector = MetricsCollector()
        for _ in range(2):
            Simulator(example_ts, machine0(), make_policy("ccEDF"),
                      demand=0.7, duration=56.0,
                      instrument=collector).run()
        assert len(collector.runs) == 2
        first, second = collector.runs
        assert first.deterministic_dict() == second.deterministic_dict()

    def test_self_profile_records_dispatch(self, example_ts):
        collector = MetricsCollector(self_profile=True)
        Simulator(example_ts, machine0(), make_policy("ccEDF"),
                  demand=0.7, duration=56.0, instrument=collector).run()
        m = collector.metrics
        assert m.dispatch, "self-profiling recorded no dispatches"
        assert set(m.dispatch) <= {"admission", "release", "wakeup",
                                   "completion"}
        for stat in m.dispatch.values():
            assert stat["count"] > 0
            assert stat["wall_seconds"] >= 0.0
