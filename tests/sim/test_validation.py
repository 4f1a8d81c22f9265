"""Tests for the independent schedule validator — and, through it,
another layer of engine verification."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PAPER_POLICIES, make_policy
from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.hw.machine import machine0
from repro.hw.operating_point import OperatingPoint
from repro.model.generator import TaskSetGenerator
from repro.model.job import Job
from repro.model.schedulability import rm_exact_schedulable
from repro.model.task import Task, TaskSet, example_taskset
from repro.obs import MetricsCollector
from repro.sim.engine import Simulator, simulate
from repro.sim.results import EnergyBreakdown, SimResult
from repro.sim.timeline import SimTimeline
from repro.sim.trace import Segment
from repro.sim.validation import (Violation, rederive_counters,
                                  validate_schedule)

from tests.conftest import fractions, tasksets
from tests.sim.segment_list import timeline_from


def run_traced(policy_name, ts=None, demand=0.7, duration=112.0,
               idle_level=0.0):
    ts = ts or example_taskset()
    model = EnergyModel(idle_level=idle_level)
    result = simulate(ts, machine0(), make_policy(policy_name),
                      demand=demand, duration=duration,
                      energy_model=model, record_trace=True,
                      on_miss="drop")
    return result, model


def doctor(result, index, segment, rebuild=False):
    """Overwrite one trace row: in place on the columns
    (:meth:`SimTimeline.replace`), or by rebuilding the timeline from the
    edited ``Segment`` view."""
    if rebuild:
        segments = list(result.trace.segments)
        segments[index] = segment
        result.trace = timeline_from(segments)
    else:
        result.trace.replace(index, segment)


class TestValidSchedules:
    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_engine_output_validates(self, policy_name):
        result, model = run_traced(policy_name)
        violations = validate_schedule(result, model)
        assert violations == [], [str(v) for v in violations]

    def test_with_idle_energy(self):
        result, model = run_traced("ccEDF", idle_level=0.7)
        assert validate_schedule(result, model) == []

    def test_requires_trace(self):
        result = simulate(example_taskset(), machine0(),
                          make_policy("EDF"), duration=28.0)
        with pytest.raises(SimulationError):
            validate_schedule(result)


class TestViolationDetection:
    """Corrupt valid results and check the validator notices — edited in
    place on the columns ("array") or rebuilt from an edited ``Segment``
    view ("segments")."""

    @pytest.fixture(params=["array", "segments"])
    def valid(self, request):
        result, model = run_traced("ccEDF")
        rebuild = request.param == "segments"

        def edit(index, segment):
            doctor(result, index, segment, rebuild=rebuild)
        return result, model, edit

    def _kinds(self, result, model):
        return {v.kind for v in validate_schedule(result, model)}

    def test_detects_energy_mismatch(self, valid):
        result, model, edit = valid
        result.energy.idle += 100.0
        assert "energy" in self._kinds(result, model)

    def test_detects_tiling_gap(self, valid):
        result, model, edit = valid
        segment = result.trace[1]
        edit(1, Segment(
            start=segment.start + 0.5, end=segment.end + 0.5,
            task=segment.task, point=segment.point,
            cycles=segment.cycles, energy=segment.energy,
            kind=segment.kind))
        assert "tiling" in self._kinds(result, model)

    def test_detects_wrong_cycle_rate(self, valid):
        result, model, edit = valid
        for index, segment in enumerate(result.trace.segments):
            if segment.kind == "run":
                edit(index, Segment(
                    start=segment.start, end=segment.end,
                    task=segment.task, point=segment.point,
                    cycles=segment.cycles * 2.0, energy=segment.energy,
                    kind=segment.kind))
                break
        kinds = self._kinds(result, model)
        assert "cycles" in kinds

    def test_detects_priority_inversion(self, valid):
        result, model, edit = valid
        # Swap the executing task of an early segment to the lowest-
        # priority task (T3, longest deadline), faking an inversion.
        for index, segment in enumerate(result.trace.segments):
            if segment.kind == "run" and segment.task == "T1" \
                    and segment.start < 1.0:
                edit(index, Segment(
                    start=segment.start, end=segment.end, task="T3",
                    point=segment.point, cycles=segment.cycles,
                    energy=segment.energy, kind=segment.kind))
                break
        kinds = self._kinds(result, model)
        assert "priority" in kinds or "budget" in kinds

    def test_detects_idle_with_ready_work(self, valid):
        result, model, edit = valid
        for index, segment in enumerate(result.trace.segments):
            if segment.kind == "run" and segment.start < 1.0:
                edit(index, Segment(
                    start=segment.start, end=segment.end, task=None,
                    point=segment.point, cycles=0.0,
                    energy=segment.energy, kind="idle"))
                break
        kinds = self._kinds(result, model)
        assert "work-conservation" in kinds or "energy" in kinds

    def test_detects_phantom_execution(self, valid):
        result, model, edit = valid
        last = result.trace[-1]
        edit(len(result.trace) - 1, Segment(
            start=last.start, end=last.end, task="ghost",
            point=last.point,
            cycles=last.duration * last.point.frequency,
            energy=last.energy, kind="run"))
        kinds = self._kinds(result, model)
        assert "budget" in kinds

    def test_violation_str(self):
        v = Violation("priority", 3.5, "something wrong")
        assert "priority" in str(v) and "3.5" in str(v)


class TestPropertyValidation:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(ts=tasksets, fraction=fractions,
           policy_index=st.integers(min_value=0, max_value=5))
    def test_random_runs_always_validate(self, ts, fraction,
                                         policy_index):
        policy_name = PAPER_POLICIES[policy_index]
        if policy_name in ("staticRM", "ccRM") \
                and not rm_exact_schedulable(ts, 1.0):
            return
        duration = min(2.0 * max(t.period for t in ts), 250.0)
        model = EnergyModel(idle_level=0.25)
        result = simulate(ts, machine0(), make_policy(policy_name),
                          demand=fraction, duration=duration,
                          energy_model=model, record_trace=True)
        violations = validate_schedule(result, model)
        assert violations == [], [str(v) for v in violations]


class TestRelativeBudgetTolerance:
    """Budget checks scale their epsilon with the per-job demand.

    The validator re-derives executed cycles from segment bounds, whose
    representation error grows with the magnitudes involved; a flat 1e-6
    used to misfire once demands reached ~1e5 cycles even though the
    relative error was parts per billion.
    """

    def _handmade_result(self, recorded_cycles, demand=1e5, duration=1e6):
        """A single-job schedule whose trace reports ``recorded_cycles``."""
        model = EnergyModel()
        point = machine0().fastest  # f = 1.0, so cycles == seconds
        task = Task(demand, duration, name="big")
        end = recorded_cycles / point.frequency
        trace = SimTimeline()
        run_energy = model.execution_energy(point, recorded_cycles)
        idle_energy = model.idle_energy(point, duration - end)
        trace.record(0.0, end, "big", point, recorded_cycles, run_energy)
        trace.record(end, duration, None, point, 0.0, idle_energy,
                     kind="idle")
        job = Job(task=task, release_time=0.0, demand=demand, index=0,
                  executed=demand, completion_time=end)
        energy = EnergyBreakdown(idle=idle_energy)
        energy.add_execution(point, run_energy)
        result = SimResult(taskset=TaskSet([task]), policy_name="test",
                           scheduler_name="edf", duration=duration,
                           energy=energy, jobs=[job], misses=[],
                           switches=0, trace=trace)
        return result, model

    def test_ppb_error_on_large_demand_is_tolerated(self):
        # 5e-4 absolute error on 1e5 cycles = 5e-9 relative: measurement
        # noise, not an overrun.  The flat epsilon flagged this.
        result, model = self._handmade_result(1e5 + 5e-4)
        violations = validate_schedule(result, model)
        assert violations == [], [str(v) for v in violations]

    def test_real_overrun_is_still_caught(self):
        result, model = self._handmade_result(1e5 * 1.01)
        kinds = {v.kind for v in validate_schedule(result, model)}
        assert "budget" in kinds

    def test_long_duration_run_validates_cleanly(self):
        """End-to-end regression: a 1e6-second simulated run (1e4x the
        usual test horizon) passes every check."""
        ts = TaskSet([Task(2000.0, 12500.0, name="slow"),
                      Task(3000.0, 20000.0, name="mid"),
                      Task(1000.0, 50000.0, name="rare")])
        result, model = run_traced("ccEDF", ts=ts, duration=1e6)
        violations = validate_schedule(result, model)
        assert violations == [], [str(v) for v in violations]
        assert result.met_all_deadlines


class TestRederiveCounters:
    """The independent counter re-derivation matches live instrumentation."""

    def _run(self, ts, policy_name, **kwargs):
        collector = MetricsCollector()
        kwargs.setdefault("demand", 0.7)
        kwargs.setdefault("on_miss", "drop")
        sim = Simulator(ts, machine0(), make_policy(policy_name),
                        record_trace=True, instrument=collector, **kwargs)
        return sim.run(), collector.metrics

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_agrees_with_collector(self, policy_name):
        ts = TaskSetGenerator(n_tasks=6, utilization=0.8,
                              seed=2001).generate()
        result, m = self._run(ts, policy_name, duration=300.0)
        rc = rederive_counters(result)
        assert rc["context_switches"] == m.context_switches
        assert rc["preemptions"] == m.preemptions
        assert rc["deadline_misses"] == m.deadline_misses == len(result.misses)
        assert rc["frequency_transitions"] <= result.switches

    def test_overload_with_drops(self):
        """Dropped jobs stop at their deadline; the re-derivation must
        attribute the merged trace segments accordingly."""
        ts = TaskSet([Task(3, 4, name="A"), Task(3, 4, name="B")])  # U=1.5
        result, m = self._run(ts, "EDF", demand="worst", duration=24.0)
        rc = rederive_counters(result)
        assert rc["deadline_misses"] == len(result.misses) == 6
        assert rc["context_switches"] == m.context_switches == 12
        assert rc["preemptions"] == m.preemptions == 5

    def test_no_dvs_means_no_transitions(self):
        result, _m = self._run(example_taskset(), "EDF", duration=112.0)
        rc = rederive_counters(result)
        assert rc["frequency_transitions"] == result.switches == 0

    def test_requires_trace(self):
        result = simulate(example_taskset(), machine0(),
                          make_policy("EDF"), duration=28.0)
        with pytest.raises(SimulationError):
            rederive_counters(result)

    @pytest.mark.parametrize("policy_name", ("EDF", "ccEDF", "laEDF"))
    def test_cursor_matches_reference_attribution(self, policy_name):
        """The amortized :class:`_TaskDispatchCursor` must reproduce the
        reference per-segment rescan (:func:`_jobs_executed_in`) pair for
        pair — same jobs, same dispatch times — including under overload
        with dropped jobs."""
        from repro.sim.validation import (_TaskDispatchCursor,
                                          _jobs_executed_in)
        ts = TaskSetGenerator(n_tasks=10, utilization=0.9,
                              seed=77).generate()
        result, _m = self._run(ts, policy_name, demand=0.9, duration=400.0)
        by_task = {}
        for job in sorted(result.jobs, key=lambda j: j.release_time):
            if job.demand > 1e-9:
                by_task.setdefault(job.task.name, []).append(job)
        cursors = {}
        checked = 0
        for segment in result.trace.run_segments():
            jobs = by_task.get(segment.task, [])
            reference = _jobs_executed_in(jobs, segment, result.duration)
            cursor = cursors.get(segment.task)
            if cursor is None:
                cursor = cursors[segment.task] = _TaskDispatchCursor(
                    jobs, result.duration)
            fast = cursor.executed_in(segment)
            assert len(fast) == len(reference)
            for (ja, wa), (jb, wb) in zip(fast, reference):
                assert ja is jb and wa == wb
            checked += len(reference)
        assert checked > 0


class TestEngineMatrixValidation:
    """The validator's coverage extends beyond the scalar engine: batch-
    kernel results and the hyperperiod fast path's verified windows must
    satisfy exactly the same trace checks and counter re-derivations."""

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_kernel_results_validate(self, policy_name):
        from repro.sim.batch_kernels import (kernel_simulate,
                                             kernel_supported)
        ts = TaskSetGenerator(n_tasks=6, utilization=0.8,
                              seed=321).generate()
        policy = make_policy(policy_name)
        if policy_name in ("staticRM", "ccRM") \
                and not rm_exact_schedulable(ts, 1.0):
            pytest.skip("set not RM-schedulable")
        assert kernel_supported(policy)
        model = EnergyModel(idle_level=0.3)
        result = kernel_simulate(ts, machine0(), policy, demand=0.7,
                                 duration=200.0, energy_model=model,
                                 record_trace=True)
        violations = validate_schedule(result, model)
        assert violations == [], [str(v) for v in violations]
        rc = rederive_counters(result)
        assert rc["deadline_misses"] == len(result.misses) == 0
        assert rc["frequency_transitions"] <= result.switches

    def test_kernel_counters_match_scalar_engine(self):
        from repro.sim.batch_kernels import kernel_simulate
        ts = TaskSetGenerator(n_tasks=5, utilization=0.9,
                              seed=654).generate()
        model = EnergyModel(idle_level=0.1)
        kwargs = dict(demand=0.8, duration=180.0, energy_model=model,
                      record_trace=True)
        kernel = kernel_simulate(ts, machine0(), make_policy("ccEDF"),
                                 **kwargs)
        scalar = simulate(ts, machine0(), make_policy("ccEDF"), **kwargs)
        assert rederive_counters(kernel) == rederive_counters(scalar)

    def test_kernel_trace_corruption_is_still_caught(self):
        """The validator must stay sharp on kernel-recorded traces, not
        just pass them: the same doctored-segment mutations fire."""
        from repro.sim.batch_kernels import kernel_simulate
        model = EnergyModel(idle_level=0.2)
        result = kernel_simulate(example_taskset(), machine0(),
                                 make_policy("ccEDF"), demand=0.7,
                                 duration=112.0, energy_model=model,
                                 record_trace=True)
        segment = result.trace[1]
        doctor(result, 1, Segment(
            start=segment.start + 0.5, end=segment.end + 0.5,
            task=segment.task, point=segment.point,
            cycles=segment.cycles, energy=segment.energy,
            kind=segment.kind))
        kinds = {v.kind for v in validate_schedule(result, model)}
        assert "tiling" in kinds

    def _harmonic_ts(self):
        return TaskSet([Task(1.0, 4.0, name="A"),
                        Task(2.0, 8.0, name="B"),
                        Task(4.0, 16.0, name="C")])

    @pytest.mark.parametrize("policy_name", ("EDF", "ccEDF", "laEDF"))
    def test_fast_path_warmup_window_validates(self, policy_name):
        """The fast path extrapolates from a short traced simulation;
        that window must itself pass full schedule validation and miss
        re-derivation, and the extrapolated totals must match a full
        traced run of the whole horizon."""
        from repro.sim.steady import try_steady_fast_path
        ts = self._harmonic_ts()
        model = EnergyModel(idle_level=0.25)
        captured = {}

        def capturing(*args, **kwargs):
            result = simulate(*args, **kwargs)
            captured["run"] = result
            return result

        outcome, reason = try_steady_fast_path(
            ts, machine0(), make_policy(policy_name), demand=0.7,
            duration=2000.0, energy_model=model, simulate_fn=capturing)
        assert reason == "ok" and outcome is not None
        window = captured["run"]
        violations = validate_schedule(window, model)
        assert violations == [], [str(v) for v in violations]
        counters = rederive_counters(window)
        assert counters["deadline_misses"] == len(window.misses) == 0
        assert counters["frequency_transitions"] <= window.switches

        full = simulate(ts, machine0(), make_policy(policy_name),
                        demand=0.7, duration=2000.0, energy_model=model,
                        record_trace=True)
        assert validate_schedule(full, model) == []
        assert outcome.total_energy \
            == pytest.approx(full.total_energy, rel=1e-9)
        assert outcome.executed_cycles \
            == pytest.approx(full.executed_cycles, rel=1e-9)

    def test_fast_path_window_corruption_is_caught(self):
        """A doctored warmup window cannot silently extrapolate: the
        trace checks that guard the fast path's inputs fire on it."""
        from repro.sim.steady import try_steady_fast_path
        model = EnergyModel(idle_level=0.25)
        captured = {}

        def capturing(*args, **kwargs):
            result = simulate(*args, **kwargs)
            captured["run"] = result
            return result

        _outcome, reason = try_steady_fast_path(
            self._harmonic_ts(), machine0(), make_policy("ccEDF"),
            demand=0.7, duration=2000.0, energy_model=model,
            simulate_fn=capturing)
        assert reason == "ok"
        window = captured["run"]
        window.energy.idle += 10.0
        kinds = {v.kind for v in validate_schedule(window, model)}
        assert "energy" in kinds
