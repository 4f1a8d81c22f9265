"""Differential tests for the per-cell kernel.

:mod:`repro.sim.batch_kernels` is the simulator every sweep cell runs on:
:func:`repro.sim.batch_kernels.batch_simulate` is ``run_cell``'s default.
Its one promise is *bit identity*: the flat-array kernel must produce
exactly the outcome the discrete-event engine produces — same energies,
same switch counts, same misses, same trace, same residency metrics, same
aggregate tables — serial/parallel, cold/warm cache, and with numpy
unimportable.
These tests hold that line against the event engine at run level, at
cell level over every catalog panel, and at sweep level; the throughput
side lives in
``benchmarks/write_bench_json.py`` (``fig9_sweep_batch``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sweep import (
    SweepConfig,
    aggregate_outcomes,
    materialize_cell,
    materialize_demand,
    run_cell,
    sweep_cell_specs,
    sweep_context,
    utilization_sweep,
)
from repro.catalog import load_catalog
from repro.core import PAPER_POLICIES, make_policy
from repro.core.no_dvs import NoDVS
from repro.errors import ReproError
from repro.hw.machine import machine0, machine1
from repro.model.demand import TraceDemand, demand_from_spec
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet
from repro.obs.hooks import HotCounters, Instrumentation
from repro.obs.metrics import MetricsCollector
from repro.sim import batch_kernels
from repro.sim.batch_kernels import (
    CellKernel,
    cell_params,
    kernel_simulate,
    kernel_supported,
    release_stream,
)
from repro.sim.engine import simulate

POLICIES = ("EDF", "staticEDF", "staticRM", "ccEDF", "ccRM", "laEDF")

MACHINE = machine0()

#: Small but policy-complete sweep: every paper policy, two task sets per
#: utilization point, a horizon long enough for misses and idle regions.
TINY = dict(n_tasks=3, n_sets=2, utilizations=(0.3, 0.7), duration=400.0,
            seed=5)

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def engine_sweep(**config):
    """The reference: every cell replayed on the event engine, folded by
    the sweep's own aggregation."""
    sweep_config = SweepConfig(**config)
    context = sweep_context(sweep_config)
    outcomes = [run_cell(context, spec, simulate_fn=simulate)
                for spec in sweep_cell_specs(sweep_config)]
    return aggregate_outcomes(sweep_config, outcomes)


def canon(result):
    """Every observable field of a SimResult, as comparable values."""
    trace = None
    if result.trace is not None:
        trace = tuple(tuple(col) for col in result.trace.columns())
    return {
        "policy": result.policy_name,
        "exec_by_point": dict(result.energy.execution),
        "idle": result.energy.idle,
        "switch": result.energy.switch,
        "total": result.energy.total,
        "switches": result.switches,
        "jobs": [(j.task.name, j.release_time, j.demand, j.executed,
                  j.completion_time, j.index) for j in result.jobs],
        "misses": [(m.task_name, m.release_time, m.deadline, m.demand,
                    m.executed) for m in result.misses],
        "trace": trace,
    }


def snap(result):
    """Every observable aggregate of a SweepResult."""
    return {
        "raw": result.raw.rows(),
        "normalized": result.normalized.rows(),
        "std": result.std,
        "rm_fallbacks": result.rm_fallbacks,
        "residency": {name: table.rows()
                      for name, table in result.residency.items()},
    }


class TestKernelMatchesEngine:
    """Run-level differential: kernel_simulate vs engine.simulate."""

    # Catalog panels use 5-10 tasks; sets that size make laEDF reposition
    # releases mid-order and run ccRM's quota walk over many slots,
    # which 3-task sets barely do.
    @RELAXED
    @given(seed=st.integers(0, 10_000),
           n_tasks=st.integers(2, 10),
           utilization=st.floats(0.2, 1.0),
           policy=st.sampled_from(POLICIES),
           on_miss=st.sampled_from(("raise", "drop")),
           demand=st.sampled_from((None, "uniform", 0.7)),
           record_trace=st.booleans())
    def test_bit_identical_or_same_error(self, seed, n_tasks, utilization,
                                         policy, on_miss, demand,
                                         record_trace):
        taskset = TaskSetGenerator(n_tasks=n_tasks, utilization=utilization,
                                   seed=seed).generate()
        duration = 3.0 * max(t.period for t in taskset)
        kwargs = dict(duration=duration, on_miss=on_miss, demand=demand,
                      record_trace=record_trace)
        assert kernel_supported(make_policy(policy), on_miss=on_miss)
        try:
            engine = canon(simulate(taskset, MACHINE, make_policy(policy),
                                    **kwargs))
        except ReproError as exc:
            engine = (type(exc).__name__, str(exc))
        try:
            kernel = canon(kernel_simulate(taskset, MACHINE,
                                           make_policy(policy), **kwargs))
        except ReproError as exc:
            kernel = (type(exc).__name__, str(exc))
        assert engine == kernel

    def test_kernel_envelope(self):
        policy = make_policy("ccEDF")
        assert kernel_supported(policy)
        assert not kernel_supported(policy, on_miss="continue")
        assert not kernel_supported(policy, admissions=[object()])
        assert not kernel_supported(policy, enforce_wcet=False)
        assert not kernel_supported(object())
        # Run-level instruments ride the kernel; per-event ones do not.
        assert kernel_supported(policy, instrument=MetricsCollector())
        assert not kernel_supported(
            policy, instrument=MetricsCollector(self_profile=True))

        class PerRelease(Instrumentation):
            def on_release(self, sim, job):
                pass

        assert not kernel_supported(policy, instrument=PerRelease())
        with pytest.raises(ReproError, match="per-event"):
            CellKernel(TaskSet([Task(1.0, 4.0, "A")]), MACHINE, policy,
                       instrument=PerRelease())


def assert_kernel_matches_engine(taskset, make, **kwargs):
    """Run ``make()`` on both simulators: same outcome (or same error),
    the energy dict in the same insertion order, and ``jobs`` equal field
    by field.  Returns the kernel's result (``None`` on an error)."""
    outcomes = []
    for simulate_fn in (simulate, kernel_simulate):
        try:
            result = simulate_fn(taskset, MACHINE, make(), **kwargs)
        except ReproError as exc:
            outcomes.append(((type(exc).__name__, str(exc)), None))
        else:
            outcomes.append(((canon(result),
                              list(result.energy.execution.items()),
                              result.executed_cycles), result))
    assert outcomes[0][0] == outcomes[1][0]
    return outcomes[1][1]


class TestKernelOrders:
    """The kernel's release stream, ready heap and per-slot arrays follow the
    engine's orders exactly at the points where orders decide."""

    @pytest.mark.parametrize("policy", ["EDF", "ccEDF", "laEDF"])
    def test_equal_deadline_edf_ties_go_to_the_lower_index(self, policy):
        # Names out of order: ties follow task-set position, not names.
        taskset = TaskSet([Task(1.0, 4.0, name="b"),
                           Task(1.0, 4.0, name="a"),
                           Task(0.5, 2.0, name="c"),
                           Task(1.0, 4.0, name="T10")])
        result = assert_kernel_matches_engine(
            taskset, lambda: make_policy(policy), demand=0.8,
            duration=16.0, record_trace=True)
        first_runs = []
        for segment in result.trace.run_segments():
            if segment.task not in first_runs:
                first_runs.append(segment.task)
        assert first_runs == ["c", "b", "a", "T10"]

    @pytest.mark.parametrize("make", [
        lambda: make_policy("staticRM"), lambda: make_policy("ccRM"),
        lambda: NoDVS(scheduler="rm")])
    def test_equal_period_rm_ties_go_to_the_lower_index(self, make):
        taskset = TaskSet([Task(0.5, 5.0, name="z"),
                           Task(1.0, 10.0, name="y"),
                           Task(0.75, 5.0, name="x"),
                           Task(1.0, 10.0, name="w")])
        result = assert_kernel_matches_engine(
            taskset, make, demand=0.9, duration=30.0, record_trace=True)
        order = [s.task for s in result.trace.run_segments()][:4]
        assert order == ["z", "x", "y", "w"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_instant_release_batches(self, policy):
        # Harmonic periods: every task releases together at t = 0, 8,
        # 16, ... and pairs of them at every multiple of 2 and 4.
        taskset = TaskSet([Task(0.4, 2.0), Task(0.8, 4.0), Task(1.0, 8.0),
                           Task(1.2, 8.0), Task(0.5, 4.0)])
        result = assert_kernel_matches_engine(
            taskset, lambda: make_policy(policy), demand="uniform",
            duration=64.0, record_trace=True)
        assert len(result.jobs) == 32 + 16 + 8 + 8 + 16

    @pytest.mark.parametrize("offset", [-5e-10, 0.0, 5e-10])
    @pytest.mark.parametrize("policy", ["EDF", "ccEDF", "laEDF"])
    def test_completion_within_eps_of_a_release(self, policy, offset):
        # B runs [0, 1]; A then completes at 2 + offset, within _EPS of
        # B's second release at t = 2.
        taskset = TaskSet([Task(1.0 + offset, 8.0, name="A"),
                           Task(1.0, 2.0, name="B")])
        result = assert_kernel_matches_engine(
            taskset, lambda: make_policy(policy), demand="worst",
            duration=16.0, record_trace=True)
        if policy == "EDF":  # full speed: A ends at 2 + offset
            first = result.jobs[0]
            assert first.task.name == "A"
            assert abs(first.completion_time - 2.0) <= 1e-9

    @pytest.mark.parametrize("on_miss", ["drop", "raise"])
    def test_drop_mode_miss_removes_the_ready_job(self, on_miss):
        # Full-speed RM (run_cell's fallback) on a set that is
        # EDF-schedulable only: B misses at t = 5 with 0.5 cycles left,
        # and its late job must leave the ready heap.
        taskset = TaskSet([Task(2.0, 4.0, name="A"),
                           Task(2.5, 5.0, name="B")])
        result = assert_kernel_matches_engine(
            taskset, lambda: NoDVS(scheduler="rm"), on_miss=on_miss,
            duration=40.0, record_trace=True)
        if on_miss == "drop":
            assert result.misses
            assert [m.executed for m in result.misses][0] == 2.0

    def test_drop_mode_misses_in_a_crowded_ready_heap(self):
        missed = 0
        for seed in range(12):
            taskset = TaskSetGenerator(n_tasks=9, utilization=0.97,
                                       seed=seed).generate()
            result = assert_kernel_matches_engine(
                taskset, lambda: NoDVS(scheduler="rm"), on_miss="drop",
                demand="worst",
                duration=3.0 * max(t.period for t in taskset))
            missed += len(result.misses)
        assert missed > 10

    def test_jobs_equal_field_by_field(self):
        taskset = TaskSetGenerator(n_tasks=8, utilization=0.85,
                                   seed=21).generate()
        kwargs = dict(demand="uniform", duration=400.0, on_miss="drop")
        engine = simulate(taskset, MACHINE, make_policy("laEDF"), **kwargs)
        kernel = kernel_simulate(taskset, MACHINE, make_policy("laEDF"),
                                 **kwargs)
        # Summed from the flat records before any Job exists...
        cycles = kernel.executed_cycles
        assert cycles == engine.executed_cycles
        assert len(kernel.jobs) == len(engine.jobs) > 100
        for mine, theirs in zip(kernel.jobs, engine.jobs):
            assert mine.task is theirs.task
            assert (mine.release_time, mine.demand, mine.index,
                    mine.executed, mine.completion_time) == \
                (theirs.release_time, theirs.demand, theirs.index,
                 theirs.executed, theirs.completion_time)
        # ...and from the built jobs afterwards, to the same bits.
        assert kernel.executed_cycles == cycles
        assert kernel == engine


class TestSharedDemandRows:
    """``cell_params`` builds each cell's WCET-clipped demand rows once;
    every policy run of the cell reads them instead of the model."""

    CONFIG = SweepConfig(n_tasks=5, n_sets=1, utilizations=(0.6,),
                         duration=300.0, seed=13)

    def _cell(self):
        context = sweep_context(self.CONFIG)
        spec = sweep_cell_specs(self.CONFIG)[0]
        taskset, demand = materialize_cell(context, spec)
        return context, spec, taskset, demand

    def test_rows_are_clipped_like_the_engine(self):
        context, spec, taskset, demand = self._cell()
        # Over-WCET entries: the rows must hold min(d, wcet).
        inflated = TraceDemand(
            {name: [2.0 * value for value in values]
             for name, values in demand.trace.items()},
            repeat=False)
        rows = cell_params(taskset, inflated)[2]
        assert all(value <= task.wcet
                   for task, row in zip(taskset, rows) for value in row)
        for make in (lambda: make_policy("laEDF"),
                     lambda: make_policy("ccRM")):
            engine = simulate(taskset, MACHINE, make(), demand=inflated,
                              duration=300.0)
            kernel = kernel_simulate(taskset, MACHINE, make(),
                                     demand=inflated, duration=300.0,
                                     params=cell_params(taskset, inflated))
            assert canon(kernel) == canon(engine)
        assert run_cell(context, spec, materialized=(taskset, inflated)) \
            == run_cell(context, spec, simulate_fn=simulate,
                        materialized=(taskset, inflated))

    def test_truncated_trace_still_underflows(self):
        context, spec, taskset, demand = self._cell()
        errors = []
        for simulate_fn in (None, simulate):
            truncated = TraceDemand(
                {name: values[:max(1, len(values) // 2)]
                 for name, values in demand.trace.items()},
                repeat=False)
            with pytest.raises(ReproError,
                               match="materialized demand trace "
                                     "underflowed") as info:
                run_cell(context, spec, simulate_fn=simulate_fn,
                         materialized=(taskset, truncated))
            errors.append(str(info.value))
        # Releases past a row's end still reach the model, so the
        # fallback draws (and the message) match the engine's.
        assert errors[0] == errors[1]


class TestReleaseStream:
    """Every kernel run of a cell walks one release stream, built by the
    cell's first run; the stream replays the engine's release order, near
    coincident float releases included."""

    # Accumulated releases of 0.1, 0.3, 1/3 and 1.0 meet within _EPS
    # without being equal (0.1 * 3 sums to 0.30000000000000004, 0.1 * 10
    # to 0.9999999999999999), so their phases span two instants.
    FLOAT_EDGE = TaskSet([Task(0.03, 0.1, name="A"),
                          Task(0.06, 0.3, name="B"),
                          Task(0.02, 1.0 / 3.0, name="C"),
                          Task(0.05, 1.0, name="D")])
    DURATION = 3.0

    def _float_edge_demand(self):
        # At full speed A runs [0, 0.03], B [0.03, 0.09] and C's first
        # job ends 5e-10 before A's second release at 0.1.
        return TraceDemand({"A": [0.03, 0.01, 0.02] * 10,
                            "B": [0.06, 0.04] * 5,
                            "C": [0.01 - 5e-10] + [0.015] * 8,
                            "D": [0.05, 0.03, 0.04]},
                           repeat=False)

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = batch_kernels.release_stream

        def counting(periods, rows, duration):
            builds.append(duration)
            return build(periods, rows, duration)

        monkeypatch.setattr(batch_kernels, "release_stream", counting)
        return builds

    def test_float_edge_phases_span_two_instants(self):
        entries, times = release_stream(
            [t.period for t in self.FLOAT_EDGE], None, self.DURATION)
        split = [(first, second) for first, second
                 in zip(entries, entries[1:])
                 if 0.0 < second[0] - first[0] <= 1e-9]
        # Slot order inside such a phase differs from time order: only
        # the kernel's re-sort puts the phase back in task-set order.
        assert any(second[1] < first[1] for first, second in split)
        assert times[:-1] == [entry[0] for entry in entries]
        assert times[-1] >= self.DURATION - 1e-9

    @pytest.mark.parametrize("on_miss", ["raise", "drop"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_float_edge_periods_match_the_engine(self, policy, on_miss):
        demand = self._float_edge_demand()
        kwargs = dict(demand=demand, duration=self.DURATION,
                      on_miss=on_miss, record_trace=True)
        engine = simulate(self.FLOAT_EDGE, MACHINE, make_policy(policy),
                          **kwargs)
        own = kernel_simulate(self.FLOAT_EDGE, MACHINE, make_policy(policy),
                              **kwargs)
        shared = kernel_simulate(self.FLOAT_EDGE, MACHINE,
                                 make_policy(policy),
                                 params=cell_params(self.FLOAT_EDGE, demand),
                                 **kwargs)
        assert canon(own) == canon(engine)
        assert canon(shared) == canon(engine)
        assert demand.fallback_draws == 0
        if policy == "EDF":
            first_c = next(job for job in engine.jobs
                           if job.task.name == "C")
            assert 0.1 - 1e-9 < first_c.completion_time < 0.1

    def test_release_counts_match_engine_jobs(self):
        taskset = TaskSetGenerator(n_tasks=4, utilization=0.6,
                                   seed=9).generate()
        duration = 2.5 * max(t.period for t in taskset)
        result = simulate(taskset, MACHINE, make_policy("EDF"),
                          duration=duration, on_miss="drop")
        per_task = {t.name: 0 for t in taskset}
        for job in result.jobs:
            per_task[job.task.name] += 1
        entries, _ = release_stream([t.period for t in taskset], None,
                                    duration)
        counts = [0] * len(taskset)
        for entry in entries:
            counts[entry[1]] += 1
        assert counts == [per_task[t.name] for t in taskset]

    def test_release_counts_horizon_coincident(self):
        # The at-the-horizon release is suppressed, exactly like the
        # engine's `release < duration - eps` loop condition; it is the
        # sentinel that ends ``times``.
        entries, times = release_stream([10.0], None, 100.0)
        assert len(entries) == 10 and times[-1] == 100.0
        entries, times = release_stream([10.0], None, 100.1)
        assert len(entries) == 11 and times[-1] == 110.0

    def test_one_build_per_cell(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        config = SweepConfig(n_tasks=4, n_sets=2, utilizations=(0.5, 0.9),
                             duration=200.0, seed=3)
        context = sweep_context(config)
        specs = sweep_cell_specs(config)
        for spec in specs:
            run_cell(context, spec)
        assert builds == [200.0] * len(specs)

    def test_another_duration_builds_its_own_stream(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        demand = self._float_edge_demand()
        params = cell_params(self.FLOAT_EDGE, demand)
        for duration in (self.DURATION, self.DURATION, 2.0):
            kernel = kernel_simulate(self.FLOAT_EDGE, MACHINE,
                                     make_policy("ccEDF"), demand=demand,
                                     duration=duration, params=params)
            engine = simulate(self.FLOAT_EDGE, MACHINE, make_policy("ccEDF"),
                              demand=demand, duration=duration)
            assert canon(kernel) == canon(engine)
        assert builds == [self.DURATION, 2.0]

    def test_rm_fallback_shares_the_stream(self, monkeypatch):
        # EDF-schedulable only: staticRM and ccRM fall back to full-speed
        # RM in drop mode, and B misses.
        taskset = TaskSet([Task(2.0, 4.0, name="A"),
                           Task(2.5, 5.0, name="B")])
        config = SweepConfig(n_tasks=2, n_sets=1, utilizations=(0.9,),
                             duration=40.0)
        context = sweep_context(config)
        spec = sweep_cell_specs(config)[0]
        demand = materialize_demand(demand_from_spec("worst"), taskset,
                                    config.duration)
        builds = self._count_builds(monkeypatch)
        outcome = run_cell(context, spec, materialized=(taskset, demand))
        assert outcome["_rm_fallbacks"] == 2
        assert builds == [40.0]
        assert outcome == run_cell(context, spec, simulate_fn=simulate,
                                   materialized=(taskset, demand))
        # A stream built ahead of the drop-mode run: the run walks it.
        params = cell_params(taskset, demand)
        params.stream(config.duration)
        kernel = kernel_simulate(taskset, MACHINE, NoDVS(scheduler="rm"),
                                 demand=demand, duration=config.duration,
                                 on_miss="drop", params=params)
        engine = simulate(taskset, MACHINE, NoDVS(scheduler="rm"),
                          demand=demand, duration=config.duration,
                          on_miss="drop")
        assert builds == [40.0, 40.0]
        assert kernel.misses and canon(kernel) == canon(engine)


class TestKernelCollectorMatchesEngine:
    """Residency collection on the kernel: every deterministic metric
    must equal the event engine's, for all six paper policies."""

    @pytest.mark.parametrize("on_miss", ["raise", "drop"])
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_deterministic_metrics_identical(self, policy, on_miss):
        compared = 0
        for seed, demand in enumerate((None, "uniform", 0.7) * 2):
            for utilization in (0.5, 0.9, 1.0):
                taskset = TaskSetGenerator(n_tasks=5,
                                           utilization=utilization,
                                           seed=seed).generate()
                machine = machine1() if seed % 2 else MACHINE
                runs = []
                for simulate_fn in (simulate, kernel_simulate):
                    collector = MetricsCollector()
                    try:
                        simulate_fn(taskset, machine, make_policy(policy),
                                    demand=demand, duration=600.0,
                                    on_miss=on_miss, instrument=collector)
                    except ReproError as exc:
                        runs.append((type(exc).__name__, str(exc)))
                    else:
                        runs.append(collector.metrics.deterministic_dict())
                assert runs[0] == runs[1]
                compared += isinstance(runs[0], dict)
        assert compared  # at least one run finished and was compared

    def test_counters_flushed_like_the_engine(self):
        taskset = TaskSetGenerator(n_tasks=6, utilization=0.8,
                                   seed=3).generate()

        class CountersOnly(Instrumentation):
            def __init__(self):
                self.counters = HotCounters()

        tallies = []
        for simulate_fn in (simulate, kernel_simulate):
            instrument = CountersOnly()
            simulate_fn(taskset, MACHINE, make_policy("laEDF"),
                        demand=0.6, duration=500.0, instrument=instrument)
            tallies.append(instrument.counters.as_dict())
        assert tallies[0] == tallies[1]
        assert tallies[0]["preemptions"] > 0


def _catalog_panels():
    return [(name, panel) for name, scenario in sorted(load_catalog().items())
            for panel in scenario.panels]


class TestRunCellMatchesEventEngine:
    """Cell-level oracle: for sampled cells of every catalog panel, the
    production ``run_cell`` (per-cell kernel) must return exactly what
    the event engine returns, ``_residency`` included."""

    @pytest.mark.parametrize(
        "name,panel", _catalog_panels(),
        ids=[f"{name}/{panel.label}" for name, panel in _catalog_panels()])
    def test_sampled_cells_bit_identical(self, name, panel):
        config = panel.sweep_config(quick=True)
        context = sweep_context(config)
        specs = sweep_cell_specs(config)
        # Four cells spread over the panel, the last one at its top
        # utilization (the densest schedules, RM fallbacks included).
        last = len(specs) - 1
        for index in sorted({0, last // 3, 2 * last // 3, last}):
            spec = specs[index]
            expected = run_cell(context, spec, simulate_fn=simulate)
            assert run_cell(context, spec) == expected


#: A fresh interpreter imports the sweep and service layers (which must
#: not load the kernel module: start-up time), then runs a scalar sweep
#: of all six paper policies (the RM ones run the response-time
#: analysis at setup) with short periods, so every policy run
#: releases far more than 64 jobs (the old numpy threshold of the
#: kernel's final deadline check).  It reports whether the kernel loaded
#: on import, whether numpy got imported, and the smallest job count of
#: any run.
_LAZY_SNIPPET = """
import sys
import repro.service
from repro.analysis.sweep import (SweepConfig, sweep_cell_specs,
                                  sweep_context, materialize_cell,
                                  utilization_sweep)
eager = "repro.sim.batch_kernels" in sys.modules
config = SweepConfig(policies=("EDF", "staticEDF", "ccEDF", "laEDF",
                               "staticRM", "ccRM"),
                     n_tasks=5, n_sets=2, utilizations=(0.5, 0.9),
                     period_bands=((5.0, 20.0),), duration=400.0,
                     residency_policies=("ccEDF", "laEDF"), seed=7)
utilization_sweep(config)
imported = "numpy" in sys.modules
from repro.core import make_policy
from repro.sim.batch_kernels import kernel_simulate
context = sweep_context(config)
jobs = []
for spec in sweep_cell_specs(config):
    taskset, _ = materialize_cell(context, spec)
    result = kernel_simulate(taskset, context.machine, make_policy("EDF"),
                             duration=config.duration)
    jobs.append(len(result.jobs))
print(eager, imported, min(jobs))
"""


class TestScalarPathStaysNumpyFree:
    def test_scalar_sweep_never_imports_numpy(self):
        # ...and importing the sweep and service layers loads no kernel.
        proc = _run_snippet(_LAZY_SNIPPET)
        eager, imported, jobs = proc.stdout.split()
        assert int(jobs) >= 64
        assert (eager, imported) == ("False", "False")


def _run_snippet(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout's ``src``."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          check=True)


#: A fresh interpreter whose ``import numpy`` raises ImportError (a
#: ``sys.meta_path`` finder, so no environment switch is involved) runs
#: the TINY sweep with residency, encodes cells the way pool and
#: distributed workers do, parses and resolves a served request, and
#: imports the service and distribution packages.  It prints whether the
#: blocker held, whether numpy loaded, and the sweep's tables.
_NUMPY_BLOCKED_SNIPPET = """
import json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked in this interpreter")
        return None

sys.meta_path.insert(0, NoNumpy())
try:
    import numpy  # noqa: F401
    blocked = False
except ImportError:
    blocked = True
import repro.dist, repro.service
from repro.analysis.batch import encode_cells
from repro.analysis.sweep import SweepConfig, utilization_sweep
from repro.analysis.transport import decode_cell
from repro.service.protocol import parse_request, resolve_jobs

config = json.loads(sys.argv[1])
result = utilization_sweep(SweepConfig(**config))
tables = repr((result.raw.rows(), result.normalized.rows(), result.std,
               result.rm_fallbacks,
               {name: table.rows() for name, table in result.residency.items()}))
job, = resolve_jobs(parse_request(
    {"spec": {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
              "utilizations": [0.5, 0.9]}}))
cells = [decode_cell(payload)
         for payload in encode_cells(job.context, job.specs)]
print(json.dumps({"blocked": blocked, "numpy": "numpy" in sys.modules,
                  "cells": len(cells), "tables": tables}))
"""


class TestBatchSweepIdentity:
    """Sweep-level differential: the per-cell kernel vs every cell
    replayed on the event engine."""

    def test_unknown_engine_rejected(self):
        # SweepConfig.engine is kept for the repository benchmark only;
        # it still accepts just the two names that benchmark passes.
        for name in ("vector", "batch"):
            with pytest.raises(ReproError,
                               match="expected one of 'scalar', 'block'"):
                SweepConfig(engine=name, **TINY)

    def test_batch_bit_identical(self):
        reference = engine_sweep(**TINY)
        scalar = utilization_sweep(SweepConfig(**TINY))
        assert snap(reference) == snap(scalar)
        assert (scalar.block_cells, scalar.block_fallbacks) == (0, {})

    def test_batch_bit_identical_numpy_off(self):
        config = dict(TINY, residency_policies=("ccEDF", "laEDF"))
        proc = _run_snippet(_NUMPY_BLOCKED_SNIPPET, json.dumps(config))
        report = json.loads(proc.stdout)
        assert report["blocked"] and not report["numpy"]
        assert report["cells"] == 4
        here = utilization_sweep(SweepConfig(**config))
        expected = repr((here.raw.rows(), here.normalized.rows(), here.std,
                         here.rm_fallbacks,
                         {name: table.rows()
                          for name, table in here.residency.items()}))
        assert report["tables"] == expected

    def test_batch_with_residency_instrumentation(self):
        # The kernel drives the residency collectors and must reproduce
        # the event engine's tables.
        config = dict(TINY, residency_policies=("ccEDF", "laEDF"))
        reference = engine_sweep(**config)
        scalar = utilization_sweep(SweepConfig(**config))
        assert snap(reference) == snap(scalar)
        assert scalar.residency  # the instrumented table actually exists

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_workers_and_cache(self, tmp_path, workers):
        # A warm rerun over the cold run's cache hits every cell.
        scalar = utilization_sweep(SweepConfig(**TINY))
        config = dict(TINY, workers=workers, cache_dir=str(tmp_path))
        cold = utilization_sweep(SweepConfig(**config))
        warm = utilization_sweep(SweepConfig(**config))
        assert snap(scalar) == snap(cold) == snap(warm)
        assert cold.simulated_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]
        assert warm.simulated_cells == 0
        assert warm.cache_hits == cold.simulated_cells
