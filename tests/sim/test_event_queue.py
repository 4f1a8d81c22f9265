"""The indexed event engine against its two independent oracles.

The engine's hot path runs on heaps (release queue, lazy-deletion ready
queue), an admission index and a cached policy wakeup.  Two simulators
that share none of that code pin its semantics:

* inside the envelope of the flat-array
  :class:`~repro.sim.batch_kernels.CellKernel` (no admissions, no policy
  timer, ``on_miss`` "raise"/"drop", no per-event hooks),
  :func:`~repro.sim.batch_kernels.kernel_simulate` agrees bit for bit on
  energy, misses, switches, per-job completion times and
  ``MetricsCollector`` output, on random schedulable task sets under
  ccEDF/laEDF with early completions (and both meet every deadline);
* outside it, the tick-quantized :class:`~repro.sim.ticksim.TickSimulator`
  replays dynamic admissions (immediate and deferred), avgDVS timer
  wakeups, ``on_miss="continue"`` and a 1000-admission storm: job counts
  and per-task release times agree exactly, miss sets exactly where slack
  exceeds the tick, and energy within the quantization error;
* pathological-but-legal event storms (1000 same-instant admissions with
  switch halts) terminate instead of tripping the fixed-point guard;
* releases/deadlines coinciding with the simulation horizon follow the
  documented convention in the engine, the kernel and the tick simulator.

Periods in these workloads are multiples of the tick (and ticks are
powers of two), so every periodic release lands on a tick boundary.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis.sweep import materialize_demand
from repro.core import make_policy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.no_dvs import NoDVS
from repro.hw.energy import EnergyModel
from repro.hw.machine import machine0
from repro.hw.regulator import SwitchingModel
from repro.model.demand import UniformFractionDemand
from repro.model.generator import TaskSetGenerator
from repro.model.job import JobOutcome
from repro.model.task import Task, TaskSet
from repro.obs import EventLog, MetricsCollector
from repro.sim.batch_kernels import CellKernel, kernel_simulate
from repro.sim.engine import Admission, SchedulerView, Simulator
from repro.sim.ticksim import TickSimulator

from tests.conftest import fractions, tasksets

#: Default tick of the tick-simulator comparisons: a power of two, so
#: tick boundaries are exact and the quarter-unit periods of
#: ``tests.conftest.tasksets`` land on them.
TICK = 2.0 ** -6


def run_engine_and_kernel(ts, policy_name, **kwargs):
    """Run the event engine and the cell kernel on identical inputs."""
    engine = Simulator(ts, machine0(), make_policy(policy_name),
                       **kwargs).run()
    kernel = kernel_simulate(ts, machine0(), make_policy(policy_name),
                             **kwargs)
    return engine, kernel


def assert_identical(engine, kernel):
    """Bit-for-bit agreement on everything the sweeps consume."""
    assert engine.total_energy == kernel.total_energy
    assert engine.energy.idle == kernel.energy.idle
    assert engine.energy.switch == kernel.energy.switch
    assert len(engine.jobs) == len(kernel.jobs)
    assert engine.switches == kernel.switches
    assert len(engine.misses) == len(kernel.misses)
    for a, b in zip(engine.jobs, kernel.jobs):
        assert a.task.name == b.task.name
        assert a.release_time == b.release_time
        assert a.completion_time == b.completion_time
        assert a.executed == b.executed


def run_engine_and_ticksim(ts, policy_name, tick=TICK, **kwargs):
    """Run the event engine and the tick simulator on identical inputs."""
    engine = Simulator(ts, machine0(), make_policy(policy_name),
                       **kwargs).run()
    quantized = TickSimulator(ts, machine0(), make_policy(policy_name),
                              tick=tick, **kwargs).run()
    return engine, quantized


def release_times(jobs):
    """Release times per task name, in release order."""
    by_task = defaultdict(list)
    for job in jobs:
        by_task[job.task.name].append(job.release_time)
    return dict(by_task)


def miss_set(result):
    """``(task, release)`` of every miss, from either result type."""
    misses = getattr(result, "misses", None)
    if misses is not None:
        return sorted((m.task_name, m.release_time) for m in misses)
    return sorted((job.task.name, job.release_time)
                  for job in result.missed)


def assert_agree_within_ticks(engine, quantized, deferred=()):
    """Exact job counts, release times (save for ``deferred`` tasks,
    whose first release follows a quantized completion) and miss sets;
    energy within the quantization error."""
    assert len(engine.jobs) == len(quantized.jobs)
    exact, ticked = release_times(engine.jobs), release_times(quantized.jobs)
    assert exact.keys() == ticked.keys()
    for name in exact:
        if name in deferred:
            assert len(exact[name]) == len(ticked[name])
        else:
            assert exact[name] == ticked[name]
    assert miss_set(engine) == miss_set(quantized)
    assert quantized.energy == pytest.approx(engine.total_energy,
                                             rel=0.02, abs=1.0)


def assert_deferral_rule(result, admission):
    """A deferred task first releases when the last job in flight at its
    admission completes (at the admission itself when none was)."""
    blockers = [job for job in result.jobs
                if job.release_time < admission.time
                and (job.completion_time is None
                     or job.completion_time > admission.time)]
    expected = max((job.completion_time for job in blockers),
                   default=admission.time)
    releases = release_times(result.jobs)[admission.task.name]
    assert releases[0] == expected
    period = admission.task.period
    for earlier, later in zip(releases, releases[1:]):
        assert later == earlier + period
    return blockers


class TestEquivalenceProperty:
    """Indexed engine == cell kernel inside its envelope, tick simulator
    outside it."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ts=tasksets, fraction=fractions,
           policy_index=st.integers(min_value=0, max_value=1))
    def test_random_tasksets_agree_exactly(self, ts, fraction, policy_index):
        policy_name = ("ccEDF", "laEDF")[policy_index]
        fraction = min(fraction, 0.9)  # early completions drive DVS hooks
        duration = 3.0 * max(t.period for t in ts)
        engine, kernel = run_engine_and_kernel(ts, policy_name,
                                               demand=fraction,
                                               duration=duration)
        assert_identical(engine, kernel)
        assert engine.met_all_deadlines
        assert kernel.met_all_deadlines

    @pytest.mark.parametrize("policy_name", ("ccEDF", "laEDF"))
    @pytest.mark.parametrize("seed", (11, 42, 77))
    def test_generated_sets_with_random_demands(self, policy_name, seed):
        ts = TaskSetGenerator(n_tasks=8, utilization=0.75,
                              seed=seed).generate()
        demand = materialize_demand(UniformFractionDemand(seed=seed),
                                    ts, 500.0)
        engine, kernel = run_engine_and_kernel(ts, policy_name,
                                               demand=demand,
                                               duration=500.0)
        assert_identical(engine, kernel)
        assert engine.met_all_deadlines

    @pytest.mark.parametrize("policy_name", ("ccEDF", "laEDF"))
    def test_ticksim_agrees_within_quantization(self, policy_name):
        ts = TaskSet([Task(2, 8), Task(3, 12), Task(1, 6)])
        model = EnergyModel(idle_level=0.2)
        indexed = Simulator(ts, machine0(), make_policy(policy_name),
                            demand=0.7, duration=48.0,
                            energy_model=model).run()
        quantized = TickSimulator(ts, machine0(), make_policy(policy_name),
                                  demand=0.7, duration=48.0, tick=0.004,
                                  energy_model=model).run()
        assert quantized.energy == pytest.approx(indexed.total_energy,
                                                 rel=0.03, abs=1.0)
        assert indexed.met_all_deadlines and quantized.met_all_deadlines

    def test_wakeup_timer_policy_agrees(self):
        """avgDVS fires a timer every interval and reads ``busy_time``:
        the engine's cached wakeup path against the tick simulator's
        per-tick wakeup check."""
        ts = TaskSetGenerator(n_tasks=5, utilization=0.6, seed=9).generate()
        logs = []
        results = []
        for engine_cls, extra in ((Simulator, {}),
                                  (TickSimulator, {"tick": TICK})):
            collector = MetricsCollector()
            results.append(engine_cls(
                ts, machine0(), make_policy("avgDVS"), demand=0.8,
                duration=400.0, on_miss="drop", instrument=collector,
                **extra).run())
            logs.append(collector.metrics)
        engine, quantized = results
        assert_agree_within_ticks(engine, quantized)
        exact, ticked = logs
        # 10, 20, ..., 390: the window close due at the 400 horizon is
        # suppressed, like a release there.
        assert exact.wakeups == ticked.wakeups == 39
        assert ticked.busy_time == pytest.approx(exact.busy_time, rel=0.01)
        assert ticked.busy_time + ticked.idle_time \
            == pytest.approx(400.0, rel=1e-9)

    @pytest.mark.parametrize("on_miss", ("drop", "continue"))
    def test_overload_modes_agree(self, on_miss):
        """Lazy heap deletion (drop) matches the kernel's one-slot ready
        queue; duplicate ready entries (continue) match the tick
        simulator's late jobs running beside their successors."""
        ts = TaskSet([Task(3, 4, name="A"), Task(3, 4, name="B")])  # U=1.5
        if on_miss == "drop":
            engine, kernel = run_engine_and_kernel(
                ts, "EDF", demand="worst", duration=24.0, on_miss=on_miss)
            assert_identical(engine, kernel)
            assert not engine.met_all_deadlines
            return
        engine, quantized = run_engine_and_ticksim(
            ts, "EDF", demand="worst", duration=24.0, on_miss=on_miss)
        assert_agree_within_ticks(engine, quantized)
        assert not engine.met_all_deadlines
        for result in (engine, quantized):
            # late jobs kept running: some finish after their deadline
            assert any(job.completion_time is not None
                       and job.completion_time > job.absolute_deadline
                       for job in result.jobs)
        assert [j.completion_time for j in engine.jobs] \
            == [j.completion_time for j in quantized.jobs]

    def test_admissions_and_deferrals_agree(self):
        """Deferred first releases follow a completion, which the tick
        simulator quantizes: they are checked against the deferral rule
        in each simulator; every other release time agrees exactly."""
        ts = TaskSetGenerator(n_tasks=4, utilization=0.5, seed=3).generate()
        admissions = [
            Admission(time=40.0, task=Task(1.0, 20.0, name="d1"),
                      defer=True),
            Admission(time=40.0, task=Task(0.5, 10.0, name="n1"),
                      defer=False),
            Admission(time=120.0, task=Task(2.0, 50.0, name="d2"),
                      defer=True),
        ]
        for policy_name in ("ccEDF", "laEDF"):
            engine, quantized = run_engine_and_ticksim(
                ts, policy_name, tick=2.0 ** -8, demand=0.7,
                duration=400.0, on_miss="drop", admissions=admissions)
            assert_agree_within_ticks(engine, quantized,
                                      deferred=("d1", "d2"))
            assert release_times(engine.jobs)["n1"][0] == 40.0
            for result in (engine, quantized):
                assert result.met_all_deadlines
                # the first deferral is real: a job was in flight
                assert assert_deferral_rule(result, admissions[0])
                assert_deferral_rule(result, admissions[2])

    def test_deferred_release_times_exact(self):
        """Full speed, binary-exact parameters: every completion lands on
        a tick boundary, so deferred first releases agree exactly too."""
        ts = TaskSet([Task(1.0, 4.0, name="A"), Task(2.0, 8.0, name="B"),
                      Task(2.0, 16.0, name="C")])
        admissions = [
            Admission(time=2.0, task=Task(1.0, 8.0, name="d1"),
                      defer=True),
            Admission(time=2.0, task=Task(0.5, 8.0, name="n1"),
                      defer=False),
            Admission(time=21.0, task=Task(1.0, 16.0, name="d2"),
                      defer=True),
        ]
        engine, quantized = run_engine_and_ticksim(
            ts, "EDF", tick=2.0 ** -4, demand="worst", duration=96.0,
            admissions=admissions)
        assert_agree_within_ticks(engine, quantized)
        assert quantized.energy == engine.total_energy
        releases = release_times(engine.jobs)
        assert releases["n1"][0] == 2.0
        # d1 waits for B (running) and C (queued); C finishes at 6.5
        assert releases["d1"][0] == 6.5
        assert releases["d2"][0] > 21.0
        for admission in admissions:
            if admission.defer:
                assert_deferral_rule(engine, admission)
                assert_deferral_rule(quantized, admission)

    @pytest.mark.parametrize("policy_name", ("staticEDF", "ccEDF",
                                             "staticRM"))
    def test_admission_hook_fires_at_admission(self, policy_name):
        """``on_task_added`` reserves a deferred task's utilization at
        its admission, not at its first release: the speed rises at
        t=1 in both simulators."""
        ts = TaskSet([Task(1.8, 4.0, name="A")])  # U=0.45: half speed
        admission = Admission(time=1.0, task=Task(0.4, 4.0, name="d"),
                              defer=True)
        changes = []
        for engine_cls, extra in ((Simulator, {}),
                                  (TickSimulator, {"tick": 2.0 ** -4})):
            log = EventLog()
            result = engine_cls(ts, machine0(), make_policy(policy_name),
                                demand="worst", duration=16.0,
                                admissions=[admission], instrument=log,
                                **extra).run()
            assert_deferral_rule(result, admission)
            changes.append([(r["t"], r["from"], r["to"])
                            for r in log.records
                            if r["type"] == "frequency_change"
                            and r["t"] <= admission.time])
        assert changes[0] == changes[1] == [(1.0, 0.5, 0.75)]


class _ViewProbeMixin:
    """Snapshots every :class:`SchedulerView` read at each hook: the
    per-task queries, the per-slot arrays and the job the view reports
    for every task."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def _snapshot(self, view, event):
        jobs = view.current_jobs()
        # Arrays a simulator maintains equal the base class's derivation
        # from its jobs.
        for read in ("slot_executed", "slot_completed", "slot_invocation",
                     "slot_deadline"):
            assert list(getattr(view, read)()) \
                == getattr(SchedulerView, read)(view), read
        self.reads.append((
            event, view.time, view.earliest_deadline(),
            list(view.slot_executed()), list(view.slot_completed()),
            list(view.slot_invocation()), list(view.slot_deadline()),
            [None if job is None else
             (job.task.name, job.release_time, job.demand, job.index,
              job.executed, job.completion_time) for job in jobs],
            [(view.current_deadline(task), view.worst_case_remaining(task),
              view.executed_in_invocation(task), view.invocation_of(task),
              view.job_of(task) == jobs[slot])
             for slot, task in enumerate(view.taskset)]))

    def setup(self, view):
        self._snapshot(view, "setup")
        return super().setup(view)

    def on_release(self, view, task):
        self._snapshot(view, ("release", task.name))
        return super().on_release(view, task)

    def on_completion(self, view, task):
        self._snapshot(view, ("completion", task.name))
        return super().on_completion(view, task)


class _ViewProbe(_ViewProbeMixin, CycleConservingEDF):
    """ccEDF, probed."""


class _NoDVSViewProbe(_ViewProbeMixin, NoDVS):
    """Plain EDF at full speed, probed (accepts an overloaded set)."""


class TestSchedulerViewParity:
    """Every view read a policy can make returns the same values on the
    kernel (flat per-slot arrays, snapshot jobs) as on the engine
    (``Job`` objects, arrays derived by the base class)."""

    @pytest.mark.parametrize("on_miss", ("raise", "drop"))
    @pytest.mark.parametrize("seed", (3, 8))
    def test_every_read_matches(self, seed, on_miss):
        ts = TaskSetGenerator(n_tasks=6, utilization=0.9,
                              seed=seed).generate()
        probes = []
        for engine_cls in (Simulator, CellKernel):
            probe = _ViewProbe()
            engine_cls(ts, machine0(), probe, demand="uniform",
                       duration=2.0 * max(t.period for t in ts),
                       on_miss=on_miss).run()
            probes.append(probe.reads)
        assert len(probes[0]) > 50
        assert probes[0] == probes[1]

    def test_engine_arrays_outside_the_kernel_envelope(self):
        """The engine's maintained arrays track its jobs where only the
        engine runs: admissions (deferred and immediate) and late jobs
        that run on behind their successors under ``continue``."""
        overloaded = TaskSet([Task(3.0, 4.0, name="A"),
                              Task(3.0, 5.0, name="B")])
        ts = TaskSetGenerator(n_tasks=4, utilization=0.6,
                              seed=3).generate()
        admissions = [
            Admission(time=40.0, task=Task(1.0, 20.0, name="d1")),
            Admission(time=40.0, task=Task(0.5, 10.0, name="n1"),
                      defer=False)]
        for taskset, probe, extra in (
                (overloaded, _NoDVSViewProbe(), {"on_miss": "continue"}),
                (ts, _ViewProbe(), {"admissions": admissions})):
            Simulator(taskset, machine0(), probe, demand=0.8,
                      duration=120.0, **extra).run()
            assert len(probe.reads) > 20

    def test_unknown_task_reads_as_absent(self):
        ts = TaskSet([Task(1.0, 4.0, name="A")])
        kernel = CellKernel(ts, machine0(), make_policy("EDF"))
        stranger = Task(1.0, 4.0, name="Z")
        assert kernel.job_of(stranger) is None
        assert kernel.current_deadline(stranger) is None
        assert kernel.worst_case_remaining(stranger) == 0.0
        assert kernel.executed_in_invocation(stranger) == 0.0
        assert kernel.invocation_of(stranger) == -1


class TestAdmissionStorm:
    """Many same-instant events must terminate: the fixed-point guard now
    scales with the pending event count instead of a magic constant."""

    N = 1000

    def _storm(self, engine_cls, **kwargs):
        base = TaskSet([Task(1.0, 5.0, name="base")])
        admissions = [
            Admission(time=5.0, task=Task(0.0004, 1.0, name=f"s{i}"),
                      defer=False)
            for i in range(self.N)
        ]
        sim = engine_cls(
            base, machine0(), CycleConservingEDF(), demand="worst",
            duration=12.0, admissions=admissions, **kwargs)
        return sim.run()

    def test_thousand_same_instant_admissions_complete(self):
        result = self._storm(
            Simulator, record_trace=True,
            switching=SwitchingModel(frequency_switch_time=1e-7,
                                     voltage_switch_time=1e-6))
        assert len(result.taskset) == self.N + 1
        assert result.met_all_deadlines
        # every admitted task got released and ran to completion
        outcomes = result.job_outcomes()
        assert outcomes[JobOutcome.MISSED] == 0
        assert len(result.jobs) > self.N
        # the switch halts really happened
        assert result.switches > 0
        assert any(seg.kind == "switch" for seg in result.trace)

    def test_storm_matches_baseline(self):
        """The same storm without switch halts, against the independent
        tick simulator.  A storm job lasts about two ticks of 2^-12, and
        each completion idles out the rest of its tick, so the tick is
        finer still."""
        exact = self._storm(Simulator)
        quantized = self._storm(TickSimulator, tick=2.0 ** -14)
        assert len(exact.jobs) == len(quantized.jobs) == 3 + 7 * self.N
        assert quantized.met_all_deadlines
        assert quantized.energy == pytest.approx(exact.total_energy,
                                                 rel=0.02)

    def test_event_budget_scales_with_pending_admissions(self):
        base = TaskSet([Task(1.0, 5.0, name="base")])
        many = [Admission(time=1.0, task=Task(0.01, 1.0, name=f"a{i}"))
                for i in range(50_000)]
        sim = Simulator(base, machine0(), make_policy("EDF"),
                        admissions=many, duration=10.0)
        # The pre-refactor flat bound (100_000) could be exceeded by legal
        # workloads; the budget must stay above the pending event count.
        assert sim._event_budget() > 50_000


class TestHorizonConvention:
    """Releases/deadlines coinciding with ``duration`` (periods dividing
    the horizon exactly) — pinned to the documented convention."""

    def test_no_release_at_exact_horizon(self):
        ts = TaskSet([Task(1.0, 5.0, name="A"), Task(2.0, 10.0, name="B")])
        result = Simulator(ts, machine0(), make_policy("EDF"),
                           demand="worst", duration=20.0).run()
        assert len(result.jobs) == 4 + 2  # releases at 0,5,10,15 / 0,10
        assert max(j.release_time for j in result.jobs) == 15.0
        assert result.met_all_deadlines

    def test_deadline_exactly_at_horizon_is_enforced(self):
        """A job whose deadline is the horizon must finish inside the run;
        at U=1 the completion lands exactly on ``duration`` and counts."""
        ts = TaskSet([Task(5.0, 5.0, name="C")])
        result = Simulator(ts, machine0(), make_policy("EDF"),
                           demand="worst", duration=20.0).run()
        assert len(result.jobs) == 4
        assert result.met_all_deadlines
        last = result.jobs[-1]
        assert last.completion_time == pytest.approx(20.0, abs=1e-9)
        assert last.outcome(20.0) is JobOutcome.COMPLETED

    def test_unfinishable_final_job_is_flagged(self):
        """The symmetric case: a final-period job that cannot finish by
        the horizon-deadline is reported by _final_deadline_check."""
        from repro.core.fixed import FixedSpeed
        ts = TaskSet([Task(5.0, 5.0, name="C")])
        slow = machine0().slowest.frequency  # < 1: cannot sustain U=1
        result = Simulator(ts, machine0(), FixedSpeed(slow),
                           demand="worst", duration=20.0,
                           on_miss="drop").run()
        assert not result.met_all_deadlines

    @pytest.mark.parametrize("engine_cls",
                             (Simulator, CellKernel, TickSimulator))
    def test_convention_identical_across_engines(self, engine_cls):
        ts = TaskSet([Task(1.0, 4.0, name="A"), Task(3.0, 12.0, name="B")])
        extra = {"tick": TICK} if engine_cls is TickSimulator else {}
        result = engine_cls(ts, machine0(), make_policy("laEDF"),
                            demand="worst", duration=24.0, **extra).run()
        assert len(result.jobs) == 6 + 2
        assert max(j.release_time for j in result.jobs) == 20.0
        assert result.met_all_deadlines

    def test_ticksim_counts_the_same_jobs(self):
        ts = TaskSet([Task(1.0, 5.0, name="A"), Task(2.0, 10.0, name="B")])
        exact = Simulator(ts, machine0(), make_policy("EDF"),
                          demand="worst", duration=20.0).run()
        quantized = TickSimulator(ts, machine0(), make_policy("EDF"),
                                  demand="worst", duration=20.0,
                                  tick=0.01).run()
        assert len(exact.jobs) == len(quantized.jobs)
        assert quantized.met_all_deadlines


class TestMetricsDifferential:
    """Instrumentation output across the engine and its oracles.

    Against the cell kernel (run-level hooks only) the collector's
    output is bit-identical; against the tick simulator, which fires
    every per-event hook, the event stream matches job by job.
    """

    @staticmethod
    def _collect(engine_cls, ts, policy_name, **kwargs):
        collector = MetricsCollector()
        engine_cls(ts, machine0(), make_policy(policy_name),
                   instrument=collector, **kwargs).run()
        return collector.metrics

    @staticmethod
    def _log(engine_cls, ts, policy_name, **kwargs):
        log = EventLog()
        engine_cls(ts, machine0(), make_policy(policy_name),
                   instrument=log, **kwargs).run()
        return log.records

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ts=tasksets, fraction=fractions,
           policy_index=st.integers(min_value=0, max_value=1))
    def test_metrics_bit_identical(self, ts, fraction, policy_index):
        policy_name = ("ccEDF", "laEDF")[policy_index]
        fraction = min(fraction, 0.9)
        duration = 3.0 * max(t.period for t in ts)
        engine = self._collect(Simulator, ts, policy_name,
                               demand=fraction, duration=duration)
        kernel = self._collect(CellKernel, ts, policy_name,
                               demand=fraction, duration=duration)
        assert engine.deterministic_dict() == kernel.deterministic_dict()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ts=tasksets, fraction=fractions,
           policy_index=st.integers(min_value=0, max_value=1))
    # The engine completes T2#37 at 47.2494, within a tick of the 47.25
    # horizon; the tick run cannot finish it in time.  Its deadline,
    # 47.5, lies past the horizon, so it is no miss in either run.
    @example(ts=TaskSet([Task(0.40247, 1.0, name="T1"),
                         Task(0.40247, 1.25, name="T2"),
                         Task(0.40247, 15.75, name="T3")]),
             fraction=0.875, policy_index=1)
    def test_event_stream_identical(self, ts, fraction, policy_index):
        """Not just final counts: the per-event hooks fire for the same
        jobs — releases identically, completions and misses per job.
        Tick quantization moves a completion by up to a tick, so the one
        exemption is a job that one run completes within a tick of the
        horizon and whose deadline lies past it: it can never be a
        miss, and the other run may stop before finishing it."""
        policy_name = ("ccEDF", "laEDF")[policy_index]
        fraction = min(fraction, 0.9)
        duration = 3.0 * max(t.period for t in ts)
        exact = self._log(Simulator, ts, policy_name, demand=fraction,
                          duration=duration, on_miss="drop")
        ticked = self._log(TickSimulator, ts, policy_name, demand=fraction,
                           duration=duration, tick=TICK)

        def of_type(records, kind, fields):
            return [tuple(r[f] for f in fields) for r in records
                    if r["type"] == kind]

        release = ("t", "task", "index", "demand")
        releases = of_type(exact, "release", release)
        assert releases == of_type(ticked, "release", release)
        deadline = {(name, index): t + ts.by_name(name).deadline
                    for t, name, index, _ in releases}

        def completions(records):
            done = of_type(records, "completion", ("task", "index", "t"))
            return {(name, index): t for name, index, t in done}

        exact_done, ticked_done = completions(exact), completions(ticked)
        for job in set(exact_done) ^ set(ticked_done):
            finished = exact_done.get(job, ticked_done.get(job))
            assert finished >= duration - TICK, job
            assert deadline[job] > duration, job
        assert sorted(of_type(exact, "deadline_miss", ("task",))) \
            == sorted(of_type(ticked, "deadline_miss", ("task",)))

    @pytest.mark.parametrize("policy_name", ("ccEDF", "laEDF", "avgDVS"))
    @pytest.mark.parametrize("seed", (11, 42, 77))
    def test_generated_sets_metrics_identical(self, policy_name, seed):
        ts = TaskSetGenerator(n_tasks=8, utilization=0.75,
                              seed=seed).generate()
        demand = materialize_demand(UniformFractionDemand(seed=seed),
                                    ts, 500.0)
        engine = self._collect(Simulator, ts, policy_name, demand=demand,
                               duration=500.0, on_miss="drop")
        if policy_name != "avgDVS":
            kernel = self._collect(CellKernel, ts, policy_name,
                                   demand=demand, duration=500.0,
                                   on_miss="drop")
            assert engine.deterministic_dict() \
                == kernel.deterministic_dict()
            return
        # avgDVS's timer puts it outside the kernel's envelope.  It is
        # not deadline-safe, so its misses (and the speeds its busy-time
        # windows pick) may flip with quantization; the timer and the
        # job stream may not.
        ticked = self._collect(TickSimulator, ts, policy_name,
                               demand=demand, duration=500.0, tick=TICK)
        assert engine.jobs_released == ticked.jobs_released
        # 10, 20, ..., 490: none at the 500 horizon.
        assert engine.wakeups == ticked.wakeups == 49
        assert ticked.busy_time == pytest.approx(engine.busy_time,
                                                 rel=0.01)
        for metrics in (engine, ticked):
            assert metrics.busy_time + metrics.idle_time \
                == pytest.approx(500.0, rel=1e-9)
            assert metrics.residency_total \
                == pytest.approx(500.0, rel=1e-9)

    def test_overload_metrics_identical(self):
        ts = TaskSet([Task(3, 4, name="A"), Task(3, 4, name="B")])  # U=1.5
        engine = self._collect(Simulator, ts, "EDF", demand="worst",
                               duration=24.0, on_miss="drop")
        kernel = self._collect(CellKernel, ts, "EDF", demand="worst",
                               duration=24.0, on_miss="drop")
        assert engine.deadline_misses == 6
        assert engine.deterministic_dict() == kernel.deterministic_dict()
