"""Differential and property tests for the maintained policy state.

The contract under test (the per-cell fast path's first layer): for every
paper policy, the production class — running aggregates updated in
O(1)/O(log n) per event — must produce **bit-identical** simulations to
the from-scratch oracle in :mod:`tests.core.scratch_policies`, and the
oracle's per-callback :class:`~tests.core.scratch_policies.StateChecker`
must catch a corrupted aggregate instead of letting it select silently.

Hypothesis drives long random event sequences two ways:

* whole-simulation differentials through the real engine (releases,
  completions, idle transitions, dynamic admissions via
  :class:`~repro.sim.engine.Admission`) and through
  :class:`~repro.sim.batch_kernels.CellKernel`, the simulator sweep cells
  run on;
* hook-level sequences against a stub view (releases, completions, task
  adds *and removes* — the engine has no removal path, so the removal
  aggregates are exercised directly; and, for laEDF, jobs run between
  hooks, which no simulator does, so reused walks can go stale).

Deterministic cases pin ccEDF's decision band and guard-band recompute
at every frequency threshold of machine0 and machine2, the one
frequency-selection bisect at the same thresholds, laEDF's walk reuse
and its fallbacks, and all three policies at a utilization of exactly
1.0.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import cycle_conserving
from repro.core.cycle_conserving import _GUARD, CycleConservingEDF
from repro.core.cycle_conserving_rm import CycleConservingRM
from repro.core.look_ahead import LookAheadEDF
from repro.errors import SchedulabilityError
from repro.hw.machine import machine0, machine2
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.batch_kernels import kernel_simulate
from repro.model.job import Job
from repro.sim.batch_kernels import lowest_at_least_indices, set_numpy_enabled
from repro.sim.engine import Admission, SchedulerView, simulate
from repro.sim.ticksim import TickSimulator
from tests.core.scratch_policies import (ORACLE_PAIRS, ScratchCcEDF,
                                         ScratchLaEDF, StateChecker,
                                         StateDivergence)

_SLOW = settings(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

MACHINES = {"machine0": machine0, "machine2": machine2}


def _fingerprint(result):
    """Everything a sweep consumes, bit-for-bit."""
    return (result.total_energy, result.executed_cycles,
            result.switches, len(result.misses),
            tuple(sorted((j.task.name, j.index, j.completion_time)
                         for j in result.jobs if j.is_complete)))


def _assert_matches_oracle(policy_name, taskset, machine,
                           simulator=simulate, **kwargs):
    """Production, oracle and checked-production runs on ``simulator``
    agree bit-for-bit, over-unity counts included (or all reject the
    task set with ``SchedulabilityError``)."""
    production, oracle = ORACLE_PAIRS[policy_name]
    try:
        fast_policy = production()
        fast = simulator(taskset, machine, fast_policy, **kwargs)
    except SchedulabilityError:
        with pytest.raises(SchedulabilityError):
            simulator(taskset, machine, oracle(), **kwargs)
        return None
    slow_policy = oracle()
    slow = simulator(taskset, machine, slow_policy, **kwargs)
    assert _fingerprint(fast) == _fingerprint(slow)
    assert getattr(fast_policy, "over_unity_events", None) == \
        getattr(slow_policy, "over_unity_events", None)
    checker = StateChecker(production())
    checked = simulator(taskset, machine, checker, **kwargs)
    assert _fingerprint(checked) == _fingerprint(fast)
    assert checker.checks > 0
    return fast


class TestWholeSimulationDifferential:
    """production == from-scratch oracle == checked on full runs."""

    @pytest.mark.parametrize("policy_name", sorted(ORACLE_PAIRS))
    @_SLOW
    @given(seed=st.integers(0, 5000), n=st.integers(2, 8),
           u=st.floats(0.15, 0.95), fraction=st.floats(0.3, 1.0),
           fine_machine=st.booleans(), admit=st.booleans())
    def test_bit_identical_simresults(self, policy_name, seed, n, u,
                                      fraction, fine_machine, admit):
        taskset = TaskSetGenerator(n_tasks=n, utilization=u,
                                   seed=seed).generate()
        machine = machine2() if fine_machine else machine0()
        admissions = []
        if admit:
            admissions = [Admission(time=40.0,
                                    task=Task(0.5, 20.0, name="late"),
                                    defer=True)]
        _assert_matches_oracle(policy_name, taskset, machine,
                               demand=fraction, duration=150.0,
                               on_miss="drop", admissions=admissions)

    @pytest.mark.parametrize("policy_name", sorted(ORACLE_PAIRS))
    @_SLOW
    @given(seed=st.integers(0, 5000), n=st.integers(2, 10),
           u=st.floats(0.15, 0.95), fraction=st.floats(0.3, 1.0),
           fine_machine=st.booleans())
    def test_kernel_bit_identical_simresults(self, policy_name, seed, n, u,
                                             fraction, fine_machine):
        """The same contract on ``CellKernel``, which every sweep cell
        runs on: its batched ``on_releases_invalidate`` is where laEDF
        repositions.  No admissions — they are outside
        the kernel's envelope."""
        taskset = TaskSetGenerator(n_tasks=n, utilization=u,
                                   seed=seed).generate()
        machine = machine2() if fine_machine else machine0()
        kwargs = dict(demand=fraction, duration=150.0, on_miss="drop")
        fast = _assert_matches_oracle(policy_name, taskset, machine,
                                      simulator=kernel_simulate, **kwargs)
        if fast is not None:
            production, _ = ORACLE_PAIRS[policy_name]
            engine = simulate(taskset, machine, production(), **kwargs)
            assert _fingerprint(fast) == _fingerprint(engine)


class _StubView(SchedulerView):
    """The minimal SchedulerView surface the ccEDF hooks touch (the base
    class derives ``executed_in_invocation`` and the per-slot arrays from
    ``job_of`` and ``current_jobs``)."""

    def __init__(self, taskset, machine):
        self.taskset = taskset
        self.machine = machine
        self.time = 0.0
        self.jobs = {}

    def job_of(self, task):
        return self.jobs.get(task.name)

    def current_jobs(self):
        return [self.jobs.get(task.name) for task in self.taskset]


def _outcome(hook, *args):
    """A hook's selected point, or the error type it raised."""
    try:
        return hook(*args)
    except SchedulabilityError:
        return SchedulabilityError


class TestHookLevelSequences:
    """Random release/completion/add/remove sequences straight into the
    hooks: the running ``ΣU_i`` must track the exact table sum."""

    POOL = tuple(Task(0.4 + 0.07 * i, 8.0 + 1.5 * i, name=f"P{i}")
                 for i in range(8))

    @_SLOW
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["release", "complete", "add", "remove"]),
                  st.integers(0, 7), st.floats(0.0, 1.0)),
        min_size=1, max_size=400))
    def test_ccedf_aggregate_tracks_exact_sum(self, ops):
        initial = TaskSet(list(self.POOL[:4]))
        view = _StubView(initial, machine0())
        # The checker raises as soon as the running sum leaves the exact
        # table sum's tolerance.
        policies = [StateChecker(CycleConservingEDF()), ScratchCcEDF()]
        for policy in policies:
            policy.setup(view)
        present = {task.name for task in initial}
        for kind, index, fraction in ops:
            task = self.POOL[index]
            view.time += 0.25
            if kind == "add" and task.name not in present:
                present.add(task.name)
                points = [p.on_task_added(view, task) for p in policies]
            elif kind == "remove" and task.name in present and \
                    len(present) > 1:
                present.remove(task.name)
                view.jobs.pop(task.name, None)
                points = [p.on_task_removed(view, task) for p in policies]
            elif kind == "release" and task.name in present:
                view.jobs[task.name] = SimpleNamespace(
                    executed=0.0, index=0, is_complete=False)
                points = [p.on_release(view, task) for p in policies]
            elif kind == "complete" and task.name in present:
                view.jobs[task.name] = SimpleNamespace(
                    executed=fraction * task.wcet, index=0,
                    is_complete=True)
                points = [p.on_completion(view, task) for p in policies]
            else:
                continue
            # Production and oracle pick the same operating point, every
            # event.
            assert points[0] is points[1]

    def test_ccedf_resync_restores_exact_sum(self, monkeypatch):
        monkeypatch.setattr(cycle_conserving, "_RESYNC_INTERVAL", 4)
        view = _StubView(example_taskset(), machine0())
        policy = CycleConservingEDF()
        policy.setup(view)
        task = view.taskset[0]
        for k in range(8):
            view.jobs[task.name] = SimpleNamespace(
                executed=0.3 * task.wcet, index=k, is_complete=True)
            policy.on_completion(view, task)
        assert policy._total == sum(policy._utilization.values())

    def test_ccrm_remove_drops_quota_and_rescales(self):
        taskset = TaskSet([Task(1.0, 8.0, name="A"),
                           Task(1.0, 16.0, name="B")])
        view = _StubView(taskset, machine0())
        view.earliest_deadline = lambda: None
        policy = CycleConservingRM()
        policy.setup(view)
        before = policy.static_frequency
        reduced = TaskSet([Task(1.0, 8.0, name="A")])
        view.taskset = reduced
        point = policy.on_task_removed(view, taskset[1])
        assert policy._slot_of == {"A": 0}
        assert policy._allotted == [0.0] and policy._active == []
        assert policy.static_frequency <= before + 1e-12
        assert point is machine0().slowest or point.frequency > 0

    def test_laedf_remove_rebuilds_utilization(self):
        taskset = TaskSet([Task(1.0, 8.0, name="A"),
                           Task(1.0, 16.0, name="B")])
        view = _StubView(taskset, machine0())
        view.earliest_deadline = lambda: None
        view.current_deadline = lambda task: None
        view.worst_case_remaining = lambda task: 0.0
        policy = LookAheadEDF()
        policy.setup(view)
        reduced = TaskSet([Task(1.0, 8.0, name="A")])
        view.taskset = reduced
        policy.on_task_removed(view, taskset[1])
        assert policy._total_util == reduced.utilization
        assert set(policy._index_of) == {"A"}


# ---------------------------------------------------------------------------
# decision boundaries and utilization exactly 1.0
# ---------------------------------------------------------------------------

#: Offsets from each threshold, in units of ``_GUARD``: inside the guard
#: band (recomputed exactly) and just outside it (memoized band path).
GUARD_OFFSETS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)

#: Offsets of a few hundred ulps, the size of the running sum's drift:
#: the running and exact sums can straddle the threshold here.
DRIFT_OFFSETS = (-3e-4, -1e-4, -3e-5, 3e-5, 1e-4, 3e-4)

#: Harmonic periods summing to a utilization of exactly 1.0 in floats.
FULL_SET = (Task(2.0, 4.0, name="A"), Task(2.0, 8.0, name="B"),
            Task(2.0, 8.0, name="C"))


def _threshold_targets(machine, offsets=GUARD_OFFSETS):
    """ΣU values around every ``f_j + 1e-9`` selection threshold."""
    return [f + 1e-9 + k * _GUARD
            for f in machine.frequencies for k in offsets]


class TestDecisionBoundaries:
    """ccEDF's memoized band and guard-band recompute run on every
    selection; they must reproduce the oracle's choice at each
    threshold, where a drifted running sum would flip it."""

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_hook_level_sum_at_every_threshold(self, machine_name):
        machine = MACHINES[machine_name]()
        base = Task(1.0, 10.0, name="base")
        probe = Task(9.0, 10.0, name="probe")
        view = _StubView(TaskSet([base, probe]), machine)
        policies = [StateChecker(CycleConservingEDF()), ScratchCcEDF()]
        for policy in policies:
            policy.setup(view)
        offsets = GUARD_OFFSETS + DRIFT_OFFSETS
        raised = 0
        for index, target in enumerate(_threshold_targets(machine, offsets)):
            # Unrelated completions between targets carry drift into the
            # running sum.
            for k in range(7):
                view.jobs[base.name] = SimpleNamespace(
                    executed=0.1 + 0.123456789 * k, index=k,
                    is_complete=True)
                completed = [_outcome(p.on_completion, view, base)
                             for p in policies]
                assert completed[0] is completed[1]
            view.time += 0.5
            view.jobs[probe.name] = SimpleNamespace(
                executed=0.0, index=index, is_complete=False)
            released = [_outcome(p.on_release, view, probe)
                        for p in policies]
            assert released[0] is released[1]
            # U_probe chosen so ΣU lands on the target (to within ulps).
            rest = policies[1]._utilization[base.name]
            view.jobs[probe.name] = SimpleNamespace(
                executed=(target - rest) * probe.period, index=index,
                is_complete=True)
            completed = [_outcome(p.on_completion, view, probe)
                         for p in policies]
            assert completed[0] is completed[1], target
            raised += completed[0] is SchedulabilityError
        # Only targets past the top threshold 1 + 1e-9 are over-unity
        # (the one on it may round either way, identically on both).
        over = sum(1 for k in offsets if k > 0.0)
        assert raised in (over, over + 1)

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("demand", [1.0, 0.6])
    def test_task_set_at_every_threshold(self, machine_name, demand):
        machine = MACHINES[machine_name]()
        for target in _threshold_targets(machine):
            rest = target - 0.25
            taskset = TaskSet([Task(1.0, 4.0, name="A"),
                               Task(rest * 8.0, 8.0, name="B")])
            assert abs(taskset.utilization - target) < 1e-15
            _assert_matches_oracle("ccEDF", taskset, machine,
                                   demand=demand, duration=64.0,
                                   on_miss="drop")

    @pytest.mark.parametrize("policy_name", sorted(ORACLE_PAIRS))
    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("demand", [1.0, 0.6])
    def test_utilization_exactly_one(self, policy_name, machine_name,
                                     demand):
        taskset = TaskSet(list(FULL_SET))
        assert taskset.utilization == 1.0
        result = _assert_matches_oracle(
            policy_name, taskset, MACHINES[machine_name](), demand=demand,
            duration=160.0)
        assert result is not None and result.met_all_deadlines

    @pytest.mark.parametrize("policy_name", sorted(ORACLE_PAIRS))
    def test_task_set_over_unity_raises_on_both(self, policy_name):
        taskset = TaskSet(list(FULL_SET[:2])
                          + [Task(2.0 + 1.6e-8, 8.0, name="C")])
        assert taskset.utilization == pytest.approx(1.0 + 2e-9, abs=1e-15)
        for policy_class in ORACLE_PAIRS[policy_name]:
            with pytest.raises(SchedulabilityError):
                simulate(taskset, machine0(), policy_class(),
                         duration=40.0)

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_admission_over_unity_raises_on_both(self, machine_name):
        view = _StubView(TaskSet(list(FULL_SET)), MACHINES[machine_name]())
        late = Task(2e-8, 10.0, name="late")
        for policy in (CycleConservingEDF(), ScratchCcEDF()):
            assert policy.setup(view) is view.machine.fastest
            with pytest.raises(SchedulabilityError):
                policy.on_task_added(view, late)


class TestSelectionBoundaries:
    """``Machine.lowest_at_least`` is the one frequency-selection
    primitive (one bisect, no memo): at every threshold ``f_j + 1e-9``,
    and a few ulps either side, it must pick what a linear scan of the
    table picks, on repeated calls too, and the block engine's
    ``lowest_at_least_indices`` must agree with and without numpy."""

    ULPS = 4

    @staticmethod
    def _linear(machine, speed):
        for point in machine.points:
            if point.frequency >= speed - 1e-9:
                return point
        return machine.fastest

    @classmethod
    def _speeds(cls, machine):
        speeds = [0.0, -0.5]
        for frequency in machine.frequencies:
            speed = frequency + 1e-9
            below = above = speed
            speeds.append(speed)
            for _ in range(cls.ULPS):
                below = math.nextafter(below, -math.inf)
                above = math.nextafter(above, math.inf)
                speeds += [below, above]
        return [speed for speed in speeds if speed <= 1.0 + 1e-7]

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_bisect_matches_linear_scan_at_every_threshold(self,
                                                           machine_name):
        machine = MACHINES[machine_name]()
        speeds = self._speeds(machine)
        assert len(speeds) > 8 * len(machine)
        for speed in speeds + speeds[::-1]:
            assert machine.lowest_at_least(speed) is \
                self._linear(machine, speed), speed

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_block_selection_matches(self, machine_name, numpy_on):
        machine = MACHINES[machine_name]()
        speeds = self._speeds(machine) * 4  # past the numpy size cut
        set_numpy_enabled(numpy_on)
        try:
            indices = lowest_at_least_indices(machine, speeds)
        finally:
            set_numpy_enabled(True)
        assert [machine.points[i] for i in indices] == \
            [machine.lowest_at_least(speed) for speed in speeds]


class _JobView(_StubView):
    """A stub view over real :class:`~repro.model.job.Job` objects whose
    earliest deadline, like the engine's, counts completed jobs."""

    def earliest_deadline(self):
        deadlines = [job.absolute_deadline for job in self.jobs.values()]
        return min(deadlines) if deadlines else None


def _tick_fingerprint(result):
    return (result.energy, result.executed_cycles, len(result.missed),
            tuple(sorted((j.task.name, j.index, j.completion_time)
                         for j in result.jobs if j.is_complete)))


class TestLaEDFWalkReuse:
    """laEDF's completions reuse the last full walk only when the state
    proves it current; the checker compares every reused ``must_run``
    with a from-scratch full walk."""

    @staticmethod
    def _checked(simulator, taskset, machine, **kwargs):
        """A checked laEDF run that must match the oracle bit for bit;
        returns the checker."""
        checker = StateChecker(LookAheadEDF())
        fast = simulator(taskset, machine, checker, **kwargs)
        slow = simulator(taskset, machine, ScratchLaEDF(), **kwargs)
        assert _fingerprint(fast) == _fingerprint(slow)
        return checker

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_edf_kernel_reuses_every_completion(self, machine_name):
        taskset = TaskSetGenerator(n_tasks=8, utilization=0.8,
                                   seed=3).generate()
        checker = self._checked(kernel_simulate, taskset,
                                MACHINES[machine_name](), demand=0.6,
                                duration=300.0)
        assert checker.reuses > 50
        assert checker.completion_walks == 0

    @pytest.mark.parametrize("policy_scheduler", ["rm", "edf"])
    @_SLOW
    @given(seed=st.integers(0, 5000), n=st.integers(2, 9),
           u=st.floats(0.15, 0.95), fraction=st.floats(0.3, 1.0),
           fine_machine=st.booleans())
    def test_kernel_any_scheduler(self, policy_scheduler, seed, n, u,
                                  fraction, fine_machine):
        """Under an RM scheduler the running job is often not the last
        outstanding one in deferral order, so completions fall back to
        the full walk."""
        taskset = TaskSetGenerator(n_tasks=n, utilization=u,
                                   seed=seed).generate()
        machine = machine2() if fine_machine else machine0()
        self._checked(kernel_simulate, taskset, machine, demand=fraction,
                      duration=150.0, on_miss="drop",
                      scheduler=policy_scheduler)

    def test_rm_scheduled_kernel_falls_back(self):
        taskset = TaskSetGenerator(n_tasks=8, utilization=0.7,
                                   seed=4).generate()
        checker = self._checked(kernel_simulate, taskset, machine2(),
                                demand=0.9, duration=300.0,
                                on_miss="drop", scheduler="rm")
        assert checker.completion_walks > 0 and checker.reuses > 0

    @pytest.mark.parametrize("scheduler", ["edf", "rm"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tick_simulator(self, scheduler, seed):
        taskset = TaskSetGenerator(n_tasks=5, utilization=0.75,
                                   seed=seed).generate()
        kwargs = dict(demand=0.7, duration=64.0, tick=1 / 64,
                      scheduler=scheduler)
        checker = StateChecker(LookAheadEDF())
        fast = TickSimulator(taskset, machine2(), checker, **kwargs).run()
        slow = TickSimulator(taskset, machine2(), ScratchLaEDF(),
                             **kwargs).run()
        assert _tick_fingerprint(fast) == _tick_fingerprint(slow)
        assert checker.reuses + checker.completion_walks > 0
        if scheduler == "edf":
            assert checker.reuses > 0

    def test_execution_since_the_walk_forces_a_full_walk(self):
        """Task A (deadline 10) runs for one cycle without a hook, then B
        (the earliest deadline) completes: B is the walk's last
        outstanding job, but A's ``c_left`` has changed, so the recorded
        prefix is stale and the completion must walk in full."""
        a = Task(4.0, 10.0, name="A")
        b = Task(2.5, 5.0, name="B")
        view = _JobView(TaskSet([a, b]), machine0())
        checker = StateChecker(LookAheadEDF())
        checker.setup(view)
        view.jobs = {task.name: Job(task, 0.0, task.wcet, 0)
                     for task in (a, b)}
        checker.on_releases_invalidate(view, [a, b])
        for task in (a, b):
            checker.on_release(view, task)
        # Walk: A defers 2.5 of its 4 cycles past B's deadline; all of
        # B must run before it.
        assert [record[2] for record in checker.inner._pending] == \
            [0.0, 1.5]
        view.time = 2.0
        view.jobs["A"].executed = 1.0
        view.jobs["B"].executed = 2.5
        view.jobs["B"].completion_time = 2.0
        point = checker.on_completion(view, b)
        assert (checker.reuses, checker.completion_walks) == (0, 1)
        # must_run = 3 - 2.5 = 0.5 over 3 time units, not the stale 1.5.
        assert point is view.machine.slowest
        assert checker.inner._pending == [(0, 1.0, 0.0)]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["release", "run", "run", "complete",
                                   "complete-earliest",
                                   "complete-earliest"]),
                  st.integers(0, 5), st.floats(0.05, 1.0)),
        min_size=20, max_size=300))
    def test_hook_level_execution_between_hooks(self, ops):
        """A driver that runs several jobs between hooks (no simulator
        does) may leave the walk stale in any way; production and oracle
        must still agree on every selection.  ``complete-earliest``
        completes the earliest-deadline outstanding job, the one a
        completion can reuse the walk for."""
        pool = [Task(0.7 + 0.35 * i, 5.0 + 2.0 * i, name=f"T{i}")
                for i in range(6)]
        view = _JobView(TaskSet(pool), machine2())
        checker = StateChecker(LookAheadEDF())
        oracle = ScratchLaEDF()
        assert checker.setup(view) is oracle.setup(view)
        invocation = [0] * len(pool)
        for kind, index, fraction in ops:
            if kind == "complete-earliest":
                outstanding = [job for job in view.jobs.values()
                               if not job.is_complete]
                if outstanding:
                    index = pool.index(min(
                        outstanding,
                        key=lambda job: job.absolute_deadline).task)
            task = pool[index]
            job = view.jobs.get(task.name)
            view.time += 0.125
            if kind == "release":
                release = view.time if job is None else max(
                    view.time, job.absolute_deadline)
                view.time = release
                view.jobs[task.name] = Job(task, release,
                                           fraction * task.wcet,
                                           invocation[index])
                invocation[index] += 1
                checker.on_releases_invalidate(view, [task])
                points = [checker.on_release(view, task),
                          oracle.on_release(view, task)]
            elif job is None or job.is_complete:
                continue
            elif kind == "run":
                job.executed = min(job.demand,
                                   job.executed + fraction * job.demand)
                continue
            else:
                job.executed = job.demand
                job.completion_time = view.time
                points = [checker.on_completion(view, task),
                          oracle.on_completion(view, task)]
            assert points[0] is points[1]
            assert checker.inner.over_unity_events == \
                oracle.over_unity_events


# ---------------------------------------------------------------------------
# the state checker catches corruption
# ---------------------------------------------------------------------------

class _CorruptedCcEDF(CycleConservingEDF):
    """Injects a silent error into the running aggregate mid-run."""

    def __init__(self):
        super().__init__()
        self._events = 0

    def on_release(self, view, task):
        self._events += 1
        if self._events == 5:
            self._total += 0.125  # far beyond drift tolerance
        return super().on_release(view, task)


class _CorruptedCcRM(CycleConservingRM):
    """Drops one granted slot from the active set, leaving its non-zero
    allotment out of every later quota sum."""

    def __init__(self):
        super().__init__()
        self._corrupted = False

    def _allocate(self, view):
        point = super()._allocate(view)
        if not self._corrupted and self._active:
            del self._active[0]
            self._corrupted = True
        return point


class _CorruptedLaEDF(LookAheadEDF):
    """Swaps two entries of the maintained reverse-EDF order."""

    def __init__(self):
        super().__init__()
        self._corrupted = False

    def _defer(self, view):
        order = self._order
        if not self._corrupted and len(order) >= 2:
            order[0], order[1] = order[1], order[0]
            self._corrupted = True
        return super()._defer(view)


class _CorruptedReuseLaEDF(LookAheadEDF):
    """Halves the ``must_run`` each walk records for its last
    outstanding job, the record a completion reuses."""

    def _defer(self, view):
        point = super()._defer(view)
        pending = self._pending
        if pending:
            slot, done, must_run = pending[-1]
            pending[-1] = (slot, done, must_run * 0.5)
        return point


class TestStrictCatchesCorruption:
    """The checker runs the comparisons the production classes' former
    ``strict`` mode made, after every selecting callback."""

    def test_ccedf_strict_raises_on_corrupted_sum(self):
        with pytest.raises(StateDivergence, match="diverged"):
            simulate(example_taskset(), machine0(),
                     StateChecker(_CorruptedCcEDF()), duration=60.0)

    def test_ccedf_corruption_undetected_without_strict(self):
        # The same corruption sails through silently — what the checker
        # is for.
        result = simulate(example_taskset(), machine0(), _CorruptedCcEDF(),
                          duration=60.0, on_miss="drop")
        reference = simulate(example_taskset(), machine0(),
                             CycleConservingEDF(),
                             duration=60.0, on_miss="drop")
        assert result.total_energy != reference.total_energy

    def test_ccrm_strict_raises_on_corrupted_active_set(self):
        with pytest.raises(StateDivergence, match="active quota sum"):
            simulate(example_taskset(), machine0(),
                     StateChecker(_CorruptedCcRM()), duration=60.0)

    def test_laedf_checker_raises_on_corrupted_reuse(self):
        with pytest.raises(StateDivergence, match="reused walk"):
            kernel_simulate(example_taskset(), machine0(),
                            StateChecker(_CorruptedReuseLaEDF()),
                            demand=0.6, duration=60.0)

    def test_laedf_strict_raises_on_corrupted_order(self):
        with pytest.raises(StateDivergence, match="deferral order"):
            simulate(example_taskset(), machine0(),
                     StateChecker(_CorruptedLaEDF()), duration=60.0)

    @pytest.mark.parametrize("policy_name", sorted(ORACLE_PAIRS))
    def test_strict_is_quiet_on_healthy_state(self, policy_name):
        production, _ = ORACLE_PAIRS[policy_name]
        checker = StateChecker(production())
        result = simulate(example_taskset(), machine0(), checker,
                          demand=0.6, duration=280.0)
        assert result.met_all_deadlines
        assert checker.checks > 0
