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
  aggregates are exercised directly).

Deterministic cases pin ccEDF's decision band and guard-band recompute
at every frequency threshold of machine0 and machine2, and all three
policies at a utilization of exactly 1.0.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import cycle_conserving
from repro.core.cycle_conserving import _GUARD, CycleConservingEDF
from repro.core.cycle_conserving_rm import CycleConservingRM, _Quota
from repro.core.look_ahead import LookAheadEDF
from repro.errors import SchedulabilityError
from repro.hw.machine import machine0, machine2
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet, example_taskset
from repro.sim.batch_kernels import kernel_simulate
from repro.sim.engine import Admission, SchedulerView, simulate
from tests.core.scratch_policies import (ORACLE_PAIRS, ScratchCcEDF,
                                         StateChecker, StateDivergence)

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
        assert "B" not in policy._quota
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
    """Swaps one active-set entry for a quota with a wrong allotment."""

    def __init__(self):
        super().__init__()
        self._corrupted = False

    def _allocate(self, view):
        super()._allocate(view)
        if not self._corrupted and self._active:
            task, quota = self._active[0]
            fake = _Quota(allotted=quota.allotted + 1.0,
                          executed_at_alloc=quota.executed_at_alloc,
                          invocation=quota.invocation, completed=False)
            self._active[0] = (task, fake)
            self._corrupted = True


class _CorruptedLaEDF(LookAheadEDF):
    """Swaps two entries of the maintained reverse-EDF order."""

    def __init__(self):
        super().__init__()
        self._corrupted = False

    def _defer(self, view):
        if not self._corrupted and len(self._keys) >= 2 \
                and self._keys[0] != self._keys[1]:
            self._keys[0], self._keys[1] = self._keys[1], self._keys[0]
            self._slots[0], self._slots[1] = self._slots[1], self._slots[0]
            self._corrupted = True
        return super()._defer(view)


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
