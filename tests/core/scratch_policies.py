"""From-scratch oracle for the paper's cycle-conserving and look-ahead policies.

The production classes (:class:`~repro.core.cycle_conserving.CycleConservingEDF`,
:class:`~repro.core.cycle_conserving_rm.CycleConservingRM`,
:class:`~repro.core.look_ahead.LookAheadEDF`) each keep one code path that
maintains its aggregates across events: a running ``ΣU_i``, a cached RM
order plus an active-quota set, and a bisect-maintained reverse-EDF order.
This module holds the straightforward rules those aggregates replace,
written the way the paper's pseudo-code reads (Figs. 4, 6 and 8):

* :class:`ScratchCcEDF` re-sums the utilization table at every selection;
* :class:`ScratchCcRM` re-sorts the task set by period at every allocation,
  refreshes every task's snapshot, and sums every task's quota;
* :class:`ScratchLaEDF` re-sorts the task set into reverse-EDF order at
  every deferral.

Each subclass runs the parent's hooks and overrides only the selection
rule (and, for laEDF, skips the order maintenance it no longer reads), so
a production run and an oracle run must agree bit-for-bit.

:class:`StateChecker` is the other half: a proxy that forwards every
policy callback to a production instance and, after each selecting
callback, compares the maintained aggregate with its from-scratch
recomputation, raising :class:`StateDivergence` on any difference.

Used by the differential and corruption-detection tests in
``tests/core/test_incremental_state.py`` and by the from-scratch leg of
the ``policy_callbacks`` benchmark in ``benchmarks/write_bench_json.py``.
"""

from __future__ import annotations

from repro.core.base import DVSPolicy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.cycle_conserving_rm import CycleConservingRM, _Quota
from repro.core.look_ahead import LookAheadEDF
from repro.errors import SchedulabilityError

#: Allowed |running - exact| ccEDF utilization sum before the checker
#: raises (the running sum drifts by a few ulps between resyncs).
CCEDF_SUM_TOLERANCE = 1e-9


class StateDivergence(AssertionError):
    """A maintained policy aggregate diverged from its from-scratch
    recomputation."""


# ---------------------------------------------------------------------------
# from-scratch selection rules
# ---------------------------------------------------------------------------

class ScratchCcEDF(CycleConservingEDF):
    """ccEDF selecting from an exact re-sum of the utilization table."""

    def _select(self, view):
        total = sum(self._utilization.values())
        if total > 1.0 + 1e-9:
            raise SchedulabilityError(
                f"utilization sum {total:.3f} > 1 at t={view.time}; the "
                "task set is not schedulable at any frequency")
        return view.machine.lowest_at_least(min(total, 1.0))


class ScratchCcRM(CycleConservingRM):
    """ccRM allocating over a fresh RM sort and summing every quota."""

    def _allocate(self, view):
        deadline = view.earliest_deadline()
        if deadline is None:
            return
        budget = max(0.0, (deadline - view.time) * self._static_frequency)
        # Re-sort every allocation and refresh every task's execution
        # snapshot from its current job.
        for task in sorted(view.taskset, key=lambda t: t.period):
            quota = self._quota.setdefault(task.name, _Quota())
            job = view.job_of(task)
            if job is None:
                c_left = 0.0
                quota.invocation = -1
                quota.executed_at_alloc = 0.0
                quota.completed = False
            else:
                c_left = job.worst_case_remaining
                quota.invocation = job.index
                quota.executed_at_alloc = job.executed
                quota.completed = job.is_complete
            grant = min(c_left, budget)
            quota.allotted = grant
            budget -= grant

    def _select(self, view):
        deadline = view.earliest_deadline()
        if deadline is None:
            return view.machine.slowest
        s_m = deadline - view.time  # cycles at max frequency until deadline
        if s_m <= 1e-12:
            return view.machine.fastest
        total = full_quota_sum(self, view)
        return view.machine.lowest_at_least(min(1.0, total / s_m))


class ScratchLaEDF(LookAheadEDF):
    """laEDF deferring over a fresh reverse-EDF sort of the task set."""

    # The maintained order is never read here, so it is never maintained.
    on_releases_invalidate = DVSPolicy.on_releases_invalidate

    def on_release(self, view, task):
        return self._defer(view)

    def on_task_added(self, view, task):
        return self._defer(view)

    def on_task_removed(self, view, task):
        return self._defer(view)

    def _defer(self, view):
        now = view.time
        earliest = view.earliest_deadline()
        if earliest is None or earliest <= now + 1e-12:
            return view.machine.slowest
        utilization = view.taskset.utilization
        must_run = 0.0  # `s`: cycles that must execute before `earliest`
        for task in reverse_edf_order(view):
            deadline = view.current_deadline(task)
            if deadline is None:
                # Admitted but unreleased: keep its worst case reserved
                # in `utilization`, no current-invocation work to place.
                continue
            c_left = view.worst_case_remaining(task)
            utilization -= task.utilization
            span = deadline - earliest
            if span <= 1e-12:
                # This task's deadline *is* the earliest: nothing can
                # be deferred.
                deferred = 0.0
            else:
                capacity = max(0.0, 1.0 - utilization) * span
                deferred = min(c_left, capacity)
                utilization += deferred / span
            must_run += c_left - deferred
        speed = must_run / (earliest - now)
        if speed > 1.0 + 1e-9:
            self.over_unity_events += 1
            if self.strict:
                raise SchedulabilityError(
                    f"look-ahead deferral at t={now:g} needs speed "
                    f"{speed:.3f} > 1: {must_run:g} cycles cannot finish "
                    f"by the earliest deadline {earliest:g} even at f_max")
        return view.machine.lowest_at_least(min(1.0, speed))


def full_quota_sum(policy, view):
    """ccRM's ``Σd_i`` swept over the whole task set."""
    return sum(_quota_now(policy, view, task) for task in view.taskset)


def _quota_now(policy, view, task):
    quota = policy._quota.get(task.name)
    return 0.0 if quota is None else quota_left(view, task, quota)


def quota_left(view, task, quota):
    """``d_i`` right now, read through the scalar ``job_of``: the
    allotment minus cycles executed since the allocation; zero once the
    invocation completes."""
    if quota.completed:
        return 0.0
    job = view.job_of(task)
    if job is None or job.index != quota.invocation or job.is_complete:
        return 0.0
    executed_since = job.executed - quota.executed_at_alloc
    return max(0.0, quota.allotted - executed_since)


def reverse_edf_order(view):
    """Tasks with current jobs, latest deadline first (ties broken by
    task-set order, reversed, for determinism) — recomputed fresh.
    Unreleased tasks come first; the deferral walk skips them."""
    indexed = [(view.current_deadline(task), index, task)
               for index, task in enumerate(view.taskset)]
    with_jobs = [(d, i, t) for d, i, t in indexed if d is not None]
    without_jobs = [t for d, i, t in indexed if d is None]
    ordered = [t for d, i, t in
               sorted(with_jobs, key=lambda e: (e[0], e[1]), reverse=True)]
    return without_jobs + ordered


#: Policy name -> (production class, from-scratch oracle class).
ORACLE_PAIRS = {
    "ccEDF": (CycleConservingEDF, ScratchCcEDF),
    "ccRM": (CycleConservingRM, ScratchCcRM),
    "laEDF": (LookAheadEDF, ScratchLaEDF),
}


# ---------------------------------------------------------------------------
# per-callback state checks
# ---------------------------------------------------------------------------

def check_ccedf(policy, view):
    """The running ``ΣU_i`` must match the exact table sum."""
    total = policy._total
    exact = sum(policy._utilization.values())
    if abs(total - exact) > CCEDF_SUM_TOLERANCE:
        raise StateDivergence(
            f"ccEDF running utilization sum {total!r} diverged from exact "
            f"recomputation {exact!r} at t={view.time:g}")


def check_ccrm(policy, view):
    """The active-set quota sum must equal the full task-set sweep
    exactly (skipped where the selection itself never sums)."""
    deadline = view.earliest_deadline()
    if deadline is None or deadline - view.time <= 1e-12:
        return
    total = 0.0
    for slot, quota in policy._active:
        total += quota_left(view, view.taskset[slot], quota)
    exact = full_quota_sum(policy, view)
    if total != exact:
        raise StateDivergence(
            f"ccRM active quota sum {total!r} != full-sweep sum {exact!r} "
            f"at t={view.time:g}")


def check_laedf(policy, view):
    """The maintained deferral walk must equal a fresh reverse-EDF sort
    (skipped where the deferral itself never walks)."""
    earliest = view.earliest_deadline()
    if earliest is None or earliest <= view.time + 1e-12:
        return
    expected = [(view.current_deadline(task), task.name)
                for task in reverse_edf_order(view)
                if view.current_deadline(task) is not None]
    maintained = [(-key[0], view.taskset[slot].name)
                  for key, slot in zip(policy._keys, policy._slots)]
    if maintained != expected:
        raise StateDivergence(
            f"laEDF maintained deferral order {maintained!r} diverged "
            f"from re-sorted order {expected!r} at t={view.time:g}")


_CHECKS = (
    (CycleConservingEDF, check_ccedf),
    (CycleConservingRM, check_ccrm),
    (LookAheadEDF, check_laedf),
)


class StateChecker:
    """Proxy running a policy's state check after every selecting callback.

    Forwards every hook the engine fires to ``inner`` unchanged, so the
    run is bit-identical to an unwrapped one.  ``checks`` counts the
    comparisons made.  Deliberately defines no ``wakeup_time``: the
    engine treats its presence as a capability.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.scheduler = inner.scheduler
        self.checks = 0
        self._check = next(check for kind, check in _CHECKS
                           if isinstance(inner, kind))

    def _checked(self, view, point):
        self._check(self.inner, view)
        self.checks += 1
        return point

    def setup(self, view):
        return self._checked(view, self.inner.setup(view))

    def on_releases_invalidate(self, view, tasks):
        return self.inner.on_releases_invalidate(view, tasks)

    def on_release(self, view, task):
        return self._checked(view, self.inner.on_release(view, task))

    def on_completion(self, view, task):
        return self._checked(view, self.inner.on_completion(view, task))

    def on_task_added(self, view, task):
        return self._checked(view, self.inner.on_task_added(view, task))

    def on_task_removed(self, view, task):
        return self._checked(view, self.inner.on_task_removed(view, task))

    def on_idle(self, view):
        return self.inner.on_idle(view)
