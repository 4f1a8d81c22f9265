"""From-scratch oracle for the paper's cycle-conserving and look-ahead policies.

The production classes (:class:`~repro.core.cycle_conserving.CycleConservingEDF`,
:class:`~repro.core.cycle_conserving_rm.CycleConservingRM`,
:class:`~repro.core.look_ahead.LookAheadEDF`) each keep one code path that
maintains its aggregates across events: a running ``ΣU_i``, a cached RM
order plus flat per-slot quotas and an active-quota set, and a
bisect-maintained reverse-EDF order whose last walk laEDF reuses at
completions.
This module holds the straightforward rules those aggregates replace,
written the way the paper's pseudo-code reads (Figs. 4, 6 and 8):

* :class:`ScratchCcEDF` re-sums the utilization table at every selection;
* :class:`ScratchCcRM` keeps one quota record per task name, re-sorts the
  task set by period at every allocation, refreshes every task's
  snapshot, and sums every task's quota;
* :class:`ScratchLaEDF` re-sorts the task set into reverse-EDF order and
  walks it in full at every deferral, completions included.

Each subclass runs the parent's hooks where they hold no maintained
state and overrides the rest, so a production run and an oracle run must
agree bit-for-bit.

:class:`StateChecker` is the other half: a proxy that forwards every
policy callback to a production instance and, after each selecting
callback, compares the maintained aggregate with its from-scratch
recomputation, raising :class:`StateDivergence` on any difference.  At
every laEDF completion that reuses the last walk, it also compares the
reused ``must_run`` with a from-scratch full walk, bit for bit.

Used by the differential and corruption-detection tests in
``tests/core/test_incremental_state.py`` and by the from-scratch leg of
the ``policy_callbacks`` benchmark in ``benchmarks/write_bench_json.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import DVSPolicy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.cycle_conserving_rm import CycleConservingRM
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


@dataclass
class Quota:
    """One task's cycle allotment ``d_i`` plus the execution snapshot that
    lets the oracle decrement it lazily."""

    allotted: float = 0.0
    executed_at_alloc: float = 0.0
    invocation: int = -1
    completed: bool = False


class ScratchCcRM(CycleConservingRM):
    """ccRM allocating over a fresh RM sort and summing every quota, kept
    as one :class:`Quota` record per task name."""

    def setup(self, view):
        point = super().setup(view)
        self._quotas = {task.name: Quota() for task in view.taskset}
        return point

    def on_release(self, view, task):
        self._allocate(view)
        return self._select(view)

    def on_completion(self, view, task):
        self._quotas.setdefault(task.name, Quota()).completed = True
        return self._select(view)

    def on_task_added(self, view, task):
        super().on_task_added(view, task)  # the static frequency
        return self._select(view)

    def on_task_removed(self, view, task):
        super().on_task_removed(view, task)  # the static frequency
        return self._select(view)

    def _allocate(self, view):
        deadline = view.earliest_deadline()
        if deadline is None:
            return
        budget = max(0.0, (deadline - view.time) * self._static_frequency)
        # Re-sort every allocation and refresh every task's execution
        # snapshot from its current job.
        for task in sorted(view.taskset, key=lambda t: t.period):
            quota = self._quotas.setdefault(task.name, Quota())
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
        total = sum(self._quota_now(view, task) for task in view.taskset)
        return view.machine.lowest_at_least(min(1.0, total / s_m))

    def _quota_now(self, view, task):
        quota = self._quotas.get(task.name)
        if quota is None or quota.completed:
            return 0.0
        return quota_left(view, task, quota.allotted,
                          quota.executed_at_alloc, quota.invocation)


class ScratchLaEDF(LookAheadEDF):
    """laEDF deferring over a fresh reverse-EDF sort of the task set."""

    # The maintained order is never read here, so it is never maintained.
    on_releases_invalidate = DVSPolicy.on_releases_invalidate

    def on_release(self, view, task):
        return self._defer(view)

    def on_completion(self, view, task):
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
        must_run = scratch_must_run(view, earliest)
        speed = must_run / (earliest - now)
        if speed > 1.0 + 1e-9:
            self.over_unity_events += 1
            if self.strict:
                raise SchedulabilityError(
                    f"look-ahead deferral at t={now:g} needs speed "
                    f"{speed:.3f} > 1: {must_run:g} cycles cannot finish "
                    f"by the earliest deadline {earliest:g} even at f_max")
        return view.machine.lowest_at_least(min(1.0, speed))


def scratch_must_run(view, earliest):
    """laEDF's ``s`` (cycles that must run before ``earliest``) from a
    full walk over a fresh reverse-EDF sort, the way Fig. 8 reads."""
    utilization = view.taskset.utilization
    must_run = 0.0
    for task in reverse_edf_order(view):
        deadline = view.current_deadline(task)
        if deadline is None:
            # Admitted but unreleased: keep its worst case reserved in
            # `utilization`, no current-invocation work to place.
            continue
        c_left = view.worst_case_remaining(task)
        utilization -= task.utilization
        span = deadline - earliest
        if span <= 1e-12:
            # This task's deadline *is* the earliest: nothing can be
            # deferred.
            deferred = 0.0
        else:
            capacity = max(0.0, 1.0 - utilization) * span
            deferred = min(c_left, capacity)
            utilization += deferred / span
        must_run += c_left - deferred
    return must_run


def full_quota_sum(policy, view):
    """Production ccRM's ``Σd_i`` swept over every slot of its per-slot
    quota lists, each quota read through the scalar ``job_of``."""
    return sum(slot_quota(policy, view, slot)
               for slot in range(len(view.taskset)))


def slot_quota(policy, view, slot):
    """Production ccRM's ``d_i`` for task-set slot ``slot`` right now."""
    return quota_left(view, view.taskset[slot], policy._allotted[slot],
                      policy._at_alloc[slot], policy._inv_at_alloc[slot])


def quota_left(view, task, allotted, executed_at_alloc, invocation):
    """``d_i`` right now, read through the scalar ``job_of``: the
    allotment minus cycles executed since the allocation; zero once the
    invocation completes."""
    job = view.job_of(task)
    if job is None or job.index != invocation or job.is_complete:
        return 0.0
    executed_since = job.executed - executed_at_alloc
    return max(0.0, allotted - executed_since)


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
    """Every allotment outside the active set must be exactly zero, and
    the active-set quota sum must equal the full per-slot sweep exactly
    (skipped where the selection itself never sums)."""
    active = set(policy._active)
    stray = [slot for slot, allotted in enumerate(policy._allotted)
             if allotted != 0.0 and slot not in active]
    deadline = view.earliest_deadline()
    if deadline is None or deadline - view.time <= 1e-12:
        return
    total = 0.0
    for slot in policy._active:
        total += slot_quota(policy, view, slot)
    exact = full_quota_sum(policy, view)
    if total != exact:
        raise StateDivergence(
            f"ccRM active quota sum {total!r} != full-sweep sum {exact!r} "
            f"at t={view.time:g}")
    if stray or policy._active != sorted(active):
        raise StateDivergence(
            f"ccRM active set {policy._active!r} misses granted slots "
            f"{stray!r} at t={view.time:g}")


def check_laedf(policy, view):
    """The maintained deferral order must equal a fresh reverse-EDF sort,
    entry by entry (skipped where the deferral itself never walks)."""
    earliest = view.earliest_deadline()
    if earliest is None or earliest <= view.time + 1e-12:
        return
    expected = [(view.current_deadline(task), task.name)
                for task in reverse_edf_order(view)
                if view.current_deadline(task) is not None]
    maintained = [(entry[3], view.taskset[entry[2]].name)
                  for entry in policy._order]
    if maintained != expected:
        raise StateDivergence(
            f"laEDF maintained deferral order {maintained!r} diverged "
            f"from re-sorted order {expected!r} at t={view.time:g}")
    for entry in policy._order:
        neg_deadline, neg_slot, slot, deadline, util, wcet = entry
        task = view.taskset[slot]
        if (neg_deadline, neg_slot) != (-deadline, -slot) \
                or (util, wcet) != (task.utilization, task.wcet) \
                or policy._entry_of[slot] is not entry:
            raise StateDivergence(
                f"laEDF order entry {entry!r} is inconsistent with task "
                f"{task.name} at t={view.time:g}")


def check_laedf_reuse(view, must_run):
    """A completion that reused the last walk must select from exactly
    the ``must_run`` a from-scratch full walk finds now."""
    exact = scratch_must_run(view, view.earliest_deadline())
    if must_run != exact:
        raise StateDivergence(
            f"laEDF reused walk must_run {must_run!r} != full walk "
            f"{exact!r} at t={view.time:g}")


_CHECKS = (
    (CycleConservingEDF, check_ccedf),
    (CycleConservingRM, check_ccrm),
    (LookAheadEDF, check_laedf),
)


class StateChecker:
    """Proxy running a policy's state check after every selecting callback.

    Forwards every hook the engine fires to ``inner`` unchanged, so the
    run is bit-identical to an unwrapped one.  ``checks`` counts the
    comparisons made.  For laEDF, ``reuses`` counts the completions that
    reused the last walk (each checked against a full walk) and
    ``completion_walks`` those that walked in full.  Deliberately defines
    no ``wakeup_time``: the engine treats its presence as a capability.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.scheduler = inner.scheduler
        self.checks = 0
        self.reuses = 0
        self.completion_walks = 0
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
        if not isinstance(self.inner, LookAheadEDF):
            return self._checked(view, self.inner.on_completion(view, task))
        # A reuse pops the walk's last record and keeps the list; a full
        # walk replaces the list.
        pending = self.inner._pending
        size = len(pending) if pending else 0
        last = pending[-1] if size else None
        point = self.inner.on_completion(view, task)
        if size and self.inner._pending is pending \
                and len(pending) == size - 1:
            check_laedf_reuse(view, last[2])
            self.reuses += 1
        elif self.inner._pending is not pending:
            self.completion_walks += 1
        return self._checked(view, point)

    def on_task_added(self, view, task):
        return self._checked(view, self.inner.on_task_added(view, task))

    def on_task_removed(self, view, task):
        return self._checked(view, self.inner.on_task_removed(view, task))

    def on_idle(self, view):
        return self.inner.on_idle(view)
