"""Schedulability tests for EDF and RM, with frequency scaling.

These are the tests the paper's static voltage-scaling algorithm (Fig. 1)
evaluates at each candidate operating frequency.  Scaling the operating
frequency by a factor ``alpha`` (0 < alpha <= 1, relative to the maximum)
multiplies every worst-case computation time by ``1/alpha``; equivalently,
the right-hand side of each test is multiplied by ``alpha``.

Three tests are provided:

* :func:`edf_schedulable` — the necessary and sufficient EDF utilization
  test ``ΣC_i/P_i <= alpha`` [Liu & Layland 1973].
* :func:`rm_liu_layland_schedulable` — the sufficient (not necessary)
  utilization bound ``ΣU_i <= alpha * n(2^{1/n} - 1)``.
* :func:`rm_exact_schedulable` — the exact scheduling-point test of
  Lehoczky, Sha & Ding (1989): task ``T_i`` is schedulable iff the
  cumulative demand of ``T_i`` and all higher-priority tasks fits before
  some scheduling point ``t <= P_i``.
* :func:`rm_rta_schedulable` — the same exact criterion expressed as
  response-time analysis [Joseph & Pandya 1986, Audsley et al. 1993],
  memoized per ``(task set, alpha)``.  The scheduling-point test
  enumerates every multiple of every higher-priority period up to
  ``P_i`` — O(n² · k) points for hyperperiod-rich sets — which is why a
  200-task static-RM setup used to cost ~half a second; each task's
  response-time iteration, started from the previous task's response
  time, converges in a handful of O(n) steps instead.

The paper's Figure 1 presents the scheduling-point style test; its example
(Table 2, Fig. 2: "Static RM fails at 0.75") is reproduced by all RM tests.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import TaskModelError
from repro.model.task import Task

#: Relative tolerance for the "<=" comparisons, so that utilization sums that
#: are exactly equal to the bound (up to floating-point noise) pass, matching
#: the paper's use of exact arithmetic in the examples (e.g. U = 0.746 at
#: alpha = 0.75).
_EPS = 1e-9


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0 + _EPS:
        raise TaskModelError(
            f"frequency scaling factor must be in (0, 1], got {alpha}")


def edf_schedulable(tasks: Iterable[Task], alpha: float = 1.0) -> bool:
    """EDF test at relative frequency ``alpha``: ``ΣC_i/P_i <= alpha``.

    Necessary and sufficient for the periodic, deadline-equals-period,
    preemptive, independent-task model.
    """
    _check_alpha(alpha)
    total = sum(t.utilization for t in tasks)
    return total <= alpha + _EPS


def rm_liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilization bound ``n(2^{1/n} - 1)`` for n tasks."""
    if n <= 0:
        raise TaskModelError(f"task count must be positive, got {n}")
    return n * (2.0 ** (1.0 / n) - 1.0)


def rm_liu_layland_schedulable(tasks: Iterable[Task],
                               alpha: float = 1.0) -> bool:
    """Sufficient RM test at relative frequency ``alpha``.

    ``ΣU_i <= alpha * n(2^{1/n} - 1)``.  Conservative: may reject task sets
    that the exact test accepts.
    """
    _check_alpha(alpha)
    tasks = list(tasks)
    total = sum(t.utilization for t in tasks)
    return total <= alpha * rm_liu_layland_bound(len(tasks)) + _EPS


def rm_scheduling_points(tasks: Sequence[Task], i: int) -> List[float]:
    """Scheduling points for task ``tasks[i]`` (tasks sorted by period).

    The points are every multiple of every period of priority >= tasks[i]
    (shorter or equal period) that is <= tasks[i].period, plus tasks[i]'s
    own period.  Demand only needs to be checked at these points [Lehoczky,
    Sha & Ding 1989].
    """
    if not 0 <= i < len(tasks):
        raise TaskModelError(f"task index {i} out of range")
    horizon = tasks[i].period
    points = set()
    for j in range(i + 1):
        period = tasks[j].period
        k = 1
        while k * period <= horizon + _EPS:
            points.add(k * period)
            k += 1
    points.add(horizon)
    return sorted(points)


def rm_exact_schedulable(tasks: Iterable[Task], alpha: float = 1.0) -> bool:
    """Exact (necessary and sufficient) RM test at relative frequency
    ``alpha`` via the scheduling-point criterion.

    Task ``T_i`` (in period order) is schedulable iff there exists a
    scheduling point ``t <= P_i`` with ``Σ_{j<=i} ceil(t/P_j) * C_j <=
    alpha * t``.  The whole set is schedulable iff every task is.

    For the paper's example set {(3,8), (3,10), (1,14)} this fails at
    ``alpha = 0.75`` and passes at ``alpha = 1.0``, matching Fig. 2.
    """
    _check_alpha(alpha)
    ordered = sorted(tasks, key=lambda t: t.period)
    if not ordered:
        raise TaskModelError("cannot test an empty task set")
    for i in range(len(ordered)):
        if not _rm_task_feasible(ordered, i, alpha):
            return False
    return True


def _rm_task_feasible(ordered: Sequence[Task], i: int, alpha: float) -> bool:
    """Exact feasibility of ``ordered[i]`` under RM at frequency ``alpha``."""
    for point in rm_scheduling_points(ordered, i):
        demand = 0.0
        for j in range(i + 1):
            demand += math.ceil(point / ordered[j].period - _EPS) \
                * ordered[j].wcet
        if demand <= alpha * point + _EPS:
            return True
    return False


#: Memo for :func:`rm_rta_schedulable`, keyed on the period-ordered
#: ``(period, wcet)`` tuple and ``alpha``.  Static RM policies re-run the
#: full test at every candidate operating point on every setup / admission
#: event; within a sweep the same (task set, frequency) pair recurs across
#: cells, so a process-wide table pays for itself immediately.  Bounded:
#: wholesale-cleared when full (simple, and the working set of distinct
#: task sets in one process is far below the cap in practice).
_RTA_MEMO: dict = {}
_RTA_MEMO_MAX = 4096


def _rta_memo_clear() -> None:
    """Drop all memoized RTA verdicts (test hook)."""
    _RTA_MEMO.clear()


def _rm_response_times(ordered: Sequence[Task], alpha: float,
                       max_iterations: int) -> Optional[List[float]]:
    """RM response times of period-ordered ``ordered`` at ``alpha``, or
    ``None`` at the first task whose response time exceeds its period.

    Per task, the fixed point ``R = C_i/alpha + Σ_{j<i} ceil(R/P_j - eps)
    * C_j/alpha`` is iterated from ``R_{i-1} + C_i/alpha``, a lower bound
    on ``R_i`` [Sjödin & Hansson 1998], so long sets take a handful of
    steps per task.  The interference is added up term by term with
    ``+=`` (``sum()`` of floats is compensated from Python 3.12 on).
    """
    responses: List[float] = []
    higher: List[Tuple[float, float]] = []
    ceil = math.ceil
    response = 0.0
    for task in ordered:
        scaled_c = task.wcet / alpha
        response += scaled_c
        for _ in range(max_iterations):
            interference = 0.0
            for period, c in higher:
                interference += ceil(response / period - _EPS) * c
            demand = scaled_c + interference
            if demand > task.period + _EPS:
                return None
            if abs(demand - response) <= _EPS * max(1.0, demand):
                response = demand
                break
            response = demand
        else:  # pragma: no cover - defensive; iteration always converges
            raise TaskModelError("response-time iteration did not converge")
        responses.append(response)
        higher.append((task.period, scaled_c))
    return responses


def rm_rta_schedulable(tasks: Iterable[Task], alpha: float = 1.0,
                       max_iterations: int = 10_000) -> bool:
    """Exact RM schedulability at relative frequency ``alpha`` via
    response-time analysis.

    Equivalent to :func:`rm_exact_schedulable` (both are necessary and
    sufficient for the synchronous, deadline-equals-period model) and,
    by construction, to ``response_time_analysis(tasks, alpha) is not
    None``: both run the same per-task iteration over the tasks sorted
    by period (ties broken by input order, matching the scalar tests),
    stopping at the first task that misses.

    Results are memoized per ``(period-ordered task parameters, alpha)``;
    the paper's example set {(3,8), (3,10), (1,14)} fails at
    ``alpha = 0.75`` and passes at ``alpha = 1.0`` like the other tests.
    """
    _check_alpha(alpha)
    ordered = sorted(tasks, key=lambda t: t.period)
    if not ordered:
        raise TaskModelError("cannot test an empty task set")
    key = (tuple((t.period, t.wcet) for t in ordered), alpha)
    hit = _RTA_MEMO.get(key)
    if hit is not None:
        return hit
    verdict = _rm_response_times(ordered, alpha, max_iterations) is not None
    if len(_RTA_MEMO) >= _RTA_MEMO_MAX:
        _RTA_MEMO.clear()
    _RTA_MEMO[key] = verdict
    return verdict


def response_time_analysis(tasks: Iterable[Task], alpha: float = 1.0,
                           max_iterations: int = 10_000
                           ) -> Optional[List[float]]:
    """Worst-case response times under RM at relative frequency ``alpha``.

    Uses the standard fixed-point iteration
    ``R = C_i/alpha + Σ_{j higher prio} ceil(R/P_j) * C_j/alpha``.

    Returns the response times in the order of the *input* iterable, or
    ``None`` if any task's response time exceeds its period (unschedulable).
    This complements :func:`rm_exact_schedulable` and is used by tests as an
    oracle independent of the scheduling-point test.
    """
    _check_alpha(alpha)
    original = list(tasks)
    order = sorted(range(len(original)), key=lambda k: original[k].period)
    by_period = _rm_response_times([original[k] for k in order], alpha,
                                   max_iterations)
    if by_period is None:
        return None
    responses = [0.0] * len(original)
    for k, response in zip(order, by_period):
        responses[k] = response
    return responses


def min_edf_frequency(tasks: Iterable[Task]) -> float:
    """Smallest continuous relative frequency keeping the set EDF-schedulable
    (= total worst-case utilization)."""
    return sum(t.utilization for t in tasks)


def min_rm_frequency(tasks: Iterable[Task], exact: bool = True,
                     tolerance: float = 1e-6) -> float:
    """Smallest continuous relative frequency keeping the set RM-schedulable.

    Found by bisection over ``alpha`` (both RM tests are monotone in
    ``alpha``).  ``exact`` selects the scheduling-point test; otherwise the
    Liu-Layland bound is inverted in closed form.
    """
    tasks = list(tasks)
    if not exact:
        return min(1.0, sum(t.utilization for t in tasks)
                   / rm_liu_layland_bound(len(tasks)))
    if not rm_exact_schedulable(tasks, 1.0):
        raise TaskModelError(
            "task set is not RM-schedulable even at full frequency")
    lo = sum(t.utilization for t in tasks)  # necessary condition: alpha >= U
    hi = 1.0
    if rm_exact_schedulable(tasks, lo):
        return lo
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if rm_exact_schedulable(tasks, mid):
            hi = mid
        else:
            lo = mid
    return hi
