"""Unit and property tests for the schedulability tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaskModelError
from repro.hw.machine import machine0, machine1
from repro.model import schedulability
from repro.model.generator import TaskSetGenerator
from repro.model.schedulability import (
    _rta_memo_clear,
    edf_schedulable,
    min_edf_frequency,
    min_rm_frequency,
    response_time_analysis,
    rm_exact_schedulable,
    rm_liu_layland_bound,
    rm_liu_layland_schedulable,
    rm_rta_schedulable,
    rm_scheduling_points,
)
from repro.model.task import Task, TaskSet, example_taskset

from tests.conftest import tasksets


class TestEDF:
    def test_at_full_speed(self):
        assert edf_schedulable(example_taskset(), 1.0)

    def test_paper_example_passes_at_075(self):
        # U = 0.746 <= 0.75: staticEDF runs the example at 0.75 (Fig. 2).
        assert edf_schedulable(example_taskset(), 0.75)

    def test_fails_below_utilization(self):
        assert not edf_schedulable(example_taskset(), 0.5)

    def test_boundary_exact(self):
        ts = TaskSet([Task(1, 2), Task(1, 4)])  # U = 0.75 exactly
        assert edf_schedulable(ts, 0.75)
        assert not edf_schedulable(ts, 0.7499)

    def test_bad_alpha_rejected(self):
        with pytest.raises(TaskModelError):
            edf_schedulable(example_taskset(), 0.0)
        with pytest.raises(TaskModelError):
            edf_schedulable(example_taskset(), 1.5)


class TestLiuLayland:
    def test_bound_values(self):
        assert rm_liu_layland_bound(1) == pytest.approx(1.0)
        assert rm_liu_layland_bound(2) == pytest.approx(2 * (2 ** 0.5 - 1))
        assert rm_liu_layland_bound(3) == pytest.approx(0.7798, abs=1e-4)

    def test_bound_decreases_to_ln2(self):
        values = [rm_liu_layland_bound(n) for n in range(1, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.log(2), abs=0.005)

    def test_paper_example(self):
        ts = example_taskset()
        # U=0.746 <= bound(3)=0.7798 at full speed, but not at 0.75.
        assert rm_liu_layland_schedulable(ts, 1.0)
        assert not rm_liu_layland_schedulable(ts, 0.75)

    def test_bad_n(self):
        with pytest.raises(TaskModelError):
            rm_liu_layland_bound(0)


class TestExactRM:
    def test_paper_example_fails_at_075(self):
        # "Static RM fails at 0.75" — T3 misses its deadline (Fig. 2).
        assert not rm_exact_schedulable(example_taskset(), 0.75)

    def test_paper_example_passes_at_full(self):
        assert rm_exact_schedulable(example_taskset(), 1.0)

    def test_accepts_beyond_ll_bound(self):
        # Harmonic periods are schedulable up to U=1, beyond Liu-Layland.
        ts = TaskSet([Task(1, 2), Task(2, 4)])  # U = 1.0, harmonic
        assert rm_exact_schedulable(ts, 1.0)
        assert not rm_liu_layland_schedulable(ts, 1.0)

    def test_single_task(self):
        assert rm_exact_schedulable([Task(5, 10)], 0.5)
        assert not rm_exact_schedulable([Task(5, 10)], 0.49)

    def test_scheduling_points(self):
        ordered = sorted(example_taskset(), key=lambda t: t.period)
        points = rm_scheduling_points(ordered, 2)  # T3, period 14
        assert points == [8.0, 10.0, 14.0]

    def test_scheduling_points_bad_index(self):
        with pytest.raises(TaskModelError):
            rm_scheduling_points(list(example_taskset()), 5)

    def test_empty_set_rejected(self):
        with pytest.raises(TaskModelError):
            rm_exact_schedulable([], 1.0)


class TestResponseTimeAnalysis:
    def test_paper_example_responses(self):
        # At full speed: R1 = 3; R2 = 3+3 = 6; R3 = 3+3+1 = 7... with
        # interference: R3 iterates 7 (one release each of T1, T2).
        responses = response_time_analysis(example_taskset(), 1.0)
        assert responses[0] == pytest.approx(3.0)
        assert responses[1] == pytest.approx(6.0)
        assert responses[2] == pytest.approx(7.0)

    def test_unschedulable_returns_none(self):
        assert response_time_analysis(example_taskset(), 0.75) is None

    def test_agrees_with_exact_test_on_example(self):
        for alpha in (0.5, 0.75, 0.8, 0.9, 1.0):
            exact = rm_exact_schedulable(example_taskset(), alpha)
            rta = response_time_analysis(example_taskset(), alpha)
            assert exact == (rta is not None)

    @settings(max_examples=60, deadline=None)
    @given(ts=tasksets)
    def test_agrees_with_exact_test_property(self, ts):
        """The scheduling-point test and RTA are both exact: they must
        agree on every task set and frequency."""
        for alpha in (0.6, 0.8, 1.0):
            exact = rm_exact_schedulable(ts, alpha)
            rta = response_time_analysis(ts, alpha)
            assert exact == (rta is not None), (ts, alpha)


#: Every operating frequency of the paper's machine 0 and machine 1.
GRID_ALPHAS = sorted({p.frequency for m in (machine0(), machine1())
                      for p in m.points})


def _responses_from_wcet(ts, alpha):
    """Period-ordered response times, each task iterated from its own
    ``C_i/alpha`` rather than from the previous task's response time."""
    eps = schedulability._EPS
    ordered = sorted(ts, key=lambda t: t.period)
    responses = []
    for i, task in enumerate(ordered):
        response = task.wcet / alpha
        while True:
            interference = 0.0
            for h in ordered[:i]:
                interference += math.ceil(response / h.period - eps) \
                    * (h.wcet / alpha)
            demand = task.wcet / alpha + interference
            if demand > task.period + eps:
                return None
            if abs(demand - response) <= eps * max(1.0, demand):
                break
            response = demand
        responses.append(demand)
    return responses


class TestRTASchedulable:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        _rta_memo_clear()
        yield
        _rta_memo_clear()

    @settings(max_examples=60, deadline=None)
    @given(ts=tasksets,
           off_grid=st.lists(st.floats(min_value=0.05, max_value=1.0),
                             min_size=1, max_size=3))
    def test_agrees_with_exact_test_and_rta(self, ts, off_grid):
        for alpha in GRID_ALPHAS + off_grid:
            _rta_memo_clear()
            verdict = rm_rta_schedulable(ts, alpha)
            assert verdict == rm_exact_schedulable(ts, alpha), (ts, alpha)
            assert verdict == (response_time_analysis(ts, alpha)
                               is not None), (ts, alpha)

    @settings(max_examples=60, deadline=None)
    @given(ts=tasksets, alpha=st.sampled_from(GRID_ALPHAS))
    def test_start_from_previous_response_reaches_same_fixed_point(
            self, ts, alpha):
        # R_{i-1} + C_i is a lower bound on R_i, so starting there must
        # converge to the same least fixed point as starting from C_i.
        expected = _responses_from_wcet(ts, alpha)
        responses = response_time_analysis(ts, alpha)
        if expected is None:
            assert responses is None
            return
        ordered = sorted(range(len(ts)), key=lambda k: ts[k].period)
        assert [responses[k] for k in ordered] == \
            pytest.approx(expected, rel=1e-12)

    def test_paper_example(self):
        # "Static RM fails at 0.75" (Fig. 2); it passes at full speed.
        assert not rm_rta_schedulable(example_taskset(), 0.75)
        assert rm_rta_schedulable(example_taskset(), 1.0)

    def test_harmonic_set_at_exactly_alpha(self):
        # Harmonic periods are RM-schedulable up to U = alpha exactly.
        ts = TaskSet([Task(0.5, 2), Task(1, 4), Task(2, 8)])  # U = 0.75
        assert rm_rta_schedulable(ts, 0.75)
        assert rm_exact_schedulable(ts, 0.75)
        assert not rm_rta_schedulable(ts, 0.7499)
        assert not rm_exact_schedulable(ts, 0.7499)

    def test_memo_hit_and_clear(self):
        ts = example_taskset()
        assert not schedulability._RTA_MEMO
        first = rm_rta_schedulable(ts, 1.0)
        assert len(schedulability._RTA_MEMO) == 1
        assert rm_rta_schedulable(ts, 1.0) == first
        assert len(schedulability._RTA_MEMO) == 1
        _rta_memo_clear()
        assert not schedulability._RTA_MEMO

    def test_empty_set_rejected(self):
        with pytest.raises(TaskModelError):
            rm_rta_schedulable([], 1.0)

    @pytest.mark.parametrize("utilization", [0.5, 0.7])
    def test_200_tasks_agree_with_rta(self, utilization):
        ts = TaskSetGenerator(n_tasks=200, utilization=utilization,
                              seed=2001).generate()
        verdicts = []
        for alpha in GRID_ALPHAS + [utilization + 0.01]:
            _rta_memo_clear()
            verdict = rm_rta_schedulable(ts, alpha)
            assert verdict == (response_time_analysis(ts, alpha)
                               is not None), alpha
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts


class TestMinFrequencies:
    def test_min_edf_is_utilization(self):
        assert min_edf_frequency(example_taskset()) == \
            pytest.approx(example_taskset().utilization)

    def test_min_rm_above_utilization(self):
        f = min_rm_frequency(example_taskset())
        assert f >= example_taskset().utilization - 1e-9
        assert rm_exact_schedulable(example_taskset(), f + 1e-6)
        assert not rm_exact_schedulable(example_taskset(), f - 1e-3)

    def test_min_rm_ll_closed_form(self):
        ts = example_taskset()
        f = min_rm_frequency(ts, exact=False)
        assert f == pytest.approx(ts.utilization / rm_liu_layland_bound(3))

    def test_min_rm_unschedulable_raises(self):
        ts = TaskSet([Task(1, 2), Task(1, 3), Task(1, 5)])  # U = 1.03
        with pytest.raises(TaskModelError):
            min_rm_frequency(ts)

    @settings(max_examples=40, deadline=None)
    @given(ts=tasksets)
    def test_monotone_in_alpha(self, ts):
        """If a set passes at alpha, it passes at every higher alpha."""
        alphas = (0.4, 0.6, 0.8, 1.0)
        results = [rm_exact_schedulable(ts, a) for a in alphas]
        for earlier, later in zip(results, results[1:]):
            assert (not earlier) or later
