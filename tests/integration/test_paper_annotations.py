"""Fidelity tests for the numeric annotations printed in the paper's
figures (beyond completion times): the utilization sequence of Fig. 3 and
the deferral speeds behind Fig. 7's frequency choices."""

import pytest

from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.look_ahead import LookAheadEDF
from repro.hw.machine import machine0
from repro.model.demand import paper_example_trace
from repro.model.task import example_taskset
from repro.sim.engine import simulate


class RecordingCcEDF(CycleConservingEDF):
    """ccEDF that logs ΣU_i at every selection point."""

    def __init__(self):
        super().__init__()
        self.history = []

    def _select(self, view):
        point = super()._select(view)
        self.history.append((view.time, round(
            sum(self._utilization.values()), 3)))
        return point


class RecordingLaEDF(LookAheadEDF):
    """laEDF that logs the point defer() selects at every release and
    completion (a completion may reuse the last walk instead of walking
    again, so the log is kept at the hooks)."""

    def __init__(self):
        super().__init__()
        self.speeds = []

    def _record(self, view, point):
        earliest = view.earliest_deadline()
        self.speeds.append((view.time, point.frequency, earliest))
        return point

    def on_release(self, view, task):
        return self._record(view, super().on_release(view, task))

    def on_completion(self, view, task):
        return self._record(view, super().on_completion(view, task))


def test_fig3_utilization_annotations():
    """Fig. 3 annotates ΣU_i = 0.746, 0.621, 0.546, 0.421, 0.496, 0.296
    at the scheduling points of the first 16 ms."""
    policy = RecordingCcEDF()
    simulate(example_taskset(), machine0(), policy,
             demand=paper_example_trace(), duration=16.0)
    values = [u for _, u in policy.history]
    for annotated in (0.746, 0.621, 0.546, 0.421, 0.496, 0.296):
        assert any(abs(v - annotated) <= 0.001 for v in values), \
            (annotated, values)

    # And the full event sequence in order:
    by_time = {}
    for t, u in policy.history:
        by_time.setdefault(round(t, 3), []).append(u)
    assert 0.746 in by_time[0.0]            # all released, worst case
    assert 0.621 in by_time[round(8 / 3, 3)]  # T1 done (2 cycles)
    assert 0.421 in by_time[4.0]            # T2 done
    assert 0.546 in by_time[8.0]            # T1 re-released
    assert 0.496 in by_time[10.0]           # T2 re-released (<= 0.5!)
    assert 0.296 in by_time[14.0]           # T3 re-released


def test_fig7_deferral_speeds():
    """Fig. 7's frames: 0.75 at t=0 (speed 61/96 ~= 0.635 rounds up),
    0.5 after T1 completes at 8/3 (speed ~0.39), and the lowest point for
    the rest of the window."""
    policy = RecordingLaEDF()
    simulate(example_taskset(), machine0(), policy,
             demand=paper_example_trace(), duration=16.0)
    frequency_at = {}
    for t, frequency, _ in policy.speeds:
        frequency_at.setdefault(round(t, 3), frequency)
    assert frequency_at[0.0] == 0.75
    assert frequency_at[round(8 / 3, 3)] == 0.5
    # Every later event in the window also selects 0.5.
    late = [f for t, f, _ in policy.speeds if t > 8 / 3 + 1e-9]
    assert set(late) == {0.5}


def test_fig7_next_deadline_tracking():
    """defer() must always measure against the earliest deadline in the
    system — 8, then 10 (T2's, though complete), then 14, 16..."""
    policy = RecordingLaEDF()
    simulate(example_taskset(), machine0(), policy,
             demand=paper_example_trace(), duration=16.0)
    deadline_at = {}
    for t, _, earliest in policy.speeds:
        deadline_at.setdefault(round(t, 3), []).append(earliest)
    assert 8.0 in deadline_at[0.0]
    assert 10.0 in deadline_at[8.0]   # T2's current deadline persists
    # At t=10, T1#2 completes first (earliest momentarily = 10, the
    # boundary case defer() treats as "nothing before the deadline"),
    # then T2's release moves the horizon to T3's deadline 14.
    assert 14.0 in deadline_at[10.0]
    assert 16.0 in deadline_at[14.0]  # then T1's second deadline
