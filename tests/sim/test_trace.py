"""Unit tests for the execution trace recorder and rendering."""

import pytest

from repro.hw.operating_point import OperatingPoint
from repro.sim.timeline import SimTimeline
from repro.sim.trace import Segment, render_trace

LOW = OperatingPoint(0.5, 3.0)
HIGH = OperatingPoint(1.0, 5.0)


def seg(start, end, task=None, point=HIGH, kind="run", cycles=None,
        energy=0.0):
    if cycles is None:
        cycles = (end - start) * point.frequency if kind == "run" else 0.0
    return Segment(start=start, end=end, task=task, point=point,
                   cycles=cycles, energy=energy, kind=kind)


def append(trace, segment):
    trace.record(segment.start, segment.end, segment.task, segment.point,
                 segment.cycles, segment.energy, segment.kind)


class TestAppendAndMerge:
    def test_append(self):
        trace = SimTimeline()
        append(trace, seg(0, 1, "A"))
        append(trace, seg(1, 2, "B"))
        assert len(trace) == 2

    def test_merges_homogeneous_neighbours(self):
        trace = SimTimeline()
        append(trace, seg(0, 1, "A", energy=5.0))
        append(trace, seg(1, 2, "A", energy=5.0))
        assert len(trace) == 1
        merged = trace[0]
        assert merged.start == 0 and merged.end == 2
        assert merged.energy == 10.0
        assert merged.cycles == pytest.approx(2.0)

    def test_no_merge_across_tasks(self):
        trace = SimTimeline()
        append(trace, seg(0, 1, "A"))
        append(trace, seg(1, 2, "B"))
        assert len(trace) == 2

    def test_no_merge_across_points(self):
        trace = SimTimeline()
        append(trace, seg(0, 1, "A", point=HIGH))
        append(trace, seg(1, 2, "A", point=LOW))
        assert len(trace) == 2

    def test_no_merge_across_gap(self):
        trace = SimTimeline()
        append(trace, seg(0, 1, "A"))
        append(trace, seg(1.5, 2, "A"))
        assert len(trace) == 2

    def test_zero_length_dropped(self):
        trace = SimTimeline()
        append(trace, seg(1.0, 1.0, "A"))
        append(trace, seg(2.0, 2.0 + 1e-13, "A"))
        assert len(trace) == 0


class TestQueries:
    @pytest.fixture
    def trace(self):
        trace = SimTimeline()
        append(trace, seg(0, 2, "A", point=HIGH, energy=10.0))
        append(trace, seg(2, 3, "B", point=LOW, energy=3.0))
        append(trace, seg(3, 5, None, point=LOW, kind="idle"))
        append(trace, seg(5, 6, "A", point=LOW, energy=2.0))
        return trace

    def test_run_segments(self, trace):
        assert [s.task for s in trace.run_segments()] == ["A", "B", "A"]

    def test_segments_for(self, trace):
        assert len(trace.segments_for("A")) == 2

    def test_busy_idle_time(self, trace):
        assert trace.busy_time() == pytest.approx(4.0)
        assert trace.idle_time() == pytest.approx(2.0)

    def test_frequency_profile(self, trace):
        assert trace.frequency_profile() == [(0, 1.0), (2, 0.5)]


class TestRender:
    def test_render_contains_tasks_and_axis(self):
        trace = SimTimeline()
        append(trace, seg(0, 8, "T1"))
        append(trace, seg(8, 16, "T2", point=LOW))
        text = render_trace(trace, width=32)
        assert "T1" in text and "T2" in text
        assert "freq" in text
        assert "16" in text

    def test_render_empty(self):
        assert "empty" in render_trace(SimTimeline())

    def test_render_respects_end(self):
        trace = SimTimeline()
        append(trace, seg(0, 4, "T1"))
        text = render_trace(trace, width=20, end=8.0)
        assert "8" in text
