"""Reference trace recorder: one frozen :class:`Segment` per maximal slice.

This is the list-of-``Segment`` recorder the engines used before the
columnar :class:`~repro.sim.timeline.SimTimeline` became the only trace
type.  It is kept here, outside the library, as the independent baseline
that SimTimeline is compared against:

* ``tests/sim/test_timeline.py`` swaps it into each engine through a
  test-local seam and requires SimTimeline's lazy ``Segment`` view to
  equal it bit for bit;
* the ``trace_timeline`` leg of ``benchmarks/write_bench_json.py`` and the
  ``segments`` child of ``benchmarks/mem_workload.py`` measure SimTimeline
  against it.

The per-segment reductions below (:func:`reference_residency`,
:func:`reference_executed_cycles`) are the loops the library's trace
consumers ran over this recorder; the tests and benchmarks check
SimTimeline's column reductions against them.  :func:`timeline_from`
rebuilds a SimTimeline from an edited ``Segment`` view, for the
corruption tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.hw.operating_point import OperatingPoint
from repro.sim.timeline import SimTimeline
from repro.sim.trace import _MIN_SEGMENT, Segment


class SegmentList:
    """An append-only list of :class:`Segment` with merge-on-append.

    Consecutive segments with identical (task, point, kind) are coalesced so
    the trace shows maximal intervals, like the paper's figures.
    """

    def __init__(self):
        self._segments: List[Segment] = []

    def record(self, start: float, end: float, task: Optional[str],
               point: OperatingPoint, cycles: float, energy: float,
               kind: str = "run") -> None:
        """Recorder entry point shared with
        :class:`~repro.sim.timeline.SimTimeline`: box the slice into a
        :class:`Segment` and append it."""
        self.append(Segment(start=start, end=end, task=task, point=point,
                            cycles=cycles, energy=energy, kind=kind))

    def append(self, segment: Segment) -> None:
        """Add a segment, merging with the previous one when homogeneous."""
        if segment.duration <= _MIN_SEGMENT:
            return
        if self._segments:
            last = self._segments[-1]
            mergeable = (last.task == segment.task
                         and last.point == segment.point
                         and last.kind == segment.kind
                         and abs(last.end - segment.start) <= 1e-9)
            if mergeable:
                self._segments[-1] = Segment(
                    start=last.start, end=segment.end, task=last.task,
                    point=last.point, cycles=last.cycles + segment.cycles,
                    energy=last.energy + segment.energy, kind=last.kind)
                return
        self._segments.append(segment)

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __getitem__(self, index) -> Segment:
        return self._segments[index]

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    def run_segments(self) -> List[Segment]:
        """Only the segments in which a task executed."""
        return [s for s in self._segments if s.kind == "run"]

    def segments_for(self, task_name: str) -> List[Segment]:
        """Run segments of one task."""
        return [s for s in self._segments if s.task == task_name]

    def frequency_profile(self) -> List[Tuple[float, float]]:
        """(time, relative frequency) steps — the tops of the paper's
        figures.  Returns the frequency in effect starting at each time."""
        profile: List[Tuple[float, float]] = []
        for segment in self._segments:
            frequency = segment.point.frequency
            if not profile or profile[-1][1] != frequency:
                profile.append((segment.start, frequency))
        return profile

    def busy_time(self) -> float:
        """Total time spent executing tasks."""
        return sum(s.duration for s in self._segments if s.kind == "run")

    def idle_time(self) -> float:
        """Total time spent idle (excluding switch halts)."""
        return sum(s.duration for s in self._segments if s.kind == "idle")


def reference_residency(trace) -> Dict[float, float]:
    """``{frequency: seconds}`` aggregated segment by segment."""
    out: Dict[float, float] = {}
    for segment in trace:
        f = segment.point.frequency
        out[f] = out.get(f, 0.0) + segment.duration
    return out


def reference_executed_cycles(trace) -> float:
    """Executed cycles summed over the run segments."""
    return sum(s.cycles for s in trace.run_segments())


def timeline_from(segments) -> SimTimeline:
    """A :class:`SimTimeline` recorded from ``segments`` in order — how
    tests corrupt a trace: edit its ``Segment`` view, then rebuild."""
    timeline = SimTimeline()
    for s in segments:
        timeline.record(s.start, s.end, s.task, s.point, s.cycles,
                        s.energy, s.kind)
    return timeline
