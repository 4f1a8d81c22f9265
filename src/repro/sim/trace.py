"""Execution traces: what ran when, at which operating point.

Traces are the raw material behind the paper's worked-example figures
(Figs. 2, 3, 5 and 7): a sequence of contiguous segments, each either
executing one task or idling, at one operating point.  The engines record
them into a :class:`~repro.sim.timeline.SimTimeline`; this module holds
the :class:`Segment` view type it hands out and renders traces as ASCII
timelines resembling those figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.hw.operating_point import OperatingPoint

if TYPE_CHECKING:
    from repro.sim.timeline import SimTimeline

#: Segments shorter than this are dropped when recording (pure bookkeeping
#: artifacts of coincident events).
_MIN_SEGMENT = 1e-12


@dataclass(frozen=True, slots=True)
class Segment:
    """A maximal interval of homogeneous processor activity.

    Attributes
    ----------
    start, end:
        Segment bounds (``start < end``).
    task:
        Name of the executing task, or ``None`` while idle or halted for an
        operating-point switch.
    point:
        Operating point during the segment.
    cycles:
        Cycles executed (0 for idle/halt segments).
    energy:
        Energy dissipated in the segment.
    kind:
        ``"run"``, ``"idle"`` or ``"switch"``.
    """

    start: float
    end: float
    task: Optional[str]
    point: OperatingPoint
    cycles: float
    energy: float
    kind: str = "run"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.task if self.task else self.kind
        return (f"[{self.start:g}, {self.end:g}) {label} @ f={self.point.frequency:g}"
                f" ({self.cycles:g} cyc, {self.energy:g} E)")


def render_trace(trace: SimTimeline, width: int = 72,
                 end: Optional[float] = None) -> str:
    """Render a trace as an ASCII timeline.

    One row per task plus a frequency row, in the spirit of the paper's
    Figs. 2/3/5/7.  ``width`` columns cover ``[0, end]`` (``end`` defaults
    to the trace's last segment).
    """
    segments = trace.segments
    if not segments:
        return "(empty trace)"
    horizon = end if end is not None else segments[-1].end
    if horizon <= 0:
        return "(empty trace)"
    tasks: List[str] = []
    for segment in segments:
        if segment.task and segment.task not in tasks:
            tasks.append(segment.task)

    def column(t: float) -> int:
        return min(width - 1, max(0, int(t / horizon * width)))

    freq_row = [" "] * width
    rows = {name: [" "] * width for name in tasks}
    for segment in segments:
        c0, c1 = column(segment.start), column(min(segment.end, horizon))
        if segment.start >= horizon:
            continue
        for c in range(c0, max(c0 + 1, c1)):
            freq_row[c] = _frequency_glyph(segment.point.frequency)
            if segment.task:
                rows[segment.task][c] = "#"
    lines = ["freq  |" + "".join(freq_row) + "|"]
    for name in tasks:
        lines.append(f"{name:<6}|" + "".join(rows[name]) + "|")
    lines.append(f"       0{'':{width - 10}}{horizon:g}")
    legend = ("glyphs: frequency . <=0.25, : <=0.5, + <=0.75, * <=1.0; "
              "# executing")
    lines.append(legend)
    return "\n".join(lines)


def _frequency_glyph(frequency: float) -> str:
    if frequency <= 0.25:
        return "."
    if frequency <= 0.5:
        return ":"
    if frequency <= 0.75:
        return "+"
    return "*"
