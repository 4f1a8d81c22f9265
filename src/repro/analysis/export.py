"""Exporters: CSV and Markdown renderings of sweep tables.

Both formats put the x grid in the first column and one column per series,
so the paper's figures can be re-plotted in any external tool.
"""

from __future__ import annotations

import csv
import io
from typing import Optional

from repro.analysis.series import SweepTable


def to_csv(table: SweepTable, path: Optional[str] = None) -> str:
    """Serialize a table to CSV; optionally also write it to ``path``.

    Returns the CSV text either way.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([table.x_label] + table.labels())
    for x, row in zip(table.xs, table.rows()):
        writer.writerow([_fmt(x)] + [_fmt(v) for v in row])
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def to_markdown(table: SweepTable, float_format: str = "{:.4f}") -> str:
    """Render a table as GitHub-flavoured Markdown."""
    header = [table.x_label] + table.labels()
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for x, row in zip(table.xs, table.rows()):
        cells = [f"{x:g}"] + [float_format.format(v) for v in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def trace_to_csv(trace, path: Optional[str] = None) -> str:
    """Serialize a :class:`~repro.sim.timeline.SimTimeline` to CSV.

    One row per segment: start, end, kind, task, frequency, voltage,
    cycles, energy — enough to re-plot the paper's Figs. 2/3/5/7 in any
    external tool.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["start", "end", "kind", "task", "frequency",
                     "voltage", "cycles", "energy"])
    for segment in trace:
        writer.writerow([
            _fmt(segment.start), _fmt(segment.end), segment.kind,
            segment.task or "", _fmt(segment.point.frequency),
            _fmt(segment.point.voltage), _fmt(segment.cycles),
            _fmt(segment.energy)])
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _fmt(value: float) -> str:
    return f"{value:.10g}"
