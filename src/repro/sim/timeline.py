"""Array-backed execution timelines (structure-of-arrays trace storage).

:class:`SimTimeline` is the one trace recorder of every engine.  One
frozen :class:`~repro.sim.trace.Segment` object per maximal slice would be
convenient for small worked examples, but on long-horizon sweeps the
per-slice object churn (allocation, boxed floats, pointer-chasing on
iteration) dominates recording cost and peak RSS.  The timeline keeps the
same logical content in seven parallel columns (``array('d')``/
``array('i')`` buffers: start, end, cycles, energy, task index,
operating-point index, kind code) with interned task names and operating
points.  Appends coalesce with the previous row (same task, point and
kind, gap within ``1e-9``; slices of ``1e-12`` or less are dropped),
accumulating cycles and energy left to right.

``Segment`` objects are only materialized lazily, when a consumer
(validation, report tables, rendering) actually asks for them.  The
reductions (:meth:`busy_time`, :meth:`idle_time`,
:meth:`frequency_residency`, :meth:`executed_cycles`) are single
pure-Python passes over the columns, so no trace feature needs an
optional dependency.  The whole column set round-trips losslessly
through :meth:`to_bytes` / :meth:`from_bytes` — a small JSON header plus
the raw little-endian buffers — which doubles as the cross-process
result transport and cache codec (see :mod:`repro.analysis.transport`).
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hw.operating_point import OperatingPoint
from repro.sim.trace import Segment, _MIN_SEGMENT

#: Segment kinds in code order (codes index this tuple).
KINDS = ("run", "idle", "switch")
_KIND_CODE = {"run": 0, "idle": 1, "switch": 2}

_MAGIC = b"STL1"
_MERGE_EPS = 1e-9


def make_trace(record_trace: bool) -> Optional[SimTimeline]:
    """Build the trace recorder for an engine (or ``None`` when off)."""
    return SimTimeline() if record_trace else None


class SimTimeline:
    """Append-only, merge-on-append columnar execution timeline.

    Reads like a sequence of :class:`~repro.sim.trace.Segment`: ``len``,
    iteration, indexing, ``segments``, ``run_segments``, ``segments_for``
    and ``frequency_profile``.  Also exposes the raw columns
    (:meth:`columns`), the column reductions (:meth:`busy_time`,
    :meth:`idle_time`, :meth:`frequency_residency`,
    :meth:`executed_cycles`), and the binary codec.
    """

    __slots__ = (
        "_start", "_end", "_cycles", "_energy", "_task", "_op", "_kind",
        "_task_names", "_task_index", "_points", "_point_index",
        "_n", "_rev",
        "_m_end", "_m_cycles", "_m_energy", "_m_task", "_m_op", "_m_kind",
        "_last_point_obj", "_last_point_idx",
        "_view", "_view_rev",
    )

    def __init__(self):
        self._start = array("d")
        self._end = array("d")
        self._cycles = array("d")
        self._energy = array("d")
        self._task = array("i")   # -1 encodes "no task" (idle/switch)
        self._op = array("i")
        self._kind = array("b")
        self._task_names: List[str] = []
        self._task_index = {}
        self._points: List[OperatingPoint] = []
        self._point_index = {}
        self._n = 0
        self._rev = 0
        # Mirror of the last row kept in plain Python attributes so the
        # merge test never reads back from the buffers on the hot path.
        self._m_end = 0.0
        self._m_cycles = 0.0
        self._m_energy = 0.0
        self._m_task = -2   # sentinel: never matches
        self._m_op = -2
        self._m_kind = -2
        self._last_point_obj: Optional[OperatingPoint] = None
        self._last_point_idx = -1
        self._view: Optional[Tuple[Segment, ...]] = None
        self._view_rev = -1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, start: float, end: float, task: Optional[str],
               point: OperatingPoint, cycles: float, energy: float,
               kind: str = "run") -> None:
        """Append one slice, coalescing with the previous row when
        homogeneous (same task, point and kind, and contiguous)."""
        if end - start <= _MIN_SEGMENT:
            return
        kind_code = _KIND_CODE[kind]
        if task is None:
            task_idx = -1
        else:
            task_idx = self._task_index.get(task, -2)
            if task_idx == -2:
                task_idx = len(self._task_names)
                self._task_index[task] = task_idx
                self._task_names.append(task)
        if point is self._last_point_obj:
            op_idx = self._last_point_idx
        else:
            op_idx = self._point_index.get(point, -2)
            if op_idx == -2:
                op_idx = len(self._points)
                self._point_index[point] = op_idx
                self._points.append(point)
            self._last_point_obj = point
            self._last_point_idx = op_idx
        self._rev += 1
        gap = start - self._m_end
        if (task_idx == self._m_task and op_idx == self._m_op
                and kind_code == self._m_kind
                and -_MERGE_EPS <= gap <= _MERGE_EPS):
            # Coalesce: extend the last row in place, accumulating
            # left to right (previous total + new value).
            i = self._n - 1
            self._end[i] = end
            self._m_end = end
            total_cycles = self._m_cycles + cycles
            self._cycles[i] = total_cycles
            self._m_cycles = total_cycles
            total_energy = self._m_energy + energy
            self._energy[i] = total_energy
            self._m_energy = total_energy
            return
        self._start.append(start)
        self._end.append(end)
        self._cycles.append(cycles)
        self._energy.append(energy)
        self._task.append(task_idx)
        self._op.append(op_idx)
        self._kind.append(kind_code)
        self._n += 1
        self._m_end = end
        self._m_cycles = cycles
        self._m_energy = energy
        self._m_task = task_idx
        self._m_op = op_idx
        self._m_kind = kind_code

    def replace(self, index: int, segment: Segment) -> None:
        """Overwrite one recorded row with ``segment``'s fields.

        Doctoring hook for the validator's corruption-injection tests and
        trace-editing tools; not part of the recording hot path.  Negative
        indices follow list semantics.
        """
        i = index if index >= 0 else self._n + index
        if not 0 <= i < self._n:
            raise IndexError(index)
        if segment.task is None:
            task_idx = -1
        else:
            task_idx = self._task_index.get(segment.task, -2)
            if task_idx == -2:
                task_idx = len(self._task_names)
                self._task_index[segment.task] = task_idx
                self._task_names.append(segment.task)
        op_idx = self._point_index.get(segment.point, -2)
        if op_idx == -2:
            op_idx = len(self._points)
            self._point_index[segment.point] = op_idx
            self._points.append(segment.point)
        self._start[i] = segment.start
        self._end[i] = segment.end
        self._cycles[i] = segment.cycles
        self._energy[i] = segment.energy
        self._task[i] = task_idx
        self._op[i] = op_idx
        self._kind[i] = _KIND_CODE[segment.kind]
        self._rev += 1
        if i == self._n - 1:
            self._m_end = segment.end
            self._m_cycles = segment.cycles
            self._m_energy = segment.energy
            self._m_task = task_idx
            self._m_op = op_idx
            self._m_kind = _KIND_CODE[segment.kind]
            self._last_point_obj = None
            self._last_point_idx = -1

    # ------------------------------------------------------------------
    # columnar access
    # ------------------------------------------------------------------
    def columns(self):
        """The raw column buffers, in recording order.

        Returns ``(start, end, cycles, energy, task_idx, op_idx, kind)``
        as ``array`` objects.  Treat them as read-only; ``task_idx`` is an
        index into :attr:`task_names` (-1 for idle/switch rows), ``op_idx``
        into :attr:`points`, and ``kind`` into :data:`KINDS`.
        """
        return (self._start, self._end, self._cycles, self._energy,
                self._task, self._op, self._kind)

    @property
    def task_names(self) -> Tuple[str, ...]:
        """Interned task names, in first-appearance order."""
        return tuple(self._task_names)

    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        """Interned operating points, in first-appearance order."""
        return tuple(self._points)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column buffers (excludes interning tables)."""
        return sum(col.itemsize * len(col) for col in self.columns())

    # ------------------------------------------------------------------
    # Segment view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __getitem__(self, index):
        return self.segments[index]

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The lazy ``Segment`` view (cached until the next append)."""
        if self._view is None or self._view_rev != self._rev:
            names = self._task_names
            points = self._points
            start, end, cycles, energy, task, op, kind = self.columns()
            self._view = tuple(
                Segment(start=start[i], end=end[i],
                        task=names[task[i]] if task[i] >= 0 else None,
                        point=points[op[i]], cycles=cycles[i],
                        energy=energy[i], kind=KINDS[kind[i]])
                for i in range(self._n))
            self._view_rev = self._rev
        return self._view

    def run_segments(self) -> List[Segment]:
        """Only the segments in which a task executed."""
        return [s for s in self.segments if s.kind == "run"]

    def segments_for(self, task_name: str) -> List[Segment]:
        """Run segments of one task."""
        return [s for s in self.segments if s.task == task_name]

    def frequency_profile(self) -> List[Tuple[float, float]]:
        """(time, relative frequency) steps, straight off the columns."""
        profile: List[Tuple[float, float]] = []
        frequencies = [p.frequency for p in self._points]
        start, op = self._start, self._op
        for i in range(self._n):
            frequency = frequencies[op[i]]
            if not profile or profile[-1][1] != frequency:
                profile.append((start[i], frequency))
        return profile

    # ------------------------------------------------------------------
    # reductions (one pure-Python pass over the columns each)
    # ------------------------------------------------------------------
    def busy_time(self) -> float:
        """Total time spent executing tasks."""
        return self._kind_time(0)

    def idle_time(self) -> float:
        """Total time spent idle, excluding switch halts."""
        return self._kind_time(1)

    def _kind_time(self, code: int) -> float:
        return sum((e - s for s, e, k in zip(self._start, self._end,
                                             self._kind) if k == code), 0.0)

    def executed_cycles(self) -> float:
        """Total cycles executed over the run rows."""
        return sum((c for c, k in zip(self._cycles, self._kind) if k == 0),
                   0.0)

    def frequency_residency(self):
        """Wall time spent at each operating point, as ``{point: time}``.

        Run, idle and switch rows all count: the point is "in effect"
        either way.
        """
        totals = [0.0] * len(self._points)
        for s, e, o in zip(self._start, self._end, self._op):
            totals[o] += e - s
        return {point: totals[i] for i, point in enumerate(self._points)
                if totals[i] > 0.0}

    # ------------------------------------------------------------------
    # binary codec
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the compact columnar form (lossless).

        Layout: 4-byte magic, little-endian ``uint32`` header length, a
        JSON header (row count, interned names/points, column typecodes,
        byte order), then the raw column buffers back to back.  Floats
        travel as their exact 64-bit patterns — no text round-trip.
        """
        cols = self.columns()
        header = {
            "version": 1,
            "rows": self._n,
            "tasks": self._task_names,
            "points": [[p.frequency, p.voltage] for p in self._points],
            "typecodes": [c.typecode for c in cols],
            "itemsizes": [c.itemsize for c in cols],
            "byteorder": sys.byteorder,
        }
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        parts = [_MAGIC, struct.pack("<I", len(blob)), blob]
        parts.extend(c.tobytes() for c in cols)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimTimeline":
        """Rebuild a timeline serialized by :meth:`to_bytes`."""
        if data[:4] != _MAGIC:
            raise SimulationError("not a SimTimeline blob (bad magic)")
        (header_len,) = struct.unpack_from("<I", data, 4)
        header = json.loads(data[8:8 + header_len].decode("utf-8"))
        if header.get("version") != 1:
            raise SimulationError(
                f"unsupported SimTimeline version {header.get('version')!r}")
        timeline = cls()
        rows = header["rows"]
        timeline._task_names = list(header["tasks"])
        timeline._task_index = {name: i for i, name
                                in enumerate(timeline._task_names)}
        timeline._points = [OperatingPoint(frequency=f, voltage=v)
                            for f, v in header["points"]]
        timeline._point_index = {p: i for i, p
                                 in enumerate(timeline._points)}
        offset = 8 + header_len
        swap = header["byteorder"] != sys.byteorder
        columns = []
        for typecode, itemsize in zip(header["typecodes"],
                                      header["itemsizes"]):
            col = array(typecode)
            if col.itemsize != itemsize:
                raise SimulationError(
                    f"column typecode {typecode!r} has itemsize "
                    f"{col.itemsize} here but {itemsize} in the blob")
            nbytes = rows * itemsize
            try:
                col.frombytes(data[offset:offset + nbytes])
            except ValueError as exc:  # tail not a multiple of itemsize
                raise SimulationError(
                    f"truncated SimTimeline blob: {exc}") from exc
            if len(col) != rows:
                raise SimulationError("truncated SimTimeline blob")
            if swap:
                col.byteswap()
            columns.append(col)
            offset += nbytes
        (timeline._start, timeline._end, timeline._cycles,
         timeline._energy, timeline._task, timeline._op,
         timeline._kind) = columns
        timeline._n = rows
        if rows:
            i = rows - 1
            timeline._m_end = timeline._end[i]
            timeline._m_cycles = timeline._cycles[i]
            timeline._m_energy = timeline._energy[i]
            timeline._m_task = timeline._task[i]
            timeline._m_op = timeline._op[i]
            timeline._m_kind = timeline._kind[i]
        return timeline

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimTimeline):
            return NotImplemented
        return (self._n == other._n
                and self._task_names == other._task_names
                and self._points == other._points
                and all(a == b for a, b in zip(self.columns(),
                                               other.columns())))

    __hash__ = None  # mutable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimTimeline(rows={self._n}, tasks={len(self._task_names)},"
                f" points={len(self._points)}, nbytes={self.nbytes})")
