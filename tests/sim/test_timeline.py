"""Tests for the columnar :class:`~repro.sim.timeline.SimTimeline`.

Three properties anchor the columnar timeline:

* the binary codec is lossless — ``from_bytes(to_bytes(t)) == t``
  bit-for-bit, for arbitrary recorded slice streams;
* the lazy ``Segment`` view equals what the reference segment-list
  recorder (``tests/sim/segment_list.py``) builds eagerly from the same
  slice stream, on real runs of every engine, and the column reductions
  agree with the reference's per-segment loops;
* the recorder never changes a simulation — ``SimResult`` energy,
  switches, jobs and misses are bit-identical with either recorder, and
  sweep curves stay bit-identical across worker counts and cache states.
"""

import sys
import tempfile
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sweep import SweepConfig, utilization_sweep
from repro.core.cycle_conserving import CycleConservingEDF
from repro.errors import SimulationError
from repro.hw.machine import machine0
from repro.hw.operating_point import OperatingPoint
from repro.model.generator import TaskSetGenerator
from repro.obs.metrics import residency_from_trace
from repro.sim import batch_kernels, engine as engine_module, ticksim
from repro.sim.batch_kernels import CellKernel
from repro.sim.engine import Simulator
from repro.sim.ticksim import TickSimulator
from repro.sim.timeline import SimTimeline, make_trace

from tests.sim.segment_list import (SegmentList, reference_executed_cycles,
                                    reference_residency)

MACHINE = machine0()
POINTS = MACHINE.points
TASKS = (None, "t1", "t2", "t3")
KIND_NAMES = ("run", "idle", "switch")


# ---------------------------------------------------------------------------
# codec round trip
# ---------------------------------------------------------------------------

def slice_streams():
    """Arbitrary recorded streams: contiguous or gapped, merge-prone."""
    piece = st.tuples(
        st.floats(min_value=1e-6, max_value=50.0),   # duration
        st.sampled_from([0.0, 0.0, 0.5]),            # gap (0 favors merges)
        st.sampled_from(range(len(TASKS))),
        st.sampled_from(range(len(POINTS))),
        st.floats(min_value=0.0, max_value=1e6),     # cycles
        st.floats(min_value=0.0, max_value=1e3),     # energy
        st.sampled_from(range(len(KIND_NAMES))))
    return st.lists(piece, max_size=40)


def record_stream(trace, stream):
    clock = 0.0
    for duration, gap, task_i, point_i, cycles, energy, kind_i in stream:
        start = clock + gap
        trace.record(start, start + duration, TASKS[task_i],
                     POINTS[point_i], cycles, energy, KIND_NAMES[kind_i])
        clock = start + duration
    return trace


class TestCodecRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(stream=slice_streams())
    def test_lossless(self, stream):
        timeline = record_stream(SimTimeline(), stream)
        back = SimTimeline.from_bytes(timeline.to_bytes())
        assert back == timeline          # bit-exact columns + interning
        assert back.segments == timeline.segments
        # The rebuilt timeline keeps recording with identical merge
        # behaviour (the last-row mirror survives the round trip).
        timeline.record(1e9, 1e9 + 1.0, "t1", POINTS[0], 5.0, 1.0)
        back.record(1e9, 1e9 + 1.0, "t1", POINTS[0], 5.0, 1.0)
        assert back == timeline

    def test_empty(self):
        assert SimTimeline.from_bytes(SimTimeline().to_bytes()) \
            == SimTimeline()

    def test_bad_magic(self):
        with pytest.raises(SimulationError):
            SimTimeline.from_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncated_columns(self):
        timeline = record_stream(SimTimeline(),
                                 [(1.0, 0.0, 1, 0, 10.0, 1.0, 0)])
        with pytest.raises(SimulationError):
            SimTimeline.from_bytes(timeline.to_bytes()[:-4])

    def test_cross_endian_blob(self):
        timeline = record_stream(
            SimTimeline(), [(1.0, 0.0, 1, 0, 10.0, 1.0, 0),
                            (2.0, 0.5, 2, 1, 20.0, 2.0, 1)])
        blob = timeline.to_bytes()
        head_len = int.from_bytes(blob[4:8], "little")
        head = blob[8:8 + head_len]
        other = b"big" if sys.byteorder == "little" else b"little"
        body = blob[8 + head_len:]
        swapped = bytearray()
        offset = 0
        for typecode in ("d", "d", "d", "d", "i", "i", "b"):
            col = array(typecode)
            remaining = len(body) - offset
            count = remaining // col.itemsize if typecode == "b" \
                else timeline._n
            col.frombytes(body[offset:offset + count * col.itemsize])
            col.byteswap()
            swapped += col.tobytes()
            offset += count * col.itemsize
        new_head = head.replace(sys.byteorder.encode(), other)
        foreign = (blob[:4] + len(new_head).to_bytes(4, "little")
                   + new_head + bytes(swapped))
        assert SimTimeline.from_bytes(foreign) == timeline


# ---------------------------------------------------------------------------
# lazy view vs eager segment list
# ---------------------------------------------------------------------------

#: Where each engine builds its recorder: the test-local seam that swaps
#: the reference recorder in for one run.
ENGINE_MODULES = {Simulator: engine_module, TickSimulator: ticksim,
                  CellKernel: batch_kernels}


def _paired_runs(engine, monkeypatch):
    """(reference-recorder result, SimTimeline result) for one engine."""
    results = []
    for recorder in (SegmentList, SimTimeline):
        with monkeypatch.context() as patch:
            patch.setattr(ENGINE_MODULES[engine], "make_trace",
                          lambda record_trace: recorder())
            taskset = TaskSetGenerator(n_tasks=8, utilization=0.7,
                                       seed=42).generate()
            if engine is TickSimulator:
                sim = TickSimulator(taskset, MACHINE, CycleConservingEDF(),
                                    demand=0.8, duration=200.0, tick=0.05,
                                    record_trace=True)
            else:
                sim = engine(taskset, MACHINE, CycleConservingEDF(),
                             demand=0.8, duration=200.0, on_miss="drop",
                             record_trace=True)
            results.append(sim.run())
    return results


ENGINES = tuple(ENGINE_MODULES)


class TestLazyViewMatchesEagerList:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_segments_identical(self, engine, monkeypatch):
        eager, lazy = _paired_runs(engine, monkeypatch)
        assert isinstance(eager.trace, SegmentList)
        assert isinstance(lazy.trace, SimTimeline)
        assert len(eager.trace) == len(lazy.trace)
        for a, b in zip(eager.trace, lazy.trace):
            assert a == b  # frozen dataclass: every field bit-equal

    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_reductions_match_reference(self, engine, monkeypatch):
        eager, lazy = _paired_runs(engine, monkeypatch)
        reference, timeline = eager.trace, lazy.trace
        assert timeline.busy_time() == reference.busy_time()
        assert timeline.idle_time() == reference.idle_time()
        assert timeline.frequency_profile() \
            == reference.frequency_profile()
        assert timeline.executed_cycles() \
            == reference_executed_cycles(reference)
        expected = reference_residency(reference)
        residency = residency_from_trace(timeline)
        assert sorted(residency) == sorted(expected)
        for frequency, seconds in expected.items():
            assert residency[frequency] == pytest.approx(seconds,
                                                         rel=1e-9)

    def test_view_is_cached_until_the_next_append(self):
        timeline = record_stream(SimTimeline(),
                                 [(1.0, 0.0, 1, 0, 10.0, 1.0, 0)])
        first = timeline.segments
        assert timeline.segments is first
        timeline.record(5.0, 6.0, "t2", POINTS[0], 1.0, 0.5)
        assert timeline.segments is not first
        assert len(timeline.segments) == 2


# ---------------------------------------------------------------------------
# the recorder never changes the simulation
# ---------------------------------------------------------------------------

class TestBackendBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES,
                             ids=lambda e: e.__name__)
    def test_simresult_identical(self, engine, monkeypatch):
        a, b = _paired_runs(engine, monkeypatch)
        if engine is TickSimulator:
            assert a.energy == b.energy
            assert len(a.jobs) == len(b.jobs)
            assert len(a.missed) == len(b.missed)
        else:
            assert a.total_energy == b.total_energy
            assert a.switches == b.switches
            assert len(a.misses) == len(b.misses)
            assert len(a.jobs) == len(b.jobs)
        for ja, jb in zip(a.jobs, b.jobs):
            assert ja.release_time == jb.release_time
            assert ja.executed == jb.executed
            assert ja.completion_time == jb.completion_time


class TestExecutorDifferential:
    def test_rows_identical_across_workers_and_cache_states(self):
        """Serial, parallel, cold-cache and warm-cache sweeps must all
        produce bit-identical curves — the columnar transport and the
        schema-3 binary cache both preserve exact float patterns."""
        base = dict(n_tasks=5, n_sets=2, utilizations=(0.4, 0.8),
                    duration=150.0, seed=7, cache_dir=None)
        serial = utilization_sweep(SweepConfig(**base, workers=1))
        parallel = utilization_sweep(SweepConfig(**base, workers=2))
        assert serial.raw.rows() == parallel.raw.rows()
        with tempfile.TemporaryDirectory() as tmp:
            cached = dict(base, cache_dir=tmp)
            cold = utilization_sweep(SweepConfig(**cached, workers=2))
            warm = utilization_sweep(SweepConfig(**cached, workers=1))
        assert cold.simulated_cells > 0
        assert warm.simulated_cells == 0       # every cell from the cache
        assert cold.raw.rows() == serial.raw.rows()
        assert warm.raw.rows() == serial.raw.rows()


# ---------------------------------------------------------------------------
# make_trace
# ---------------------------------------------------------------------------

class TestMakeTrace:
    def test_backends(self):
        assert make_trace(False) is None
        assert isinstance(make_trace(True), SimTimeline)
