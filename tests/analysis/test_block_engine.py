"""Differential tests for the cross-cell block execution engine.

The block engine advances every policy run of a sweep column as one
**lane** in lockstep array passes (:mod:`repro.sim.block_kernels`), and
its one promise is *bit identity* with the scalar discrete-event engine
— same energies, same misses, same aggregate tables — across
numpy-on/numpy-off, serial/parallel workers, and cold/warm cache.
Anything the array program cannot replicate exactly abandons its lane
and reruns on the per-cell kernel, so divergence is impossible by
construction; these tests hold that line and pin the fallback
accounting.  The throughput
side lives in ``benchmarks/write_bench_json.py`` (``fig9_sweep_batch``).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sweep import SweepConfig, utilization_sweep
from repro.hw.energy import EnergyModel
from repro.hw.machine import machine0
from repro.sim import block_kernels
from repro.sim.batch_kernels import set_numpy_enabled, numpy_backend
from repro.sim.block_kernels import (
    LaneSpec,
    lane_segment_bound,
    run_lanes,
)

MACHINE = machine0()
ENERGY = EnergyModel(idle_level=0.1, cycle_energy_scale=1.0)

#: Small but policy-complete sweep: every kernel-envelope policy, two
#: task sets per utilization point, a horizon long enough for misses
#: and idle regions — the same column shape the batch-kernel suite uses.
TINY = dict(n_tasks=3, n_sets=2, utilizations=(0.3, 0.7), duration=400.0,
            seed=5)

RELAXED = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture
def numpy_off():
    """Pin the pure-Python kernels for one test."""
    set_numpy_enabled(False)
    yield
    set_numpy_enabled(True)


@pytest.fixture
def tight_lanes(monkeypatch):
    """Force the lane pass on even for tiny columns, with compaction
    firing every other iteration — so small differential sweeps exercise
    the exact code paths the 1000-cell benchmark takes."""
    monkeypatch.setattr(block_kernels, "BLOCK_MIN_LANES", 1)
    monkeypatch.setattr(block_kernels, "COMPACT_INTERVAL", 2)


def snap(result):
    """Every observable aggregate of a SweepResult."""
    return {
        "raw": result.raw.rows(),
        "normalized": result.normalized.rows(),
        "std": result.std,
        "rm_fallbacks": result.rm_fallbacks,
        "residency": {name: table.rows()
                      for name, table in result.residency.items()},
    }


def _lane(periods, wcets, demands, duration=120.0, point=0, **kwargs):
    return LaneSpec(periods=periods, wcets=wcets, demand_values=demands,
                    demand_repeat=True, duration=duration,
                    initial_point=point, **kwargs)


class TestBlockSweepIdentity:
    """Sweep-level differential: --engine block vs --engine scalar."""

    def test_block_bit_identical(self, tight_lanes):
        scalar = utilization_sweep(SweepConfig(**TINY))
        block = utilization_sweep(SweepConfig(engine="block", **TINY))
        assert snap(scalar) == snap(block)

    def test_block_bit_identical_numpy_off(self, tight_lanes, numpy_off):
        # Without numpy the lane pass cannot run at all; every cell must
        # take the per-cell fallback ladder and still match exactly.
        scalar = utilization_sweep(SweepConfig(**TINY))
        block = utilization_sweep(SweepConfig(engine="block", **TINY))
        assert snap(scalar) == snap(block)
        assert block.block_cells == 0
        assert sum(block.block_fallbacks.values()) > 0

    def test_block_accounting(self, tight_lanes):
        block = utilization_sweep(SweepConfig(engine="block", **TINY))
        cells = len(TINY["utilizations"]) * TINY["n_sets"]
        # Every cell ran lanes for its envelope policies; the two
        # policies outside the lane envelope (ccRM, laEDF) are attributed
        # per run — nothing vanishes from the ledger.
        assert block.block_cells == cells
        assert block.block_fallbacks == {"unsupported-policy": 2 * cells}
        assert set(block.stage_seconds) >= {"block-build", "block-kernel",
                                            "aggregate"}
        assert all(value >= 0.0 for value in block.stage_seconds.values())

    def test_small_column_falls_back(self):
        # Below BLOCK_MIN_LANES the lane pass would cost more than the
        # per-cell kernels; the ladder records why and stays identical.
        config = dict(n_tasks=3, n_sets=1, utilizations=(0.5,),
                      duration=400.0, seed=5, policies=("EDF", "ccEDF"))
        scalar = utilization_sweep(SweepConfig(**config))
        block = utilization_sweep(SweepConfig(engine="block", **config))
        assert snap(scalar) == snap(block)
        assert block.block_cells == 0
        assert block.block_fallbacks == {"small-block": 2}

    def test_block_with_residency_instrumentation(self, tight_lanes):
        # Instrumented runs are outside the lane envelope; they fall back
        # per run while the rest of the column stays on the lanes.
        config = dict(TINY, residency_policies=("ccEDF",))
        scalar = utilization_sweep(SweepConfig(**config))
        block = utilization_sweep(SweepConfig(engine="block", **config))
        assert snap(scalar) == snap(block)
        assert block.residency

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_workers_and_cache(self, tight_lanes, tmp_path, workers):
        scalar = utilization_sweep(SweepConfig(**TINY))
        cold = utilization_sweep(SweepConfig(
            engine="block", workers=workers, cache_dir=str(tmp_path),
            **TINY))
        warm = utilization_sweep(SweepConfig(
            engine="block", workers=workers, cache_dir=str(tmp_path),
            **TINY))
        assert snap(scalar) == snap(cold) == snap(warm)
        assert cold.simulated_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]
        assert warm.simulated_cells == 0
        assert warm.cache_hits == cold.simulated_cells

    def test_engines_share_one_cache_namespace(self, tight_lanes, tmp_path):
        # The engine is an execution mode, not part of the cell identity:
        # a block rerun over a scalar-populated cache must hit every cell.
        utilization_sweep(SweepConfig(cache_dir=str(tmp_path), **TINY))
        warm = utilization_sweep(SweepConfig(
            engine="block", cache_dir=str(tmp_path), **TINY))
        assert warm.simulated_cells == 0

    @RELAXED
    @given(seed=st.integers(0, 5_000),
           utilizations=st.lists(
               st.sampled_from((0.3, 0.6, 0.9, 1.0)),
               min_size=1, max_size=3, unique=True))
    def test_mixed_columns_stay_identical(self, seed, utilizations):
        # Columns mixing healthy and miss-heavy cells: the miss-heavy
        # lanes abandon (raise mode) or run dropped jobs inline, and in
        # either case every *other* cell's figures must be untouched.
        config = dict(n_tasks=3, n_sets=2, utilizations=tuple(utilizations),
                      duration=300.0, seed=seed)
        scalar = utilization_sweep(SweepConfig(**config))
        block = utilization_sweep(SweepConfig(engine="block", **config))
        assert snap(scalar) == snap(block)


class TestLaneIsolation:
    """Unit-level: one lane leaving the envelope cannot perturb others."""

    def _neighbors(self):
        return [
            _lane([10.0, 14.0], [2.0, 3.0], [[1.5], [2.5]]),
            _lane([8.0], [1.0], [[0.75]], point=1, dynamic=True),
            _lane([12.0, 20.0], [3.0, 4.0], [[2.0], [3.5]], point=2,
                  rm_priority=True),
            _lane([16.0], [2.0], [[1.0]], need_cycles=True),
        ]

    def test_deadline_miss_does_not_perturb_neighbors(self, monkeypatch):
        if numpy_backend() is None:  # pragma: no cover - numpy-less CI
            pytest.skip("lane simulator needs numpy")
        monkeypatch.setattr(block_kernels, "BLOCK_MIN_LANES", 1)
        monkeypatch.setattr(block_kernels, "COMPACT_INTERVAL", 2)
        # Point 0 runs at half speed, so a 9.9-cycle job in a 10 s period
        # overruns its deadline: in raise mode the lane must abandon.
        doomed = _lane([10.0], [9.9], [[9.9]], duration=60.0)
        neighbors = self._neighbors()
        with_doomed = run_lanes(MACHINE, ENERGY,
                                neighbors[:2] + [doomed] + neighbors[2:])
        alone = run_lanes(MACHINE, ENERGY, neighbors)
        assert with_doomed[2].abandoned == "deadline-miss"
        surviving = with_doomed[:2] + with_doomed[3:]
        assert [r.abandoned for r in surviving] == [None] * 4
        assert [(r.total_energy, r.executed_cycles) for r in surviving] \
            == [(r.total_energy, r.executed_cycles) for r in alone]

    def test_drop_mode_miss_stays_in_lane(self):
        if numpy_backend() is None:  # pragma: no cover - numpy-less CI
            pytest.skip("lane simulator needs numpy")
        dropped = _lane([10.0], [9.9], [[9.9]], duration=60.0,
                        drop_on_miss=True)
        results = run_lanes(MACHINE, ENERGY,
                            self._neighbors() + [dropped] * 4)
        assert all(r.abandoned is None for r in results)

    def test_degenerate_period_abandons_upfront(self):
        if numpy_backend() is None:  # pragma: no cover - numpy-less CI
            pytest.skip("lane simulator needs numpy")
        weird = _lane([1e-12], [1e-13], [[1e-13]], duration=1.0)
        results = run_lanes(MACHINE, ENERGY, self._neighbors() * 2 + [weird])
        assert results[-1].abandoned == "release-catch-up"
        assert all(r.abandoned is None for r in results[:-1])

    def test_numpy_disabled_returns_none(self, numpy_off):
        assert run_lanes(MACHINE, ENERGY, self._neighbors() * 2) is None

    def test_segment_bound(self):
        assert lane_segment_bound([10.0, 20.0], 100.0) == (11 + 6)
        assert lane_segment_bound([float("inf")], 100.0) == 0
