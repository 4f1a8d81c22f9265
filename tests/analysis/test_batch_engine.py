"""Differential tests for the per-cell batch kernel.

:mod:`repro.sim.batch_kernels` is the block engine's per-cell rung: every
run the lanes cannot serve lands on :func:`repro.analysis.batch.batch_simulate`.
Its one promise is *bit identity*: the flat-array kernel must produce
exactly the outcome the discrete-event engine produces — same energies,
same switch counts, same misses, same trace, same aggregate tables —
across numpy-on/numpy-off, fast-path on/off, serial/parallel, and
cold/warm cache.  These tests hold that line at run level and, with the
block engine pinned to this rung, at sweep level; the throughput side
lives in ``benchmarks/write_bench_json.py`` (``fig9_sweep_batch``).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.batch import ENGINES, build_column_block
from repro.analysis.sweep import (
    CellSpec,
    SweepConfig,
    SweepContext,
    cell_cache_key,
    utilization_sweep,
)
from repro.core import make_policy
from repro.errors import MachineError, ReproError
from repro.hw.machine import machine0
from repro.model.generator import TaskSetGenerator
from repro.model.task import Task, TaskSet
from repro.sim import block_kernels
from repro.sim.batch_kernels import (
    deadline_miss_mask,
    kernel_simulate,
    kernel_supported,
    lowest_at_least_indices,
    release_counts,
    set_numpy_enabled,
    zero_demand_mask,
)
from repro.sim.engine import simulate

POLICIES = ("EDF", "staticEDF", "staticRM", "ccEDF", "ccRM", "laEDF")

MACHINE = machine0()

#: Small but policy-complete sweep: every paper policy, two task sets per
#: utilization point, a horizon long enough for misses and idle regions.
TINY = dict(n_tasks=3, n_sets=2, utilizations=(0.3, 0.7), duration=400.0,
            seed=5)

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture
def numpy_off():
    """Pin the pure-Python block kernels for one test."""
    set_numpy_enabled(False)
    yield
    set_numpy_enabled(True)


@pytest.fixture
def per_cell_rung(monkeypatch):
    """Keep every lane pass below ``BLOCK_MIN_LANES``, so the block engine
    runs every policy run on its per-cell kernel rung."""
    monkeypatch.setattr(block_kernels, "BLOCK_MIN_LANES", 10 ** 9)


def rung_sweep(**config):
    """A block-engine sweep that must not have served any lane."""
    result = utilization_sweep(SweepConfig(engine="block", **config))
    assert result.block_cells == 0
    return result


def canon(result):
    """Every observable field of a SimResult, as comparable values."""
    trace = None
    if result.trace is not None:
        trace = tuple(tuple(col) for col in result.trace.columns())
    return {
        "policy": result.policy_name,
        "exec_by_point": dict(result.energy.execution),
        "idle": result.energy.idle,
        "switch": result.energy.switch,
        "total": result.energy.total,
        "switches": result.switches,
        "jobs": [(j.task.name, j.release_time, j.demand, j.executed,
                  j.completion_time, j.index) for j in result.jobs],
        "misses": [(m.task_name, m.release_time, m.deadline, m.demand,
                    m.executed) for m in result.misses],
        "trace": trace,
    }


def snap(result):
    """Every observable aggregate of a SweepResult."""
    return {
        "raw": result.raw.rows(),
        "normalized": result.normalized.rows(),
        "std": result.std,
        "rm_fallbacks": result.rm_fallbacks,
        "residency": {name: table.rows()
                      for name, table in result.residency.items()},
        "fast_path": (result.fast_path_cells, result.fast_path_fallbacks),
    }


class TestKernelMatchesEngine:
    """Run-level differential: kernel_simulate vs engine.simulate."""

    @RELAXED
    @given(seed=st.integers(0, 10_000),
           utilization=st.floats(0.2, 1.0),
           policy=st.sampled_from(POLICIES),
           on_miss=st.sampled_from(("raise", "drop")),
           demand=st.sampled_from((None, "uniform:0.5", 0.7)),
           record_trace=st.booleans())
    def test_bit_identical_or_same_error(self, seed, utilization, policy,
                                         on_miss, demand, record_trace):
        taskset = TaskSetGenerator(n_tasks=3, utilization=utilization,
                                   seed=seed).generate()
        duration = 3.0 * max(t.period for t in taskset)
        kwargs = dict(duration=duration, on_miss=on_miss, demand=demand,
                      record_trace=record_trace)
        assert kernel_supported(make_policy(policy), on_miss=on_miss)
        try:
            engine = canon(simulate(taskset, MACHINE, make_policy(policy),
                                    **kwargs))
        except ReproError as exc:
            engine = (type(exc).__name__, str(exc))
        try:
            kernel = canon(kernel_simulate(taskset, MACHINE,
                                           make_policy(policy), **kwargs))
        except ReproError as exc:
            kernel = (type(exc).__name__, str(exc))
        assert engine == kernel

    def test_kernel_envelope(self):
        policy = make_policy("ccEDF")
        assert kernel_supported(policy)
        assert not kernel_supported(policy, on_miss="continue")
        assert not kernel_supported(policy, instrument=object())
        assert not kernel_supported(policy, admissions=[object()])
        assert not kernel_supported(policy, enforce_wcet=False)
        assert not kernel_supported(object())


class TestBlockKernels:
    """Unit-level: vectorized kernels vs their event-loop references."""

    def test_release_counts_match_engine_jobs(self):
        taskset = TaskSetGenerator(n_tasks=4, utilization=0.6,
                                   seed=9).generate()
        duration = 2.5 * max(t.period for t in taskset)
        result = simulate(taskset, MACHINE, make_policy("EDF"),
                          duration=duration, on_miss="drop")
        per_task = {t.name: 0 for t in taskset}
        for job in result.jobs:
            per_task[job.task.name] += 1
        counts = release_counts([t.period for t in taskset], duration)
        assert counts == [per_task[t.name] for t in taskset]

    def test_release_counts_horizon_coincident(self):
        # The at-the-horizon release is suppressed, exactly like the
        # engine's `release < duration - eps` loop condition.
        assert release_counts([10.0], 100.0) == [10]
        assert release_counts([10.0], 100.1) == [11]

    @pytest.mark.parametrize("n", [5, 200])
    def test_masks_match_python_reference(self, n):
        # n=200 crosses the numpy threshold; n=5 stays pure-Python.  Both
        # must agree with the unvectorized predicate exactly.
        demands = [(i % 7) * 1e-10 if i % 3 == 0 else 0.5 + i
                   for i in range(n)]
        deadlines = [float(i) for i in range(n)]
        completed = [i % 2 == 0 for i in range(n)]
        duration = n / 2.0
        expected_zero = [d <= 1e-9 for d in demands]
        expected_miss = [not done and dl <= duration + 1e-9
                         for dl, done in zip(deadlines, completed)]
        try:
            for enabled in (True, False):
                set_numpy_enabled(enabled)
                assert zero_demand_mask(demands) == expected_zero
                assert deadline_miss_mask(deadlines, completed,
                                          duration) == expected_miss
        finally:
            set_numpy_enabled(True)

    @pytest.mark.parametrize("n", [5, 200])
    def test_lowest_at_least_matches_machine(self, n):
        speeds = [((i * 37) % (n + 1)) / n for i in range(n)]
        speeds[0] = 0.0
        speeds[-1] = 1.0
        expected = [MACHINE.lowest_at_least(s) for s in speeds]
        try:
            for enabled in (True, False):
                set_numpy_enabled(enabled)
                indices = lowest_at_least_indices(MACHINE, speeds)
                assert [MACHINE.points[i] for i in indices] == expected
        finally:
            set_numpy_enabled(True)

    @pytest.mark.parametrize("n", [5, 200])
    def test_lowest_at_least_over_unity_error_parity(self, n):
        speeds = [0.5] * n
        speeds[n // 2] = 1.2
        with pytest.raises(MachineError) as scalar_err:
            MACHINE.lowest_at_least(1.2)
        try:
            for enabled in (True, False):
                set_numpy_enabled(enabled)
                with pytest.raises(MachineError) as batch_err:
                    lowest_at_least_indices(MACHINE, speeds)
                assert str(batch_err.value) == str(scalar_err.value)
        finally:
            set_numpy_enabled(True)


class TestBatchSweepIdentity:
    """Sweep-level differential: the block engine pinned to its per-cell
    batch-kernel rung vs the scalar engine."""

    def test_unknown_engine_rejected(self):
        assert ENGINES == ("scalar", "block")
        for name in ("vector", "batch"):
            with pytest.raises(ReproError,
                               match="expected one of 'scalar', 'block'"):
                SweepConfig(engine=name, **TINY)

    def test_batch_bit_identical(self, per_cell_rung):
        scalar = utilization_sweep(SweepConfig(**TINY))
        batch = rung_sweep(**TINY)
        assert snap(scalar) == snap(batch)

    def test_batch_bit_identical_numpy_off(self, numpy_off):
        scalar = utilization_sweep(SweepConfig(**TINY))
        batch = rung_sweep(**TINY)
        assert snap(scalar) == snap(batch)

    def test_batch_with_residency_instrumentation(self, per_cell_rung):
        # Instrumented policy runs are outside the kernel envelope; the
        # rung must fall back to the engine per run and still match.
        config = dict(TINY, residency_policies=("ccEDF",))
        scalar = utilization_sweep(SweepConfig(**config))
        batch = rung_sweep(**config)
        assert snap(scalar) == snap(batch)
        assert batch.residency  # the instrumented table actually exists

    def test_batch_composes_with_fast_path(self, per_cell_rung):
        # Degenerate commensurable bands: every cell is fast-path
        # eligible, so the short-circuit's warmup windows run on the
        # batch kernel and extrapolate identically.
        bands = ((25.0, 25.0), (50.0, 50.0))
        config = dict(TINY, duration=2000.0, period_bands=bands,
                      steady_fast_path=True)
        scalar = utilization_sweep(SweepConfig(**config))
        batch = rung_sweep(**config)
        assert snap(scalar) == snap(batch)
        assert batch.fast_path_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_workers_and_cache(self, per_cell_rung, tmp_path,
                                     workers):
        scalar = utilization_sweep(SweepConfig(**TINY))
        cold = rung_sweep(workers=workers, cache_dir=str(tmp_path), **TINY)
        warm = rung_sweep(workers=workers, cache_dir=str(tmp_path), **TINY)
        assert snap(scalar) == snap(cold) == snap(warm)
        assert cold.simulated_cells == len(TINY["utilizations"]) * \
            TINY["n_sets"]
        assert warm.simulated_cells == 0
        assert warm.cache_hits == cold.simulated_cells


class TestSteadyResolutionPinning:
    """The hyperperiod grid is sweep state, not an implicit constant."""

    def _pathological_taskset(self):
        # 1.0005 is not representable on a 1e-3 grid (0.5-tick error) but
        # is exact on 1e-4 — so the hyperperiod flips between None and
        # finite purely on the detection resolution.
        return TaskSet([Task(0.1, 1.0005, "A"), Task(0.2, 2.0, "B")])

    def test_resolution_changes_the_hyperperiod(self):
        taskset = self._pathological_taskset()
        assert taskset.hyperperiod(resolution=1e-3) is None
        finite = taskset.hyperperiod(resolution=1e-4)
        assert finite == pytest.approx(4002.0)

    def _context(self, resolution):
        return SweepContext(machine=MACHINE, policies=("EDF",),
                            duration=400.0, idle_level=0.0,
                            cycle_energy_scale=1.0,
                            steady_resolution=resolution)

    def test_nondefault_resolution_enters_cache_key(self):
        spec = CellSpec(utilization=0.5, set_index=0, n_tasks=3,
                        gen_seed=11, demand_seed=12, demand="worst")
        default_key = cell_cache_key(self._context(1e-6), spec)
        coarse_key = cell_cache_key(self._context(1e-3), spec)
        assert default_key != coarse_key
        # The bands idiom: the default resolution adds no key material,
        # so every pre-existing cached cell keeps its address.
        assert "steady_resolution" not in self._context(1e-6).description()
        assert self._context(1e-3).description()[
            "steady_resolution"] == 1e-3

    def test_column_block_honours_pinned_resolution(self):
        # Degenerate bands force exactly commensurable 25/50 s periods:
        # the default grid resolves their hyperperiod, while a 10 s grid
        # cannot even represent a 25 s period (2.5 ticks) and reports
        # None — so the block must use the context's pinned resolution.
        spec = CellSpec(utilization=0.5, set_index=0, n_tasks=3,
                        gen_seed=11, demand_seed=12, demand="worst",
                        bands=((25.0, 25.0), (50.0, 50.0)))
        coarse = build_column_block(self._context(10.0), [spec])
        fine = build_column_block(self._context(1e-6), [spec])
        assert coarse.hyperperiods == [None]
        assert fine.hyperperiods == [50.0]
