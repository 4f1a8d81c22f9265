"""Tests for the barrier-free cell executor and worker resolution."""

import io
import os

import pytest

from repro.analysis.executor import (
    CellExecutor,
    SweepProgress,
    effective_cpu_count,
    resolve_workers,
)
from repro.analysis.sweep import (
    SweepConfig,
    SweepContext,
    _build_cell_specs,
    _result_labels,
    run_cell,
)
from repro.errors import ReproError
from repro.sim.batch_kernels import numpy_backend
from tests.analysis.lanes import force_all_lanes

TINY = SweepConfig(n_tasks=3, n_sets=2, utilizations=(0.4, 0.8),
                   duration=300.0, seed=13)


def _specs_and_context(config=TINY):
    labels = _result_labels(config)
    context = SweepContext(
        machine=config.machine,
        policies=tuple(labels[:-1]),
        duration=config.duration,
        idle_level=config.idle_level,
        cycle_energy_scale=config.cycle_energy_scale,
        residency_policies=tuple(config.residency_policies))
    return context, _build_cell_specs(config)


class TestResolveWorkers:
    def test_explicit_integer_passes_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_tokens_use_effective_cpus(self):
        """'auto' resolves to the CPUs this process may actually run on
        (scheduler affinity / cgroup mask), not the raw host count —
        oversubscribing a 1-CPU container produced sub-1x 'speedups'."""
        expected = effective_cpu_count()
        assert resolve_workers("auto") == expected
        assert resolve_workers("max") == expected
        assert resolve_workers("0") == expected
        assert resolve_workers(0) == expected
        assert resolve_workers(None) == expected

    def test_effective_cpus_never_exceed_host_count(self):
        assert 1 <= effective_cpu_count() <= max(1, os.cpu_count() or 1)

    def test_numeric_string(self):
        assert resolve_workers("3") == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("plenty")


class TestCellExecutor:
    def test_serial_path_runs_inline_in_order(self):
        context, specs = _specs_and_context()
        with CellExecutor(1) as executor:
            results = list(executor.run_cells(context, specs))
        assert [index for index, _ in results] == list(range(len(specs)))
        assert executor._pool is None  # never spawned processes

    def test_parallel_matches_inline(self):
        context, specs = _specs_and_context()
        inline = {index: run_cell(context, spec)
                  for index, spec in enumerate(specs)}
        with CellExecutor(2) as executor:
            streamed = dict(executor.run_cells(context, specs))
        assert streamed == inline

    def test_on_result_fires_for_every_cell(self):
        context, specs = _specs_and_context()
        seen = []
        with CellExecutor(1) as executor:
            list(executor.run_cells(context, specs,
                                    on_result=lambda i, o: seen.append(i)))
        assert sorted(seen) == list(range(len(specs)))

    def test_run_after_shutdown_raises(self):
        context, specs = _specs_and_context()
        executor = CellExecutor(1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            list(executor.run_cells(context, specs))


class TestSubmitCell:
    """The service tier's non-blocking entry point."""

    def test_inline_future_matches_run_cell(self):
        context, specs = _specs_and_context()
        expected = run_cell(context, specs[0])
        with CellExecutor(1) as executor:
            future = executor.submit_cell(context, specs[0])
            assert future.result(timeout=60) == expected
        assert executor._pool is None  # single worker: no processes
        assert executor.ipc_bytes == 0  # nothing serialized

    def test_parallel_future_decodes_wire_payload(self):
        context, specs = _specs_and_context()
        expected = run_cell(context, specs[1])
        with CellExecutor(2) as executor:
            future = executor.submit_cell(context, specs[1])
            assert future.result(timeout=120) == expected
        assert executor.ipc_bytes > 0  # columnar payload was shipped

    def test_block_engine_matches_scalar(self, monkeypatch):
        ran = force_all_lanes(monkeypatch)
        context, specs = _specs_and_context()
        with CellExecutor(1) as executor:
            scalar = executor.submit_cell(context, specs[0],
                                          engine="scalar").result(60)
            block = executor.submit_cell(context, specs[0],
                                         engine="block").result(60)
        assert block == scalar
        if numpy_backend() is not None:
            assert sum(ran) > 0

    def test_unknown_engine_fails_loudly(self):
        context, specs = _specs_and_context()
        with CellExecutor(1) as executor:
            future = executor.submit_cell(context, specs[0],
                                          engine="batch")
            with pytest.raises(ReproError, match="unknown engine 'batch'"):
                future.result(60)
            with pytest.raises(ReproError, match="unknown engine 'batch'"):
                list(executor.run_cells(context, specs, engine="batch"))

    def test_submit_after_shutdown_raises(self):
        context, specs = _specs_and_context()
        executor = CellExecutor(1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit_cell(context, specs[0])


class TestSweepProgress:
    def test_counts_and_final_line(self):
        stream = io.StringIO()
        progress = SweepProgress(total=3, label="t", stream=stream,
                                 min_interval=1e9)
        progress.advance()
        progress.advance(cache_hit=True)
        progress.advance()
        assert progress.done == 3
        assert progress.cache_hits == 1
        text = progress.line()
        assert "3/3 cells" in text
        assert "1 cached" in text
        # The completion line was emitted despite the huge min_interval.
        assert "3/3 cells (100%)" in stream.getvalue()

    def test_eta_shown_mid_flight(self):
        progress = SweepProgress(total=10, label="t", stream=io.StringIO())
        progress.advance()
        assert "ETA" in progress.line()
