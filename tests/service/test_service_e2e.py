"""End-to-end service tests over real sockets.

Each test runs a :class:`SweepService` on an ephemeral port in a
background event-loop thread and drives it with the blocking client —
the same stack `rtdvs serve` / `rtdvs submit` use, minus the argument
parsing.  Sweeps are tiny (3 tasks, 2 sets, 2 utilizations, 100 ms
horizon = 4 cells) so the whole module stays in the tier-1 budget.
"""

import http.client
import json
import threading
import time

import pytest

from repro.analysis.cellcache import CellCache
from repro.analysis.sweep import utilization_sweep
from repro.catalog.schema import PanelSpec
from repro.service import (AdmissionQueue, ServiceError, ServiceThread,
                           SweepService, SweepServiceClient, TenantQuotas)
from repro.sim.batch_kernels import numpy_backend
from tests.analysis.lanes import force_all_lanes

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}
TINY_CELLS = 4


def tiny_service(tmp_path, **kwargs):
    cache = CellCache(str(tmp_path / "cells"))
    return SweepService(cache=cache, **kwargs)


def tables_only(result_event):
    """The deterministic slice of a result event — everything except the
    per-request source accounting (cache_hits/simulated/coalesced)."""
    return {key: result_event[key]
            for key in ("scenario", "panel", "xs", "labels",
                        "raw", "normalized", "rm_fallbacks")}


def in_process_rows(spec=TINY_SPEC):
    config = PanelSpec.from_dict(dict(spec, label="inline")).sweep_config(
        quick=True)
    result = utilization_sweep(config)
    return result.raw.rows(), result.normalized.rows()


class TestServing:
    def test_cold_then_warm_with_bit_identical_aggregates(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            first = client.submit_collect({"spec": TINY_SPEC})
            assert first["done"]["simulated_cells"] == TINY_CELLS
            assert first["done"]["cache_hits"] == 0

            second = client.submit_collect({"spec": TINY_SPEC})
            assert second["done"]["simulated_cells"] == 0
            assert second["done"]["cache_hits"] == TINY_CELLS
            # Warm and cold responses agree byte-for-byte on the tables.
            assert ([tables_only(r) for r in second["results"]]
                    == [tables_only(r) for r in first["results"]])

        # ... and both match a direct in-process sweep bit-exactly.
        raw, normalized = in_process_rows()
        assert first["results"][0]["raw"] == raw
        assert first["results"][0]["normalized"] == normalized

    def test_partial_aggregates_stream_incrementally(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            events = list(client.submit(
                {"spec": TINY_SPEC, "stream_every": 1}))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "done"
        partials = [e for e in events if e["event"] == "partial"]
        # stream_every=1 on 4 cold cells: a partial after each completed
        # cell except the last (the result event covers completion).
        assert len(partials) == TINY_CELLS - 1
        dones = [p["done"] for p in partials]
        assert dones == sorted(dones)
        for partial in partials:
            sets_done = partial["aggregate"]["sets_done"]
            assert sum(sets_done) == partial["done"]
            # Completed points carry means, untouched points None.
            for series in partial["aggregate"]["raw_mean"].values():
                for count, value in zip(sets_done, series):
                    assert (value is None) == (count == 0)

    def test_block_engine_serves_identical_tables(self, tmp_path,
                                                  monkeypatch):
        # The service runs cells inline on its own threads, so the pinned
        # cut reaches them.
        ran = force_all_lanes(monkeypatch)
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            out = client.submit_collect(
                {"spec": TINY_SPEC, "engine": "block"})
        raw, normalized = in_process_rows()
        assert out["results"][0]["raw"] == raw
        assert out["results"][0]["normalized"] == normalized
        if numpy_backend() is not None:
            assert sum(ran) > 0

    def test_scenario_request_resolves_panels(self, tmp_path):
        spec_cells = 4 * 3  # 4 cells per panel, three tiny panels? no —
        # use a single-panel narrow request to stay fast.
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            events = list(client.submit({"scenario": "fig9",
                                         "panel": "5-tasks"}))
        started = events[0]
        assert started["jobs"] == [
            {"scenario": "fig9", "panel": "5-tasks",
             "cells": started["total_cells"]}]
        result = next(e for e in events if e["event"] == "result")
        assert result["scenario"] == "fig9"
        assert len(result["xs"]) == len(result["raw"])


class TestDedup:
    def test_concurrent_identical_requests_simulate_once(self, tmp_path):
        service = tiny_service(tmp_path,
                               quotas=TenantQuotas(max_inflight=8))
        K = 4
        dones = []
        with ServiceThread(service) as handle:
            def submit():
                client = SweepServiceClient(port=handle.port)
                dones.append(client.submit_collect(
                    {"spec": TINY_SPEC})["done"])

            threads = [threading.Thread(target=submit) for _ in range(K)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert len(dones) == K
        total_simulated = sum(d["simulated_cells"] for d in dones)
        assert total_simulated == TINY_CELLS  # one request's worth
        # Nothing lost and nothing duplicated: every request accounted
        # for every cell exactly once, whatever mix of sources.
        for done in dones:
            assert (done["simulated_cells"] + done["coalesced_cells"]
                    + done["cache_hits"]) == TINY_CELLS
        assert service.single_flight.inflight == 0


class TestBackpressure:
    def test_429_retry_after_honored_by_client(self, tmp_path):
        """Deterministic quota exhaustion: the test occupies the
        tenant's only slot, the first retry sleep releases it — the
        client must have slept the server's Retry-After hint and then
        succeeded."""
        service = tiny_service(
            tmp_path, quotas=TenantQuotas(max_inflight=1,
                                          retry_after=0.25))
        with ServiceThread(service) as handle:
            service.quotas.acquire("t1")  # eat the only slot
            sleeps = []

            def sleep_then_release(seconds):
                sleeps.append(seconds)
                service.quotas.release("t1")
                time.sleep(0.01)

            client = SweepServiceClient(port=handle.port,
                                        sleep=sleep_then_release)
            out = client.submit_collect({"spec": TINY_SPEC,
                                         "tenant": "t1"})
        assert out["done"] is not None
        assert sleeps == [0.25]  # the server's hint, verbatim
        assert client.retries_429 == 1
        assert service.quotas.rejected == 1

    def test_retries_exhausted_surfaces_429(self, tmp_path):
        service = tiny_service(
            tmp_path, quotas=TenantQuotas(max_inflight=1,
                                          retry_after=0.01))
        with ServiceThread(service) as handle:
            service.quotas.acquire("t1")  # never released
            client = SweepServiceClient(port=handle.port, max_retries=2,
                                        sleep=lambda seconds: None)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_collect({"spec": TINY_SPEC, "tenant": "t1"})
        assert excinfo.value.status == 429
        assert client.retries_429 == 2

    def test_contention_loses_and_duplicates_nothing(self, tmp_path):
        """K clients, one-slot tenant budget, real backoff: every
        request eventually completes with every cell accounted exactly
        once, and the cluster as a whole simulates each cell once."""
        service = tiny_service(
            tmp_path, quotas=TenantQuotas(max_inflight=1,
                                          retry_after=0.02),
            admission=AdmissionQueue(max_pending=2))
        K = 3
        dones, failures = [], []
        with ServiceThread(service) as handle:
            def submit():
                try:
                    client = SweepServiceClient(port=handle.port,
                                                max_retries=200)
                    dones.append(client.submit_collect(
                        {"spec": TINY_SPEC})["done"])
                except Exception as exc:  # pragma: no cover - diagnostics
                    failures.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(K)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not failures
        assert len(dones) == K
        for done in dones:
            assert (done["simulated_cells"] + done["coalesced_cells"]
                    + done["cache_hits"]) == TINY_CELLS
        assert sum(d["simulated_cells"] for d in dones) == TINY_CELLS


class TestErrorsAndIntrospection:
    def test_unknown_scenario_is_http_400(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_collect({"scenario": "fig99"})
        assert excinfo.value.status == 400

    def test_batch_engine_is_http_400(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            with pytest.raises(ServiceError,
                               match="expected one of 'scalar', 'block'"
                               ) as excinfo:
                client.submit_collect({"spec": TINY_SPEC, "engine": "batch"})
        assert excinfo.value.status == 400

    def test_unknown_request_key_is_http_400(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_collect({"scenario": "fig9", "n_taks": 8})
        assert excinfo.value.status == 400

    def test_raw_http_error_paths(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            def roundtrip(method, path, body=None):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=30)
                try:
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    return response.status, response.read()
                finally:
                    connection.close()

            assert roundtrip("GET", "/nope")[0] == 404
            assert roundtrip("GET", "/v1/sweep")[0] == 405
            assert roundtrip("POST", "/v1/healthz")[0] == 405
            status, body = roundtrip("POST", "/v1/sweep", b"not json{")
            assert status == 400
            assert b"error" in body

    def test_healthz_and_stats(self, tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            client = SweepServiceClient(port=handle.port)
            health = client.healthz()
            assert health["ok"] is True
            client.submit_collect({"spec": TINY_SPEC})
            client.submit_collect({"spec": TINY_SPEC})
            stats = client.stats()
        assert stats["requests"] == 2
        assert stats["simulated_cells"] == TINY_CELLS
        assert stats["cache_hits"] == TINY_CELLS
        assert stats["cells_served"] == 2 * TINY_CELLS
        assert stats["single_flight"]["leads"] == TINY_CELLS
        assert stats["cache"]["entries"] == TINY_CELLS
        assert stats["cache"]["bytes"] > 0
        assert stats["bytes_streamed"] > 0

    def test_cacheless_service_always_simulates(self, tmp_path):
        with ServiceThread(SweepService(cache=None)) as handle:
            client = SweepServiceClient(port=handle.port)
            first = client.submit_collect({"spec": TINY_SPEC})["done"]
            second = client.submit_collect({"spec": TINY_SPEC})["done"]
        assert first["simulated_cells"] == TINY_CELLS
        assert second["simulated_cells"] == TINY_CELLS
        # Still bit-identical: same seeds, same cells.
        raw, _ = in_process_rows()


class _FailingExecutor:
    """A cell executor whose every submission blows up."""

    workers = 1

    def submit_cell(self, context, spec, engine="scalar"):
        raise RuntimeError("executor exploded")

    def shutdown(self):
        pass


class TestServedErrors:
    def test_failed_sweep_streams_error_and_logs_traceback(self, caplog):
        service = SweepService(cache=None, executor=_FailingExecutor())
        with caplog.at_level("ERROR", logger="repro.service"):
            with ServiceThread(service) as handle:
                client = SweepServiceClient(port=handle.port)
                with pytest.raises(ServiceError, match="executor exploded"):
                    list(client.submit({"spec": TINY_SPEC}))
        assert service.stats.errors == 1
        records = [r for r in caplog.records if r.name == "repro.service"]
        assert len(records) == 1
        assert records[0].exc_info is not None
        assert records[0].exc_info[0] is RuntimeError
