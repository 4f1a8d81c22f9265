"""The warm fast path and the catalog job memo.

A repeat request whose tables the result LRU already holds is answered
after one ``CellCache.touch`` pass (no entry is read or decoded); a
missing entry drops it back to the per-cell probe.  Catalog requests
resolve to their jobs once per loaded catalog.  Inline sweeps are tiny
(4 cells) so the module stays in the tier-1 budget.
"""

import os
import time

import pytest

from repro.analysis.cellcache import CellCache
from repro.analysis.sweep import utilization_sweep
from repro.catalog.catalog import load_catalog
from repro.catalog.schema import PanelSpec
from repro.service import (ServiceThread, SweepService, SweepServiceClient,
                           parse_request, resolve_jobs)

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}
OTHER_SPEC = dict(TINY_SPEC, seed=7)
TINY_CELLS = 4


def tables_only(result_event):
    return {key: result_event[key]
            for key in ("scenario", "panel", "xs", "labels",
                        "raw", "normalized", "rm_fallbacks")}


def keys_of(spec):
    return resolve_jobs(parse_request({"spec": spec}))[0].keys


@pytest.fixture
def gets(monkeypatch):
    """Counts ``CellCache.get`` calls once armed (``gets["armed"] = 1``)."""
    counter = {"armed": 0, "calls": 0}
    original = CellCache.get

    def counted(self, key):
        counter["calls"] += counter["armed"]
        return original(self, key)

    monkeypatch.setattr(CellCache, "get", counted)
    return counter


def serve(tmp_path, *requests):
    """Serve ``requests`` in order on one fresh service; ``requests``
    may interleave callables, run between two requests."""
    cache = CellCache(str(tmp_path / "cells"))
    service = SweepService(cache=cache)
    responses = []
    with ServiceThread(service) as handle:
        with SweepServiceClient(port=handle.port) as client:
            for request in requests:
                if callable(request):
                    request(cache)
                else:
                    responses.append(client.submit_collect(request))
    return service, cache, responses


class TestWarmFastPath:
    def test_repeat_request_reads_no_cell(self, tmp_path, gets):
        service, _, (cold, warm) = serve(
            tmp_path, {"spec": TINY_SPEC},
            lambda cache: gets.update(armed=1), {"spec": TINY_SPEC})
        assert gets["calls"] == 0
        job = next(e for e in warm["events"] if e["event"] == "job")
        assert job["warm"] == TINY_CELLS
        assert warm["done"]["cache_hits"] == TINY_CELLS
        assert warm["done"]["simulated_cells"] == 0
        assert warm["results"][0]["cache_hits"] == TINY_CELLS
        assert service.stats.cache_hits == TINY_CELLS
        assert service.stats.result_reuses == 1
        config = PanelSpec.from_dict(
            dict(TINY_SPEC, label="inline")).sweep_config(quick=True)
        reference = utilization_sweep(config)
        assert warm["results"][0]["raw"] == reference.raw.rows()
        assert warm["results"][0]["normalized"] == \
            reference.normalized.rows()
        assert tables_only(warm["results"][0]) == \
            tables_only(cold["results"][0])

    def test_missing_entry_falls_back_to_the_probe(self, tmp_path):
        victim = keys_of(TINY_SPEC)[1]
        _, _, (cold, repeat) = serve(
            tmp_path, {"spec": TINY_SPEC},
            lambda cache: cache.path_for(victim).unlink(),
            {"spec": TINY_SPEC})
        assert repeat["done"]["simulated_cells"] == 1
        assert repeat["done"]["cache_hits"] == TINY_CELLS - 1
        assert tables_only(repeat["results"][0]) == \
            tables_only(cold["results"][0])

    def test_fast_path_hit_refreshes_lru_recency(self, tmp_path, gets):
        tiny, other = keys_of(TINY_SPEC), keys_of(OTHER_SPEC)

        def age_entries(cache):
            # The served panel's entries become the oldest in the cache.
            now = time.time()
            for age, keys in ((2000, tiny), (1000, other)):
                for key in keys:
                    os.utime(cache.path_for(key), (now - age, now - age))
            gets.update(armed=1)

        _, cache, _ = serve(tmp_path, {"spec": TINY_SPEC},
                            {"spec": OTHER_SPEC}, age_entries,
                            {"spec": TINY_SPEC})
        assert gets["calls"] == 0  # the repeat took the fast path
        budget = sum(cache.path_for(key).stat().st_size for key in tiny)
        stats = cache.sweep(max_bytes=budget)
        assert stats.evicted == len(other)
        assert all(cache.path_for(key).exists() for key in tiny)
        assert not any(cache.path_for(key).exists() for key in other)

    def test_journaled_fast_path_request_resumes(self, tmp_path, gets):
        _, _, (_, journaled, resumed) = serve(
            tmp_path, {"spec": TINY_SPEC},
            lambda cache: gets.update(armed=1),
            {"spec": TINY_SPEC, "request_id": "warm1"},
            {"resume": True, "request_id": "warm1"})
        assert gets["calls"] == 0
        assert journaled["done"]["journal_done"] == TINY_CELLS
        assert journaled["done"]["journal_skipped"] == 0
        assert resumed["done"]["simulated_cells"] == 0
        assert resumed["done"]["journal_skipped"] == TINY_CELLS
        assert tables_only(resumed["results"][0]) == \
            tables_only(journaled["results"][0])


class TestJobMemo:
    PANEL = {"scenario": "fig9", "panel": "5-tasks"}

    def test_repeat_catalog_request_reuses_its_jobs(self):
        service = SweepService(cache=None)
        first = service._resolve(parse_request(self.PANEL))
        assert service._resolve(parse_request(self.PANEL)) is first
        assert isinstance(first[0].specs, tuple)
        assert isinstance(first[0].keys, tuple)

    def test_catalog_refresh_forces_re_resolution(self):
        service = SweepService(cache=None)
        first = service._resolve(parse_request(self.PANEL))
        load_catalog(refresh=True)
        again = service._resolve(parse_request(self.PANEL))
        assert again is not first
        assert again[0].keys == first[0].keys

    def test_inline_specs_are_never_memoized(self):
        service = SweepService(cache=None)
        request = parse_request({"spec": TINY_SPEC})
        assert service._resolve(request) is not service._resolve(request)
        assert service._jobs == {}

    def test_block_and_scalar_engines_share_keys(self):
        service = SweepService(cache=None)
        scalar = service._resolve(parse_request(
            dict(self.PANEL, engine="scalar")))
        block = service._resolve(parse_request(
            dict(self.PANEL, engine="block")))
        assert block[0].keys == scalar[0].keys
        assert block[0].fingerprint == scalar[0].fingerprint
