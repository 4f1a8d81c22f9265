"""Thread hand-offs on the request path: one per simulated cell.

Cache and journal I/O runs inline on the event loop; a cold cell's
simulation is the only work handed to another thread (through
``executor.submit_cell``), so the loop never waits on a worker thread
for a cache read or write.  These tests count ``asyncio.to_thread``
calls while requests are served, and check that each simulated cell is
submitted and cached exactly once.  Sweeps are tiny (4 cells) so the
module stays in the tier-1 budget.
"""

import asyncio
import threading

import pytest

from repro.analysis.cellcache import CellCache
from repro.analysis.sweep import utilization_sweep
from repro.catalog.schema import PanelSpec
from repro.service import ServiceThread, SweepService, SweepServiceClient

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}
TINY_CELLS = 4


@pytest.fixture
def calls(monkeypatch):
    """Counts thread hand-offs and cache writes while armed."""
    counter = {"armed": False, "hops": [], "puts": 0}
    to_thread, put = asyncio.to_thread, CellCache.put

    async def counted_to_thread(func, *args, **kwargs):
        if counter["armed"]:
            counter["hops"].append(func.__qualname__)
        return await to_thread(func, *args, **kwargs)

    def counted_put(self, *args, **kwargs):
        counter["puts"] += counter["armed"]
        return put(self, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counted_to_thread)
    monkeypatch.setattr(CellCache, "put", counted_put)
    return counter


def count_submits(service):
    """Wrap the service's executor so each ``submit_cell`` is counted."""
    submits = []
    submit = service.executor.submit_cell

    def counted(context, spec):
        submits.append(spec)
        return submit(context, spec)

    service.executor.submit_cell = counted
    return submits


def reference_tables():
    config = PanelSpec.from_dict(
        dict(TINY_SPEC, label="inline")).sweep_config(quick=True)
    reference = utilization_sweep(config)
    return reference.raw.rows(), reference.normalized.rows()


def tables(response):
    result = response["results"][0]
    return result["raw"], result["normalized"]


@pytest.mark.parametrize("request_id", (None, "hops1"))
def test_cold_then_warm_request_hands_off_only_cells(tmp_path, calls,
                                                     request_id):
    service = SweepService(cache=CellCache(str(tmp_path / "cells")))
    submits = count_submits(service)
    body = {"spec": TINY_SPEC}
    if request_id is not None:
        body["request_id"] = request_id
    with ServiceThread(service) as handle:
        with SweepServiceClient(port=handle.port) as client:
            calls["armed"] = True
            cold = client.submit_collect(body)
            warm = client.submit_collect({"spec": TINY_SPEC})
            calls["armed"] = False
    assert calls["hops"] == []
    assert len(submits) == calls["puts"] == TINY_CELLS
    assert cold["done"]["simulated_cells"] == TINY_CELLS
    assert warm["done"]["cache_hits"] == TINY_CELLS
    assert service.stats.result_reuses == 1
    assert tables(cold) == tables(warm) == reference_tables()


def test_concurrent_identical_requests_simulate_each_cell_once(tmp_path,
                                                               calls):
    service = SweepService(cache=CellCache(str(tmp_path / "cells")))
    submits = count_submits(service)
    responses = []
    with ServiceThread(service) as handle:
        def submit():
            with SweepServiceClient(port=handle.port) as client:
                responses.append(client.submit_collect({"spec": TINY_SPEC}))

        calls["armed"] = True
        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        calls["armed"] = False
    assert not any(thread.is_alive() for thread in threads)
    assert len(responses) == 2
    assert calls["hops"] == []
    assert len(submits) == calls["puts"] == TINY_CELLS
    assert service.stats.simulated_cells == TINY_CELLS
    assert sum(response["done"]["simulated_cells"]
               for response in responses) == TINY_CELLS
    assert [tables(response) for response in responses] \
        == [reference_tables()] * 2


def test_bounded_cache_sweeps_on_a_worker_thread(tmp_path, calls,
                                                 monkeypatch):
    # The one cache step kept off the loop: a bounded cache's periodic
    # pass scans the whole directory.
    monkeypatch.setattr(CellCache, "SWEEP_EVERY_PUTS", 2)
    cache = CellCache(str(tmp_path / "cells"), max_bytes=1 << 30)
    service = SweepService(cache=cache)
    with ServiceThread(service) as handle:
        with SweepServiceClient(port=handle.port) as client:
            calls["armed"] = True
            response = client.submit_collect({"spec": TINY_SPEC})
            calls["armed"] = False
    assert calls["hops"] == ["CellCache.maybe_sweep"] * 2
    assert calls["puts"] == TINY_CELLS and len(cache) == TINY_CELLS
    assert tables(response) == reference_tables()
