"""RemoteCellExecutor end-to-end over loopback TCP.

Real workers are :func:`repro.dist.worker.run_worker` on background
threads; fault-injection uses a raw-socket fake worker that takes a
lease and then misbehaves deterministically (disconnects, or sits
silent and reports late), so requeue/duplicate accounting is asserted
exactly rather than raced.
"""

import socket
import threading
import time

import pytest

from repro.analysis.sweep import utilization_sweep
from repro.catalog.schema import PanelSpec
from repro.dist import RemoteCellExecutor, run_worker
from repro.dist.wire import WIRE_VERSION, recv_frame, send_frame
from repro.sim.batch_kernels import numpy_backend
from tests.analysis.lanes import force_all_lanes

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}
TINY_CELLS = 4


def tiny_config(**overrides):
    return PanelSpec.from_dict(dict(TINY_SPEC, label="inline")) \
        .sweep_config(quick=True, **overrides)


@pytest.fixture(scope="module")
def reference():
    """In-process sweep of the tiny config (the bit-identity baseline)."""
    result = utilization_sweep(tiny_config())
    return result.raw.rows(), result.normalized.rows()


def start_fleet(executor, count, engine="auto"):
    threads = [
        threading.Thread(
            target=run_worker, args=(executor.host, executor.port),
            kwargs={"engine": engine}, daemon=True)
        for _ in range(count)]
    for thread in threads:
        thread.start()
    assert executor.wait_for_workers(count, timeout=15)
    return threads


def join_fleet(executor, threads):
    executor.shutdown()
    for thread in threads:
        thread.join(timeout=15)


class FakeWorker:
    """Protocol-speaking socket that follows the script we give it."""

    def __init__(self, executor):
        self.sock = socket.create_connection(
            (executor.host, executor.port), timeout=10)
        send_frame(self.sock, "hello",
                   {"pid": 0, "engine": "scalar", "wire": WIRE_VERSION})
        head, _ = recv_frame(self.sock)
        assert head["kind"] == "welcome"

    def take_lease(self):
        send_frame(self.sock, "request")
        head, _ = recv_frame(self.sock)
        assert head["kind"] == "lease"
        return head

    def send_results(self, lease, payload=b"late-garbage"):
        send_frame(self.sock, "result",
                   {"lease": lease["lease"], "tickets": lease["tickets"]},
                   payloads=[payload] * len(lease["tickets"]))

    def close(self):
        self.sock.close()


def drive_sweep(executor, config):
    """Run utilization_sweep(executor=...) on a thread; returns a join
    function yielding the SweepResult (re-raising sweep errors)."""
    box = {}

    def main():
        try:
            box["result"] = utilization_sweep(config, executor=executor)
        except BaseException as exc:  # pragma: no cover - test debugging
            box["error"] = exc

    thread = threading.Thread(target=main, daemon=True)
    thread.start()

    def join(timeout=60):
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "sweep did not finish"
        if "error" in box:
            raise box["error"]
        return box["result"]

    return join


class TestHappyPath:
    def test_two_workers_bit_identical_to_in_process(self, reference):
        executor = RemoteCellExecutor()
        threads = start_fleet(executor, 2)
        try:
            result = utilization_sweep(tiny_config(), executor=executor)
        finally:
            join_fleet(executor, threads)
        raw, normalized = reference
        assert result.raw.rows() == raw
        assert result.normalized.rows() == normalized
        assert result.simulated_cells == TINY_CELLS
        assert result.workers_used == 2
        assert result.retries == 0
        assert executor.duplicates_dropped == 0
        assert executor.ipc_bytes > 0

    def test_block_engine_over_the_wire_bit_identical(self, reference,
                                                      monkeypatch):
        # The workers are threads of this process, so the pinned cut
        # reaches them: the column's lanes run on the lane pass.
        ran = force_all_lanes(monkeypatch)
        executor = RemoteCellExecutor()
        threads = start_fleet(executor, 1)
        try:
            result = utilization_sweep(tiny_config(engine="block"),
                                       executor=executor)
        finally:
            join_fleet(executor, threads)
        raw, normalized = reference
        assert result.raw.rows() == raw
        assert result.normalized.rows() == normalized
        if numpy_backend() is not None:
            assert sum(ran) > 0

    def test_submit_cell_future_resolves(self):
        from repro.analysis.sweep import sweep_cell_specs, sweep_context
        config = tiny_config()
        context, specs = sweep_context(config), sweep_cell_specs(config)
        executor = RemoteCellExecutor()
        threads = start_fleet(executor, 1)
        try:
            outcome = executor.submit_cell(context, specs[0]).result(
                timeout=60)
        finally:
            join_fleet(executor, threads)
        assert set(context.policies) <= set(outcome)


class TestWorkerChurn:
    def test_killed_worker_cells_requeued_exactly_once(self, reference):
        executor = RemoteCellExecutor(lease_timeout=30.0)
        try:
            join = drive_sweep(executor, tiny_config())
            fake = FakeWorker(executor)
            lease = fake.take_lease()
            stolen = len(lease["tickets"])
            assert stolen > 0
            fake.close()  # worker "dies"; connection drop releases it
            threads = start_fleet(executor, 1)
            result = join()
        finally:
            executor.shutdown()
        join_fleet(executor, threads)
        raw, normalized = reference
        assert result.raw.rows() == raw
        assert result.normalized.rows() == normalized
        assert result.simulated_cells == TINY_CELLS
        # Exactly the stolen cells were re-leased, nothing else.
        assert result.retries == stolen
        assert executor.duplicates_dropped == 0

    def test_stalled_worker_expires_and_late_results_dropped(
            self, reference):
        executor = RemoteCellExecutor(lease_timeout=0.6)
        try:
            join = drive_sweep(executor, tiny_config())
            fake = FakeWorker(executor)
            lease = fake.take_lease()
            stolen = len(lease["tickets"])
            # The fake goes silent: no heartbeats, no results.  The
            # expiry thread requeues its cells; the real worker finishes.
            threads = start_fleet(executor, 1)
            result = join()
            assert result.retries == stolen
            # Now the zombie reports its stale lease after the retries
            # already delivered: every late result must be dropped.
            fake.send_results(lease)
            deadline = time.monotonic() + 5.0
            while executor.duplicates_dropped < stolen \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert executor.duplicates_dropped == stolen
            fake.close()
        finally:
            executor.shutdown()
        join_fleet(executor, threads)
        raw, normalized = reference
        assert result.raw.rows() == raw
        assert result.normalized.rows() == normalized
        assert result.simulated_cells == TINY_CELLS
