"""Cost of one lease turn over loopback, lease sizing, and worker stats.

A worker writes ``result`` and then ``request`` back to back.  Without
``TCP_NODELAY`` on its socket, Nagle holds the ``request`` until the
coordinator ACKs the ``result``, and the coordinator delays that ACK
(~40 ms on Linux) because it has nothing to send: every lease turn then
costs a delayed-ACK timeout instead of one round trip.
"""

import socket
import threading
import time

import pytest

from repro.analysis.sweep import sweep_cell_specs, sweep_context
from repro.catalog.schema import PanelSpec
from repro.dist import RemoteCellExecutor, run_worker
from repro.dist import coordinator as coordinator_mod
from repro.dist.wire import WIRE_VERSION, recv_frame, send_frame


def cells(n_sets):
    """Context and ``2 * n_sets`` cheap cell specs."""
    config = PanelSpec.from_dict({
        "label": "turns", "n_tasks": 3, "n_sets_quick": n_sets,
        "duration_quick": 50.0, "utilizations": [0.5, 0.9],
    }).sweep_config(quick=True)
    return sweep_context(config), sweep_cell_specs(config)


def nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class WorkerThread:
    """``run_worker`` on a thread, keeping its stats and wall time."""

    def __init__(self, executor):
        self.stats = None
        self.wall_s = None
        self._thread = threading.Thread(
            target=self._run, args=(executor.host, executor.port),
            daemon=True)
        self._thread.start()

    def _run(self, host, port):
        start = time.perf_counter()
        self.stats = run_worker(host, port)
        self.wall_s = time.perf_counter() - start

    def join(self):
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "worker did not exit"


class TestNoDelay:
    def test_both_ends_of_a_worker_connection_set_nodelay(
            self, monkeypatch):
        dialled, accepted = [], []
        real_dial = socket.create_connection
        real_recv = coordinator_mod.recv_frame

        def dial(*args, **kwargs):
            sock = real_dial(*args, **kwargs)
            dialled.append(sock)
            return sock

        def recv(conn):
            accepted.append(nodelay(conn))
            return real_recv(conn)

        monkeypatch.setattr(socket, "create_connection", dial)
        monkeypatch.setattr(coordinator_mod, "recv_frame", recv)
        executor = RemoteCellExecutor()
        worker = WorkerThread(executor)
        try:
            assert executor.wait_for_workers(1, timeout=15)
            worker_end = nodelay(dialled[0])
        finally:
            executor.shutdown()
        worker.join()
        assert worker_end != 0
        assert accepted[0] != 0  # read before the hello frame

    def test_one_cell_leases_cost_a_round_trip_not_an_ack_timeout(self):
        # 20 leases at ~40 ms of delayed ACK each would take ~0.9 s.
        context, specs = cells(10)
        executor = RemoteCellExecutor(lease_cells=1)
        worker = WorkerThread(executor)
        try:
            assert executor.wait_for_workers(1, timeout=15)
            # Warm the worker's context and code paths off the clock.
            list(executor.run_cells(context, specs[:1]))
            start = time.perf_counter()
            done = list(executor.run_cells(context, specs))
            elapsed = time.perf_counter() - start
        finally:
            executor.shutdown()
        worker.join()
        assert len(done) == len(specs) == 20
        assert worker.stats["leases"] == 21
        assert elapsed < 0.3, f"20 one-cell leases took {elapsed:.3f}s"


class TestLeaseSizing:
    def test_waiting_workers_first_leases_share_the_sweep(self):
        context, specs = cells(20)
        executor = RemoteCellExecutor()
        granted = {}
        real_lease = executor._queue.lease

        def lease(worker, max_cells, timeout=None):
            result = real_lease(worker, max_cells, timeout=timeout)
            if result is not None:
                granted.setdefault(worker, len(result.items))
            return result

        executor._queue.lease = lease
        workers = [WorkerThread(executor) for _ in range(2)]
        try:
            assert executor.wait_for_workers(2, timeout=15)
            time.sleep(0.3)  # both handlers are now waiting for work
            done = list(executor.run_cells(context, specs))
        finally:
            executor.shutdown()
        for worker in workers:
            worker.join()
        assert len(done) == len(specs) == 40
        assert sorted(granted) == ["w1", "w2"]
        assert all(size > 1 for size in granted.values()), granted


class TestWorkerStats:
    def test_simulate_and_wait_fit_in_the_wall_time(self):
        context, specs = cells(4)
        executor = RemoteCellExecutor()
        worker = WorkerThread(executor)
        try:
            assert executor.wait_for_workers(1, timeout=15)
            list(executor.run_cells(context, specs))
        finally:
            executor.shutdown()
        worker.join()
        stats = worker.stats
        assert stats["cells"] == len(specs)
        assert stats["simulate_s"] > 0.0
        assert stats["wait_s"] >= 0.0
        assert stats["simulate_s"] + stats["wait_s"] <= worker.wall_s


@pytest.mark.parametrize("drop, reason", [
    (lambda sock: sock.sendall(b"\x08\x00\x00\x00NOTDWP1!"),  # bad magic
     "malformed frame"),
    (lambda sock: sock.shutdown(socket.SHUT_WR),
     "closed the connection mid-lease"),
], ids=["garbage-frame", "eof-mid-lease"])
def test_dropped_worker_is_logged_once(caplog, drop, reason):
    context, specs = cells(1)
    executor = RemoteCellExecutor()
    try:
        executor.submit_cell(context, specs[0])
        sock = socket.create_connection((executor.host, executor.port),
                                        timeout=10)
        with sock:
            send_frame(sock, "hello", {"pid": 0, "wire": WIRE_VERSION})
            worker_id = recv_frame(sock)[0]["worker_id"]
            peer_port = sock.getsockname()[1]
            send_frame(sock, "request")
            assert recv_frame(sock)[0]["kind"] == "lease"
            with caplog.at_level("WARNING", logger="repro.dist"):
                drop(sock)
                # The handler logs before it closes its end.
                assert sock.recv(1) == b""
    finally:
        executor.shutdown()
    records = [r for r in caplog.records if r.name == "repro.dist"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert records[0].levelname == "WARNING"
    assert f"worker {worker_id} " in message
    assert str(peer_port) in message
    assert reason in message
    assert "released 1 in-flight ticket(s)" in message
