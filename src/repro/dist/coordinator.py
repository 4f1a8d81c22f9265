"""Coordinator side of distributed sweeps: the remote cell executor.

:class:`RemoteCellExecutor` implements the exact
``run_cells`` / ``submit_cell`` / ``register`` / ``shutdown`` seam of
:class:`~repro.analysis.executor.CellExecutor`, so
:func:`~repro.analysis.sweep.utilization_sweep`, ``run-all``, and the
:class:`~repro.service.server.SweepService` use it unchanged — the only
difference is *where* cells simulate.  Behind the seam sits a
:class:`~repro.dist.queue.LeaseQueue` plus a TCP listener; each
connected worker gets a dedicated handler thread that leases cell
batches, ships them (context JSON once per connection, then digest-only),
and feeds CTR1 result payloads back through the queue's exactly-once
delivery.

Fault model: worker death is detected two ways — connection drop
(handler's recv fails → leases released immediately) and lease expiry
(a wedged-but-connected worker misses heartbeats → the expiry thread
requeues its cells).  Both routes go through the queue, which enforces
the retry budget and drops late duplicates, so a sweep completes with
no lost and no double-counted cells regardless of worker churn.

Trace-carrying (uncacheable) specs hold live demand traces that cannot
be regenerated remotely; they run inline on the coordinator, exactly as
the in-process executor would.
"""

from __future__ import annotations

import logging
import queue as _queue_mod
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis.executor import SweepProgress
from repro.analysis.transport import decode_cell
from repro.dist.queue import LeaseQueue
from repro.dist.wire import (WireError, context_to_wire, recv_frame,
                             send_frame, spec_to_wire, tune_socket)
from repro.errors import ReproError

_LOG = logging.getLogger("repro.dist")


class RemoteCellExecutor:
    """Lease cells to remote workers through the ``CellExecutor`` seam.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read the
        resolved one from :attr:`port`).
    lease_cells:
        Hard cap on cells per lease.  Actual lease sizes adapt: roughly
        ``pending / (2 * connected_workers)``, so early leases split the
        sweep evenly and late leases shrink to keep stragglers short.
    lease_timeout:
        Seconds a lease may go without a heartbeat before its cells are
        re-queued.  Workers heartbeat every ``lease_timeout / 3``.
    max_retries:
        Lease losses one cell may survive before it fails the sweep.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_cells: int = 25, lease_timeout: float = 30.0,
                 max_retries: int = 2):
        self.lease_cells = max(1, lease_cells)
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = max(0.2, lease_timeout / 3.0)
        self._queue = LeaseQueue(lease_timeout=lease_timeout,
                                 max_retries=max_retries)
        self._contexts: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._connected: Dict[str, threading.Thread] = {}
        self._worker_seq = 0
        self._group_seq = 0
        self._shutdown = False
        self._stop = threading.Event()
        self._inline_thread: Optional[ThreadPoolExecutor] = None
        #: Total bytes of encoded cell outcomes received from workers.
        self.ipc_bytes = 0
        #: Peak simultaneously connected workers (lifetime high-water).
        self.peak_workers = 0

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                                  1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True)
        self._accept_thread.start()
        self._expiry_thread = threading.Thread(
            target=self._expiry_loop, name="dist-expiry", daemon=True)
        self._expiry_thread.start()

    # -- CellExecutor seam ---------------------------------------------------
    @property
    def workers(self) -> int:
        """Connected worker count (the seam's ``workers_used`` source)."""
        with self._lock:
            return max(1, len(self._connected))

    @property
    def retries(self) -> int:
        """Cells re-queued after a lost or expired lease."""
        return self._queue.retries

    @property
    def duplicates_dropped(self) -> int:
        """Late/stale worker results discarded without delivery."""
        return self._queue.duplicates_dropped

    def register(self, context) -> str:
        digest = context.digest()
        with self._lock:
            self._contexts.setdefault(digest, context)
        return digest

    def run_cells(self, context, specs: Sequence,
                  progress: Optional[SweepProgress] = None,
                  on_result: Optional[Callable[[int, object], None]] = None,
                  engine: str = "scalar",
                  stats=None,
                  ) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, outcome)`` for every spec, unordered.

        All wire-able specs are enqueued up front (barrier-free — leases
        stream out as workers ask); trace-carrying specs run inline on
        the coordinator first, then remote results drain as they land.
        """
        if self._shutdown:
            raise RuntimeError("executor already shut down")
        digest = self.register(context)
        with self._lock:
            self._group_seq += 1
            group = self._group_seq
        results: _queue_mod.Queue = _queue_mod.Queue()
        stats_lock = threading.Lock()

        def on_stats(stats_dict: Dict[str, object]) -> None:
            if stats is not None:
                with stats_lock:
                    stats.merge_dict(stats_dict)

        remote: list = []
        local: list = []
        for index, spec in enumerate(specs):
            (local if spec.trace is not None else remote).append(
                (index, spec))
        if remote:
            self._queue.add_batch(
                digest, engine, group,
                [(spec, spec_to_wire(spec),
                  (lambda value, index=index: results.put((index, value))))
                 for index, spec in remote],
                on_stats=on_stats)
        try:
            if local:
                from repro.analysis.sweep import run_cell
                for index, spec in local:
                    outcome = run_cell(context, spec)
                    if on_result is not None:
                        on_result(index, outcome)
                    if progress is not None:
                        progress.advance()
                    yield index, outcome
            remaining = len(remote)
            while remaining:
                try:
                    index, value = results.get(timeout=1.0)
                except _queue_mod.Empty:
                    if self._shutdown:
                        raise ReproError(
                            "remote executor shut down mid-sweep")
                    continue
                if isinstance(value, BaseException):
                    raise value
                with self._lock:  # submit_cell's handlers add too
                    self.ipc_bytes += len(value)
                outcome = decode_cell(value)
                remaining -= 1
                if on_result is not None:
                    on_result(index, outcome)
                if progress is not None:
                    progress.advance()
                yield index, outcome
        finally:
            # Consumer bailed (error or early close): orphan this
            # group's unleased cells so workers don't simulate for a
            # dead audience.
            self._queue.cancel_group(group)

    def submit_cell(self, context, spec, engine: str = "scalar") -> Future:
        """Schedule one cell on the worker fleet; never blocks.

        Trace-carrying specs run on a coordinator-local thread (same
        semantics as the in-process executor's inline lane).
        """
        if self._shutdown:
            raise RuntimeError("executor already shut down")
        digest = self.register(context)
        future: Future = Future()
        if spec.trace is not None:
            from repro.analysis.sweep import run_cell
            if self._inline_thread is None:
                self._inline_thread = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="dist-inline")
            return self._inline_thread.submit(run_cell, context, spec)

        def deliver(value: object) -> None:
            if isinstance(value, BaseException):
                future.set_exception(value)
                return
            # Runs on whichever handler thread completed the ticket.
            with self._lock:
                self.ipc_bytes += len(value)
            try:
                future.set_result(decode_cell(value))
            except ReproError as exc:  # pragma: no cover - codec bug
                future.set_exception(exc)

        with self._lock:
            self._group_seq += 1
            group = self._group_seq
        self._queue.add_batch(digest, engine, group,
                              [(spec, spec_to_wire(spec), deliver)])
        return future

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "RemoteCellExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers are connected (or timeout)."""
        end = time.monotonic() + timeout
        while True:
            with self._lock:
                if len(self._connected) >= count:
                    return True
            if time.monotonic() >= end:
                return False
            self._stop.wait(0.02)

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self._stop.set()
        self._queue.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._inline_thread is not None:
            self._inline_thread.shutdown()
            self._inline_thread = None

    # -- listener / handlers -------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            with self._lock:
                self._worker_seq += 1
                worker_id = f"w{self._worker_seq}"
            thread = threading.Thread(
                target=self._serve_worker, args=(conn, addr, worker_id),
                name=f"dist-worker-{worker_id}", daemon=True)
            thread.start()

    def _expiry_loop(self) -> None:
        interval = max(0.1, self.lease_timeout / 4.0)
        while not self._shutdown:
            self._queue.expire()
            self._stop.wait(interval)

    def _serve_worker(self, conn: socket.socket, addr, worker_id: str
                      ) -> None:
        tune_socket(conn)
        dropped: Optional[str] = None
        try:
            conn.settimeout(10.0)
            hello = recv_frame(conn)
            if hello is None or hello[0].get("kind") != "hello":
                return
            send_frame(conn, "welcome", {
                "worker_id": worker_id,
                "heartbeat": self.heartbeat_interval,
                "lease_cells": self.lease_cells,
            })
            with self._lock:
                self._connected[worker_id] = threading.current_thread()
                self.peak_workers = max(self.peak_workers,
                                        len(self._connected))
            self._worker_loop(conn, worker_id)
        except (WireError, OSError) as exc:
            dropped = repr(exc)  # lease recovery below handles the work
        finally:
            with self._lock:
                self._connected.pop(worker_id, None)
            released = self._queue.release_worker(worker_id)
            if dropped is None and released and not self._shutdown:
                dropped = "closed the connection mid-lease"
            if dropped is not None:
                _LOG.warning("dropped worker %s at %s: %s; released %d "
                             "in-flight ticket(s)", worker_id, addr,
                             dropped, released)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _worker_loop(self, conn: socket.socket, worker_id: str) -> None:
        # A healthy worker is never silent longer than a heartbeat; a
        # few missed beats means it is gone even if TCP has not noticed.
        conn.settimeout(max(3.0 * self.heartbeat_interval, 5.0))
        shipped: set = set()
        while not self._shutdown:
            frame = recv_frame(conn)
            if frame is None:
                return  # orderly EOF
            head, payloads = frame
            kind = head.get("kind")
            if kind == "request":
                lease = None
                while lease is None:
                    if self._shutdown:
                        send_frame(conn, "shutdown")
                        return
                    lease = self._queue.lease(
                        worker_id, self._lease_size, timeout=0.25)
                header: Dict[str, object] = {
                    "lease": lease.lease_id,
                    "digest": lease.digest,
                    "engine": lease.engine,
                    "tickets": lease.tickets,
                    "specs": [lease.items[t].wire_spec
                              for t in lease.tickets],
                }
                if lease.digest not in shipped:
                    with self._lock:
                        context = self._contexts.get(lease.digest)
                    if context is None:  # pragma: no cover - defensive
                        raise WireError(
                            f"lease for unregistered context "
                            f"{lease.digest[:12]}")
                    header["context"] = context_to_wire(context)
                    shipped.add(lease.digest)
                send_frame(conn, "lease", header)
            elif kind == "heartbeat":
                self._queue.heartbeat(head.get("lease", -1))
            elif kind == "result":
                stats = head.get("stats")
                for ticket, payload in zip(head.get("tickets", ()),
                                           payloads):
                    self._queue.complete(head.get("lease", -1), ticket,
                                         payload, stats=stats)
                    stats = None  # merge block stats once per frame
            elif kind == "error":
                self._queue.fail_tickets(
                    head.get("lease", -1), head.get("tickets", ()),
                    head.get("message", "worker reported an error"))
            else:
                raise WireError(
                    f"unexpected frame kind {kind!r} from {worker_id}")

    def _lease_size(self, pending: int) -> int:
        """Adaptive lease sizing: split pending work across the fleet.

        The queue calls this when it grants a lease, so ``pending`` is
        the work actually there (never the empty queue a waiting worker
        saw when it asked).
        """
        with self._lock:
            fleet = max(1, len(self._connected))
        return max(1, min(self.lease_cells, -(-pending // (2 * fleet))))
