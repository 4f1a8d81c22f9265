"""Standalone sweep worker: pull leases, simulate, stream outcomes back.

``rtdvs worker --connect HOST:PORT`` runs :func:`run_worker`: connect to
a coordinator, announce capabilities (``hello``), then loop
request → lease → simulate → result until the coordinator says
``shutdown``.  The worker simulates each cell with the same
:func:`repro.analysis.sweep.run_cell` the in-process paths use (on the
per-cell kernel, through :func:`repro.analysis.batch.encode_cells`), so
distributed outcomes are bit-identical by construction, and results
return as the exact CTR1 bytes of :mod:`repro.analysis.transport`.

A refused or dropped connection is re-dialed on the service client's
schedule (:func:`repro.service.client.backoff_delay`):
``reconnect_delay`` is the base delay, doubling per re-dial up to
:data:`~repro.service.client.BACKOFF_CAP`, with deterministic jitter.

While a batch simulates, a daemon heartbeat thread extends the lease
every ``heartbeat_interval`` seconds (interval assigned by the
coordinator in ``welcome``); a worker that stops heartbeating — killed,
wedged, partitioned — loses the lease and its cells are re-queued.  The
socket write lock serializes heartbeats against result frames.

Deterministic simulation errors (a cell raising
:class:`~repro.errors.ReproError`) are reported with an ``error`` frame
so the coordinator fails those cells instead of burning retries on them;
infrastructure failures just drop the connection and let lease recovery
do its job.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.batch import encode_cells
from repro.analysis.sweep import SweepContext
from repro.dist.wire import (WIRE_VERSION, WireError, context_from_wire,
                             recv_frame, send_frame, specs_from_wire,
                             tune_socket)
from repro.errors import ReproError


class WorkerError(ReproError):
    """The worker could not reach or converse with the coordinator."""


def parse_connect(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (host may be omitted: ``:9000`` = loopback)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise WorkerError(
            f"--connect expects HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
        if not 0 < port < 65536:
            raise ValueError
    except ValueError:
        raise WorkerError(f"invalid port in --connect {text!r}") from None
    return host or "127.0.0.1", port


class _Heartbeat:
    """Daemon thread extending one lease while its batch simulates."""

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 lease_id: int, interval: float):
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(sock, lock, lease_id, interval),
            name=f"dist-heartbeat-{lease_id}", daemon=True)
        self._thread.start()

    def _run(self, sock, lock, lease_id, interval):
        while not self._stop.wait(interval):
            try:
                send_frame(sock, "heartbeat", {"lease": lease_id},
                           lock=lock)
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(host: str, port: int,
               max_leases: Optional[int] = None,
               reconnect: int = 0, reconnect_delay: float = 0.5,
               connect_timeout: float = 10.0,
               log=None,
               sleep: Callable[[float], None] = time.sleep,
               ) -> Dict[str, object]:
    """Serve one coordinator until it shuts down; returns run stats.

    ``reconnect`` bounds re-dial attempts after a refused or *dropped*
    connection (an orderly ``shutdown`` frame always ends the loop);
    re-dial ``n`` waits ``backoff_delay(host, port, n, reconnect_delay,
    BACKOFF_CAP)`` through the injectable ``sleep``.  ``max_leases``
    exits after N leases (test harnesses simulate short-lived workers
    with it).

    Besides counts, the stats hold ``simulate_s`` (seconds spent
    simulating leases) and ``wait_s`` (seconds from sending each
    ``request`` to receiving its answer): their share of the worker's
    wall time is its busy and idle time.
    """
    stats: Dict[str, object] = {
        "leases": 0, "cells": 0, "bytes_out": 0,
        "reconnects": 0, "errors": 0, "simulate_s": 0.0, "wait_s": 0.0,
    }
    while True:
        try:
            sock = socket.create_connection((host, port),
                                            timeout=connect_timeout)
        except OSError as exc:
            if stats["reconnects"] >= reconnect:
                raise WorkerError(
                    f"cannot reach coordinator at {host}:{port}: {exc}"
                ) from exc
        else:
            try:
                tune_socket(sock)
                finished = _serve_connection(sock, max_leases, stats, log)
            except (OSError, WireError) as exc:
                if log is not None:
                    print(f"[worker] connection lost: {exc}", file=log,
                          flush=True)
                finished = False
            finally:
                sock.close()
            if finished or stats["reconnects"] >= reconnect:
                return stats
        # Lazy: repro.service loads the HTTP server stack, which a worker
        # that never re-dials does not need.
        from repro.service.client import BACKOFF_CAP, backoff_delay
        sleep(backoff_delay(host, port, stats["reconnects"],
                            reconnect_delay, BACKOFF_CAP))
        stats["reconnects"] += 1


def _serve_connection(sock: socket.socket, max_leases: Optional[int],
                      stats: Dict[str, object], log) -> bool:
    """One connection's lifetime; ``True`` on orderly shutdown."""
    write_lock = threading.Lock()
    stats["bytes_out"] += send_frame(
        sock, "hello",
        {"pid": os.getpid(), "wire": WIRE_VERSION},
        lock=write_lock)
    sock.settimeout(30.0)  # welcome must arrive promptly
    welcome = recv_frame(sock)
    if welcome is None or welcome[0].get("kind") != "welcome":
        raise WorkerError("coordinator did not send a welcome frame")
    header = welcome[0]
    worker_id = header.get("worker_id", "?")
    heartbeat_interval = float(header.get("heartbeat", 5.0))
    if log is not None:
        print(f"[worker] connected as {worker_id} "
              f"(heartbeat={heartbeat_interval:g}s)",
              file=log, flush=True)
    # Lease waits can legitimately be long (an idle coordinator holds the
    # request open until work arrives); rely on EOF/RST for liveness.
    sock.settimeout(None)
    contexts: Dict[str, SweepContext] = {}
    while True:
        if max_leases is not None and stats["leases"] >= max_leases:
            return True
        asked = time.perf_counter()
        stats["bytes_out"] += send_frame(sock, "request", lock=write_lock)
        frame = recv_frame(sock)
        stats["wait_s"] += time.perf_counter() - asked
        if frame is None:
            raise WireError("coordinator closed the connection")
        head, _ = frame
        kind = head.get("kind")
        if kind == "shutdown":
            return True
        if kind != "lease":
            raise WireError(f"unexpected frame kind {kind!r} from "
                            "coordinator")
        stats["leases"] += 1
        digest = head["digest"]
        if "context" in head:
            contexts[digest] = context_from_wire(head["context"])
        context = contexts.get(digest)
        if context is None:
            raise WireError(f"lease names unknown context {digest[:12]}")
        specs = specs_from_wire(head["specs"])
        tickets = head["tickets"]
        heartbeat = _Heartbeat(sock, write_lock, head["lease"],
                               heartbeat_interval)
        started = time.perf_counter()
        try:
            encoded = encode_cells(context, specs)
        except ReproError as exc:
            stats["errors"] += 1
            heartbeat.stop()
            stats["bytes_out"] += send_frame(
                sock, "error",
                {"lease": head["lease"], "tickets": tickets,
                 "message": str(exc)}, lock=write_lock)
            continue
        finally:
            heartbeat.stop()
            stats["simulate_s"] += time.perf_counter() - started
        stats["bytes_out"] += send_frame(
            sock, "result", {"lease": head["lease"], "tickets": tickets},
            payloads=encoded, lock=write_lock)
        stats["cells"] += len(specs)
