"""The sweep service: an asyncio, stdlib-only HTTP/JSON server.

Four perf layers front the existing cell machinery:

1. **Cache-first reads** — every request's cells are probed against the
   content-addressed :class:`~repro.analysis.cellcache.CellCache`
   (off-loop, in a worker thread) before anything is scheduled; warm
   cells never touch the executor.
2. **Result reuse** — the stable table fragment of each ``result``
   event is encoded once and kept in a small LRU keyed by the job's
   fingerprint (only the per-request counters differ), so
   fan-out does not re-serialize the tables.  A repeat request whose
   tables the LRU holds skips the cache reads too: one
   :meth:`~repro.analysis.cellcache.CellCache.touch` pass confirms
   every entry is still on disk (and bumps its LRU recency), and the
   held fragment is sent; a missing entry falls back to the probe.
   Catalog requests also resolve to their jobs once per loaded catalog,
   so a repeat panel re-hashes no cell keys.
3. **Single-flight dedup** (:mod:`repro.service.dedup`) — cold cells
   are keyed by their cache fingerprint, so N concurrent identical
   requests coalesce into one simulation whose outcome fans back out.
4. **Bounded admission with per-tenant quotas**
   (:mod:`repro.service.quotas`) — an over-budget tenant gets HTTP 429
   + ``Retry-After`` up front; admitted cells flow through a bounded
   queue into the shared :class:`~repro.analysis.executor.CellExecutor`
   (never blocking the event loop: cells resolve via
   :meth:`~repro.analysis.executor.CellExecutor.submit_cell` futures).

Responses stream NDJSON (:mod:`repro.service.protocol`): partial
aggregates render incrementally, and the final per-panel tables are
bit-identical to an in-process
:func:`~repro.analysis.sweep.utilization_sweep` because they are
produced by the same aggregation over the same outcome dicts.

HTTP/1.1 connections are kept alive by default (streams switch to
chunked transfer encoding so the response stays self-delimiting); a
client that sends ``Connection: close`` — or speaks HTTP/1.0 — gets the
legacy close-delimited framing.  Support is otherwise deliberately
minimal — ``Content-Length`` bodies, no TLS — because the clients are
`rtdvs submit`, `curl`, and the benchmarks, all on a trusted network.

Requests that carry a ``request_id`` are additionally journaled
(:mod:`repro.dist.journal`) under the cache directory: the request body
plus every completed cell fingerprint.  A ``resume`` request replays
the journaled body and answers already-journaled cells from the cache,
so a restarted coordinator re-simulates nothing that already finished.
"""

import asyncio
import contextlib
import json
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro import __version__
from repro.analysis.cellcache import CellCache
from repro.analysis.executor import CellExecutor
from repro.analysis.sweep import aggregate_outcomes
from repro.catalog.catalog import load_catalog
from repro.dist.journal import JournalError, JournalWriter, SweepJournal
from repro.errors import ReproError
from repro.service.dedup import SingleFlight
from repro.service.protocol import (ProtocolError, SweepJob, SweepRequest,
                                    done_event, error_event, job_event,
                                    parse_request, partial_event,
                                    resolve_jobs, result_event,
                                    started_event)
from repro.service.quotas import AdmissionQueue, QuotaExceeded, TenantQuotas

_LOG = logging.getLogger("repro.service")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error"}

#: Hard caps on request framing; anything larger is hostile or broken.
_MAX_HEADER_LINES = 64
_MAX_BODY_BYTES = 1 << 20

#: Distinct result tables kept in the result-reuse LRU: every catalog
#: panel at both scales (16 x 2).  An entry is one job's serialized
#: tables (~2.7 KB for a quick paper panel) keyed by one digest
#: (``SweepJob.fingerprint``), so a client cycling over the whole catalog
#: stays on the warm fast path.
_RESULT_CACHE_MAX = 32


@dataclass
class ServiceStats:
    """Lifetime counters, surfaced by ``GET /v1/stats``."""

    requests: int = 0
    connections: int = 0
    errors: int = 0
    cells_served: int = 0
    cache_hits: int = 0
    simulated_cells: int = 0
    coalesced_cells: int = 0
    bytes_streamed: int = 0
    result_reuses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"requests": self.requests,
                "connections": self.connections,
                "errors": self.errors,
                "cells_served": self.cells_served,
                "cache_hits": self.cache_hits,
                "simulated_cells": self.simulated_cells,
                "coalesced_cells": self.coalesced_cells,
                "bytes_streamed": self.bytes_streamed,
                "result_reuses": self.result_reuses}


class _JournalState:
    """Per-request journal bookkeeping shared across a request's jobs."""

    def __init__(self, writer: JournalWriter, completed: Set[str]):
        self.writer = writer
        #: Fingerprints known journaled (pre-loaded on resume, grown as
        #: this run completes cells).
        self.completed = completed


class SweepService:
    """One serving instance: HTTP front end over cache + executor.

    Parameters
    ----------
    cache:
        Shared :class:`CellCache` (``None`` disables the warm path —
        every cell simulates — and journaling, which lives under the
        cache directory).  Give it ``max_bytes``/``max_age`` and a
        positive ``sweep_interval`` to bound growth for server-lifetime
        workloads.
    executor:
        Shared :class:`CellExecutor`; when omitted one is created from
        ``workers`` and owned (shut down by :meth:`stop`).  A
        :class:`~repro.dist.coordinator.RemoteCellExecutor` slots in
        here unchanged — the service then serves cold cells off a
        distributed worker fleet.
    port:
        ``0`` binds an ephemeral port; :attr:`port` holds the real one
        after :meth:`start`.
    """

    def __init__(self, cache: Optional[CellCache] = None,
                 executor: Optional[CellExecutor] = None,
                 workers=1,
                 quotas: Optional[TenantQuotas] = None,
                 admission: Optional[AdmissionQueue] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 sweep_interval: float = 0.0):
        self.cache = cache
        self._own_executor = executor is None
        self.executor = executor if executor is not None \
            else CellExecutor(workers)
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.admission = admission if admission is not None \
            else AdmissionQueue()
        self.single_flight = SingleFlight()
        self.stats = ServiceStats()
        self.host = host
        self.port = port
        self.sweep_interval = sweep_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._conns: Set[asyncio.StreamWriter] = set()
        #: Encoded result fragments by ``SweepJob.fingerprint``.
        self._result_cache: "OrderedDict[str, str]" = OrderedDict()
        #: Catalog jobs by (scenario, panel, quick, engine), valid for
        #: the catalog object they were resolved against.
        self._jobs: Dict[tuple, Tuple[SweepJob, ...]] = {}
        self._jobs_catalog: Optional[object] = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "SweepService":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if (self.cache is not None and self.sweep_interval > 0
                and (self.cache.max_bytes is not None
                     or self.cache.max_age is not None)):
            self._sweeper = asyncio.create_task(self._sweeper_loop())
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Kick idle keep-alive connections loose so their handler tasks
        # unwind instead of being destroyed with the loop.
        for writer in list(self._conns):
            with contextlib.suppress(Exception):
                writer.close()
        if self._own_executor:
            await asyncio.to_thread(self.executor.shutdown)

    async def _sweeper_loop(self) -> None:
        # Periodic backstop for read-mostly servers: puts already trigger
        # maybe_sweep, but a warm server can go hours without one.
        while True:
            await asyncio.sleep(self.sweep_interval)
            await asyncio.to_thread(self.cache.maybe_sweep)

    # -- HTTP plumbing ------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        self._conns.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except (asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError,
                        UnicodeDecodeError, ValueError) as exc:
                    # Framing is lost; answer and drop the connection.
                    await self._send_json(
                        writer, 400,
                        {"error": f"malformed request: {exc}"},
                        keep_alive=False)
                    return
                if parsed is None:
                    return  # clean EOF between requests
                method, target, body, keep_alive = parsed
                if target == "/v1/healthz":
                    if method != "GET":
                        await self._send_json(writer, 405,
                                              {"error": "use GET"},
                                              keep_alive=keep_alive)
                    else:
                        await self._send_json(
                            writer, 200,
                            {"ok": True, "version": __version__},
                            keep_alive=keep_alive)
                elif target == "/v1/stats":
                    if method != "GET":
                        await self._send_json(writer, 405,
                                              {"error": "use GET"},
                                              keep_alive=keep_alive)
                    else:
                        payload = await asyncio.to_thread(self.stats_payload)
                        await self._send_json(writer, 200, payload,
                                              keep_alive=keep_alive)
                elif target == "/v1/sweep":
                    if method != "POST":
                        await self._send_json(writer, 405,
                                              {"error": "use POST"},
                                              keep_alive=keep_alive)
                    else:
                        keep_alive = await self._handle_sweep(
                            writer, body, keep_alive)
                else:
                    await self._send_json(writer, 404,
                                          {"error": f"no route {target!r}"},
                                          keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; in-flight leaders finish regardless
        finally:
            self._conns.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Read one request; ``None`` on clean EOF between requests.

        The returned flag says whether the connection may be kept alive
        afterwards (HTTP/1.1 default unless the client said
        ``Connection: close``; HTTP/1.0 must opt in with
        ``keep-alive``).
        """
        request_line = (await reader.readline()).decode("ascii")
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line {request_line!r}")
        method, target, version = parts
        keep_alive = version.upper() != "HTTP/1.0"
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                content_length = int(value.strip())
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        else:
            raise ValueError("too many header lines")
        if content_length > _MAX_BODY_BYTES:
            raise ValueError(f"body too large ({content_length} bytes)")
        body = await reader.readexactly(content_length) \
            if content_length else b""
        return method, target, body, keep_alive

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: Dict[str, object],
                         extra_headers: Tuple[Tuple[str, str], ...] = (),
                         keep_alive: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        for name, value in extra_headers:
            head += f"{name}: {value}\r\n"
        head += ("Connection: keep-alive\r\n\r\n" if keep_alive
                 else "Connection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    async def _start_stream(self, writer: asyncio.StreamWriter,
                            chunked: bool) -> None:
        if chunked:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/x-ndjson\r\n"
                         b"Transfer-Encoding: chunked\r\n"
                         b"Connection: keep-alive\r\n\r\n")
        else:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/x-ndjson\r\n"
                         b"Connection: close\r\n\r\n")
        await writer.drain()

    async def _send_raw(self, writer: asyncio.StreamWriter, data: bytes,
                        chunked: bool) -> None:
        # bytes_streamed counts payload bytes, not chunk framing, so the
        # counter is comparable across framings.
        self.stats.bytes_streamed += len(data)
        if chunked:
            writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
        else:
            writer.write(data)
        await writer.drain()

    async def _send_event(self, writer: asyncio.StreamWriter,
                          payload: Dict[str, object],
                          chunked: bool) -> None:
        data = (json.dumps(payload, separators=(",", ":")) + "\n") \
            .encode("utf-8")
        await self._send_raw(writer, data, chunked)

    async def _end_stream(self, writer: asyncio.StreamWriter,
                          chunked: bool) -> None:
        if chunked:
            writer.write(b"0\r\n\r\n")
            await writer.drain()

    # -- journaling ---------------------------------------------------------
    def _journal_store(self) -> SweepJournal:
        if self.cache is None:
            raise ProtocolError(
                "'request_id'/'resume' need a cache-backed server; the "
                "journal lives under the cache directory")
        return SweepJournal(Path(self.cache.root) / "journal")

    async def _resume_request(self, request: SweepRequest):
        """Replay a journaled request: re-parse its stored body.

        Returns ``(request, jobs, writer, completed_fps)`` where
        ``request`` is the full journaled request (same ``request_id``)
        and ``completed_fps`` are the fingerprints already journaled.
        """
        store = self._journal_store()
        stored, completed, _torn = await asyncio.to_thread(
            store.load, request.request_id)
        body = dict(stored)
        body.pop("resume", None)
        body["request_id"] = request.request_id
        try:
            full = parse_request(body)
        except ProtocolError as exc:
            raise ProtocolError(
                f"journaled request {request.request_id!r} no longer "
                f"parses: {exc}") from exc
        jobs = self._resolve(full)
        writer = await asyncio.to_thread(store.append, request.request_id)
        return full, jobs, writer, completed

    async def _create_journal(self, request_id: str,
                              data: Dict[str, object]) -> JournalWriter:
        store = self._journal_store()
        stored = {key: value for key, value in data.items()
                  if key not in ("request_id", "resume")}
        return await asyncio.to_thread(store.create, request_id, stored)

    # -- the sweep endpoint -------------------------------------------------
    def _resolve(self, request: SweepRequest) -> Tuple[SweepJob, ...]:
        """The request's jobs, memoized for catalog requests.

        A catalog job is a pure function of ``(scenario, panel, quick,
        engine)`` and the loaded catalog, so repeats share one resolution
        and re-hash no cell keys.  The memo holds only while
        :func:`~repro.catalog.catalog.load_catalog` returns the object it
        was built against (a ``refresh`` drops it); inline specs always
        resolve fresh.
        """
        if request.spec is not None:
            return resolve_jobs(request)
        try:
            catalog = load_catalog()
        except ReproError as exc:
            raise ProtocolError(str(exc)) from exc
        if catalog is not self._jobs_catalog:
            self._jobs.clear()
            self._jobs_catalog = catalog
        key = (request.scenario, request.panel, request.quick,
               request.engine)
        jobs = self._jobs.get(key)
        if jobs is None:
            jobs = self._jobs[key] = resolve_jobs(request)
        return jobs

    async def _handle_sweep(self, writer: asyncio.StreamWriter,
                            body: bytes, keep_alive: bool) -> bool:
        """Serve one sweep request; returns whether the connection
        survives (chunked streams do, close-delimited ones by
        definition do not)."""
        self.stats.requests += 1
        try:
            data = json.loads(body.decode("utf-8"))
            request = parse_request(data)
        except (ValueError, ProtocolError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)},
                                  keep_alive=keep_alive)
            return keep_alive
        journal: Optional[_JournalState] = None
        resumed = False
        try:
            if request.resume:
                request, jobs, journal_writer, completed = \
                    await self._resume_request(request)
                journal = _JournalState(journal_writer, completed)
                resumed = True
            else:
                jobs = self._resolve(request)
                if request.request_id is not None:
                    journal = _JournalState(
                        await self._create_journal(request.request_id, data),
                        set())
        except (ProtocolError, JournalError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)},
                                  keep_alive=keep_alive)
            return keep_alive
        try:
            self.quotas.acquire(request.tenant)
        except QuotaExceeded as exc:
            if journal is not None:
                await asyncio.to_thread(journal.writer.close)
            await self._send_json(
                writer, 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After", f"{exc.retry_after:g}"),),
                keep_alive=keep_alive)
            return keep_alive
        started_at = time.monotonic()
        chunked = keep_alive
        try:
            await self._start_stream(writer, chunked)
            await self._send_event(writer,
                                   started_event(request, jobs, resumed),
                                   chunked)
            totals = {"cache_hits": 0, "simulated": 0, "coalesced": 0,
                      "journal_skipped": 0}
            for job in jobs:
                await self._run_job(writer, chunked, request, job, totals,
                                    journal)
            done_kwargs: Dict[str, object] = {}
            if request.request_id is not None:
                done_kwargs = {
                    "request_id": request.request_id,
                    "journal_done": len(journal.completed)
                    if journal is not None else 0,
                    "journal_skipped": totals["journal_skipped"],
                }
            await self._send_event(writer, done_event(
                totals["cache_hits"], totals["simulated"],
                totals["coalesced"], time.monotonic() - started_at,
                **done_kwargs), chunked)
            await self._end_stream(writer, chunked)
            return chunked
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:
            self.stats.errors += 1
            _LOG.exception("sweep request failed (tenant %r)",
                           request.tenant)
            with contextlib.suppress(Exception):
                await self._send_event(writer, error_event(str(exc)),
                                       chunked)
                await self._end_stream(writer, chunked)
            return False
        finally:
            self.quotas.release(request.tenant)
            if journal is not None:
                await asyncio.to_thread(journal.writer.close)

    async def _run_job(self, writer: asyncio.StreamWriter, chunked: bool,
                       request: SweepRequest, job: SweepJob,
                       totals: Dict[str, int],
                       journal: Optional[_JournalState]) -> None:
        outcomes: List[Optional[Dict[str, object]]] = [None] * job.cells
        hits: List[int] = []
        pending = list(range(job.cells))
        stable: Optional[str] = None
        if self.cache is not None:
            # None (an uncacheable job) is never a key of the LRU.
            stable = self._result_cache.get(job.fingerprint)
            if stable is not None and await asyncio.to_thread(
                    self.cache.touch, job.keys):
                # The LRU holds this job's tables and every entry is
                # still on disk: all cells are warm, none is read.
                hits, pending = pending, []
            else:
                stable = None
                for index, outcome in await asyncio.to_thread(
                        self._probe, job.keys):
                    outcomes[index] = outcome
                    hits.append(index)
                pending = [i for i in pending if outcomes[i] is None]
            if journal is not None and hits:
                fresh: List[str] = []
                for index in hits:
                    fingerprint = job.keys[index]
                    if fingerprint in journal.completed:
                        # Journaled by the interrupted run, answered
                        # from cache now: the cell resume exists for.
                        totals["journal_skipped"] += 1
                    else:
                        journal.completed.add(fingerprint)
                        fresh.append(fingerprint)
                if fresh:
                    await asyncio.to_thread(journal.writer.mark_many, fresh)
        warm = len(hits)
        await self._send_event(writer, job_event(job, warm), chunked)

        cache_hits = warm
        simulated = coalesced = 0
        done = warm
        tasks = [asyncio.create_task(self._run_cell(request, job, index))
                 for index in pending]
        try:
            for future in asyncio.as_completed(tasks):
                index, source, outcome = await future
                outcomes[index] = outcome
                done += 1
                if source == "simulated":
                    simulated += 1
                elif source == "coalesced":
                    coalesced += 1
                else:  # a leader that found the cell freshly cached
                    cache_hits += 1
                if journal is not None:
                    fingerprint = job.keys[index]
                    if fingerprint is not None \
                            and fingerprint not in journal.completed:
                        journal.completed.add(fingerprint)
                        await asyncio.to_thread(journal.writer.mark,
                                                fingerprint)
                if request.stream_every and done < job.cells \
                        and (done - warm) % request.stream_every == 0:
                    await self._send_event(
                        writer, partial_event(job, done, outcomes), chunked)
        except BaseException:
            # Drop *our* waiters; shielded leaders keep running so other
            # requests coalesced onto them still get their outcomes.
            for task in tasks:
                task.cancel()
            raise

        self.stats.cache_hits += cache_hits
        self.stats.simulated_cells += simulated
        self.stats.coalesced_cells += coalesced
        self.stats.cells_served += job.cells
        totals["cache_hits"] += cache_hits
        totals["simulated"] += simulated
        totals["coalesced"] += coalesced

        await self._send_raw(
            writer,
            self._encode_result(job, outcomes, cache_hits, simulated,
                                coalesced, stable),
            chunked)

    def _encode_result(self, job: SweepJob,
                       outcomes: List[Optional[Dict[str, object]]],
                       cache_hits: int, simulated: int,
                       coalesced: int, stable: Optional[str] = None,
                       ) -> bytes:
        """Serialize one ``result`` event, reusing the stable fragment.

        The tables (xs/labels/raw/normalized/rm_fallbacks) are a pure
        function of the job's ordered cell fingerprints, so subscribers
        fanning out over the same cells share one aggregation + one
        ``json.dumps`` of the heavy fragment; only the per-request
        counters are encoded fresh and spliced in.  ``stable`` is the
        fragment the warm fast path already took from the LRU (its
        ``outcomes`` are all ``None``).
        """
        key = job.fingerprint
        if stable is None and key is not None:
            stable = self._result_cache.get(key)
        if stable is None:
            result = aggregate_outcomes(job.config, outcomes)
            payload = result_event(job, result, 0, 0, 0)
            for counter in ("cache_hits", "simulated_cells",
                            "coalesced_cells"):
                del payload[counter]
            stable = json.dumps(payload, separators=(",", ":"))
        else:
            self.stats.result_reuses += 1
        if key is not None:
            self._result_cache[key] = stable
            self._result_cache.move_to_end(key)
            while len(self._result_cache) > _RESULT_CACHE_MAX:
                self._result_cache.popitem(last=False)
        counters = json.dumps(
            {"cache_hits": cache_hits, "simulated_cells": simulated,
             "coalesced_cells": coalesced}, separators=(",", ":"))
        # Merge `{...stable}` and `{...counters}` into one JSON object.
        return (stable[:-1] + "," + counters[1:] + "\n").encode("utf-8")

    def _probe(self, keys: Tuple[Optional[str], ...],
               ) -> List[Tuple[int, Dict[str, object]]]:
        """Warm-path batch read (runs on a worker thread)."""
        hits = []
        for index, key in enumerate(keys):
            if key is None:
                continue
            outcome = self.cache.get(key)
            if outcome is not None:
                hits.append((index, outcome))
        return hits

    async def _run_cell(self, request: SweepRequest, job: SweepJob,
                        index: int) -> Tuple[int, str, Dict[str, object]]:
        """Resolve one cold cell; returns ``(index, source, outcome)``
        with ``source`` in ``{"simulated", "coalesced", "cached"}``."""
        key = job.keys[index]
        spec = job.specs[index]

        async def factory() -> Tuple[str, Dict[str, object]]:
            if self.cache is not None and key is not None:
                # Re-probe under the single-flight lock: a previous
                # leader may have cached this cell after our batch probe
                # missed it.
                cached = await asyncio.to_thread(self.cache.get, key)
                if cached is not None:
                    return "cached", cached
            async with self.admission:
                outcome = await asyncio.wrap_future(
                    self.executor.submit_cell(job.context, spec))
            if self.cache is not None and key is not None:
                await asyncio.to_thread(self.cache.put, key, outcome)
            return "simulated", outcome

        if key is None:  # uncacheable: nothing to coalesce on
            source, outcome = await factory()
            return index, source, outcome
        led, (source, outcome) = await self.single_flight.run(key, factory)
        return index, (source if led else "coalesced"), outcome

    # -- introspection ------------------------------------------------------
    def stats_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": __version__,
            "workers": self.executor.workers,
        }
        payload.update(self.stats.to_dict())
        payload["single_flight"] = self.single_flight.stats()
        payload["quotas"] = self.quotas.snapshot()
        payload["admission"] = self.admission.snapshot()
        if self.cache is not None:
            payload["cache"] = {"entries": len(self.cache),
                                "bytes": self.cache.size_bytes()}
        return payload


class ServiceThread:
    """Run a :class:`SweepService` on a dedicated event-loop thread.

    The synchronous harness for tests, benchmarks, and anything else
    that wants to drive the server with a blocking client from the same
    process::

        with ServiceThread(SweepService(cache=cache)) as handle:
            client = SweepServiceClient(port=handle.port)
            ...
    """

    def __init__(self, service: SweepService):
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ServiceThread":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[BaseException] = []

        def main() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.service.start())
            except BaseException as exc:  # surface bind errors to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self.service.stop())
                self._loop.close()

        self._thread = threading.Thread(target=main, name="sweep-service",
                                        daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
