"""Thin blocking client for the sweep service (`rtdvs submit`).

Stdlib :mod:`http.client` over the service's NDJSON stream, with one
**persistent keep-alive connection** per client: the TCP + HTTP setup
cost is paid once, not per request (the serving-overhead benchmark
gates on this).  ``http.client`` decodes the server's chunked framing
transparently; a server that answers ``Connection: close`` (or a
pre-keep-alive one) simply costs a reconnect per request.

Failure handling, in increasing severity:

* **HTTP 429** — retried after honoring the server's ``Retry-After``
  hint, up to ``max_retries`` attempts (the cooperative half of the
  quota contract).
* **Stale keep-alive** — a server may close an idle persistent
  connection between requests; the first send on a *reused* connection
  that dies (``ConnectionResetError``/``BrokenPipeError``) gets one
  free immediate retry on a fresh connection.
* **Connection refused/reset on a fresh connection** — the service is
  down or restarting; re-dial with capped exponential backoff and
  deterministic jitter, up to ``connect_retries`` attempts.

``sleep`` is injectable so tests observe every back-off decision
without actually waiting, and the jitter is a pure function of
``(host, port, attempt)`` so retry schedules are reproducible.
"""

import contextlib
import hashlib
import json
import time
from http.client import HTTPConnection
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ReproError

#: Exceptions meaning "the TCP connection died under us" — eligible for
#: the stale-reuse free retry (``RemoteDisconnected`` subclasses
#: ``ConnectionResetError``).
_CONN_DIED = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)

#: Longest nominal pause between re-dials, for the client and for
#: ``rtdvs worker`` (:func:`repro.dist.worker.run_worker`).
BACKOFF_CAP = 2.0


class ServiceError(ReproError):
    """The service rejected or aborted a request."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def backoff_delay(host: str, port: int, attempt: int,
                  base: float, cap: float) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``min(cap, base * 2**attempt)`` scaled into ``[0.5, 1.0)`` by a
    jitter factor hashed from ``(host, port, attempt)`` — spread-out
    like random jitter, but reproducible for tests and debugging.
    """
    delay = min(cap, base * (2 ** attempt))
    seed = hashlib.sha256(f"{host}:{port}:{attempt}".encode()).hexdigest()
    jitter = 0.5 + (int(seed[:8], 16) % 1000) / 2000.0
    return delay * jitter


class SweepServiceClient:
    """One service endpoint: persistent connection, 429- and
    reconnect-aware submission.

    The client is not thread-safe (one in-flight request per
    connection); give each thread its own instance.  Use as a context
    manager, or call :meth:`close`, to drop the persistent connection
    deterministically.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 300.0, max_retries: int = 8,
                 retry_cap: float = 5.0,
                 connect_retries: int = 4,
                 backoff_base: float = 0.1,
                 backoff_cap: float = BACKOFF_CAP,
                 sleep: Callable[[float], None] = time.sleep):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_cap = retry_cap
        self.connect_retries = connect_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._conn: Optional[HTTPConnection] = None
        #: 429 responses absorbed by retrying (observability for the
        #: backpressure differential tests).
        self.retries_429 = 0
        #: Re-dials after connection refused/reset on a fresh connection.
        self.retries_connect = 0
        #: Free retries after a reused keep-alive connection went stale.
        self.stale_retries = 0

    # -- connection management ----------------------------------------------
    def close(self) -> None:
        """Drop the persistent connection (idempotent)."""
        if self._conn is not None:
            with contextlib.suppress(Exception):
                self._conn.close()
            self._conn = None

    def __enter__(self) -> "SweepServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self) -> HTTPConnection:
        """Dial the service, backing off on refused/reset."""
        attempt = 0
        while True:
            conn = HTTPConnection(self.host, self.port,
                                  timeout=self.timeout)
            try:
                conn.connect()
                return conn
            except _CONN_DIED + (ConnectionRefusedError, OSError) as exc:
                conn.close()
                if attempt >= self.connect_retries:
                    raise ServiceError(
                        f"cannot reach sweep service at "
                        f"{self.host}:{self.port} after {attempt + 1} "
                        f"attempt(s): {exc}") from exc
                self.retries_connect += 1
                self._sleep(backoff_delay(self.host, self.port, attempt,
                                          self.backoff_base,
                                          self.backoff_cap))
                attempt += 1

    def _send(self, method: str, path: str, body: Optional[bytes] = None,
              headers: Optional[Dict[str, str]] = None):
        """Issue one request on the persistent connection.

        A send that dies on a *reused* connection gets one free retry on
        a fresh one (the server legitimately closes idle keep-alive
        connections); a fresh connection dying is a real failure.
        """
        reused = self._conn is not None
        if self._conn is None:
            self._conn = self._connect()
        try:
            self._conn.request(method, path, body=body,
                               headers=headers or {})
            return self._conn.getresponse()
        except _CONN_DIED as exc:
            self.close()
            if not reused:
                raise ServiceError(
                    f"connection to {self.host}:{self.port} died: "
                    f"{exc}") from exc
            self.stale_retries += 1
            self._conn = self._connect()
            try:
                self._conn.request(method, path, body=body,
                                   headers=headers or {})
                return self._conn.getresponse()
            except _CONN_DIED as retry_exc:
                self.close()
                raise ServiceError(
                    f"connection to {self.host}:{self.port} died: "
                    f"{retry_exc}") from retry_exc
        except Exception:
            self.close()
            raise

    def _finish_response(self, response) -> None:
        """Body fully read; keep the connection unless the server said
        (or framing implies) it is closing."""
        if response.will_close:
            self.close()

    # -- submission ---------------------------------------------------------
    def submit(self, request: Dict[str, object]) -> Iterator[Dict[str, object]]:
        """POST a sweep request; yield its NDJSON events as dicts.

        Raises :class:`ServiceError` on non-200 responses (after
        exhausting 429 retries) and on a terminal ``error`` event.
        Abandoning the iterator mid-stream drops the connection (the
        unread stream cannot be reused).
        """
        body = json.dumps(request).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        attempts = 0
        while True:
            response = self._send("POST", "/v1/sweep", body, headers)
            if response.status == 429:
                retry_after = float(
                    response.getheader("Retry-After") or 1.0)
                response.read()
                self._finish_response(response)
                if attempts >= self.max_retries:
                    raise ServiceError(
                        f"quota exhausted after {attempts} retries",
                        status=429)
                attempts += 1
                self.retries_429 += 1
                self._sleep(min(retry_after, self.retry_cap))
                continue
            if response.status != 200:
                detail = response.read().decode("utf-8", "replace")
                self._finish_response(response)
                raise ServiceError(
                    f"HTTP {response.status}: {detail}",
                    status=response.status)
            complete = False
            try:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if event.get("event") == "error":
                        raise ServiceError(
                            f"server error: {event.get('message')}")
                    yield event
                complete = True
                return
            finally:
                if complete:
                    self._finish_response(response)
                else:  # aborted mid-stream: connection is poisoned
                    self.close()

    def submit_collect(self, request: Dict[str, object],
                       ) -> Dict[str, object]:
        """Submit and drain the stream; returns events grouped by kind.

        ``results`` holds the per-panel ``result`` events in order;
        ``done`` the terminal totals (``None`` if the stream ended
        early, which callers should treat as a failure).
        """
        events: List[Dict[str, object]] = list(self.submit(request))
        results = [e for e in events if e.get("event") == "result"]
        done = next((e for e in events if e.get("event") == "done"), None)
        return {"events": events, "results": results, "done": done}

    # -- introspection ------------------------------------------------------
    def _get(self, path: str) -> Dict[str, object]:
        response = self._send("GET", path)
        payload = response.read()
        self._finish_response(response)
        if response.status != 200:
            raise ServiceError(
                f"HTTP {response.status} for {path}: "
                f"{payload.decode('utf-8', 'replace')}",
                status=response.status)
        return json.loads(payload)

    def healthz(self) -> Dict[str, object]:
        return self._get("/v1/healthz")

    def stats(self) -> Dict[str, object]:
        return self._get("/v1/stats")
