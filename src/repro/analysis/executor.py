"""Throughput-gated fan-out layer for sweep cells.

This module owns *how* sweep cells get executed; :mod:`repro.analysis.sweep`
owns *what* a cell computes.  The design goals, in order:

1. **Barrier-free streaming.**  Every cell of a sweep — all
   ``(utilization, set_index)`` pairs — is submitted up front with
   ``submit`` and consumed with ``as_completed``, so a straggler at one
   utilization point never idles the pool the way the old
   per-point ``pool.map`` barrier did.
2. **Compact work units.**  Workers receive a seed-level
   :class:`~repro.analysis.sweep.CellSpec` and regenerate the task set and
   demand trace locally; the shared immutable sweep context (machine,
   policy list, duration, energy-model parameters) is installed **once per
   worker** through the pool initializer and addressed by digest
   thereafter.
3. **Shareable pools.**  One :class:`CellExecutor` can serve many sweeps
   (``run-all`` hoists all experiments onto a single pool).  Contexts
   registered before the pool spins up ride the initializer; contexts that
   appear later are shipped alongside their cells (a few hundred bytes)
   and memoized per worker process on first sight.
4. **Visible progress.**  :class:`SweepProgress` renders per-sweep
   ``done/total``, throughput, and ETA lines for long runs.

``resolve_workers`` implements ``--workers auto`` (CPU-count derived).
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from typing import (Callable, Dict, Iterable, Iterator, Optional, Sequence,
                    Tuple, Union)

#: Accepted spellings of "pick the worker count for me".
AUTO_TOKENS = ("auto", "max", "0")


def effective_cpu_count() -> int:
    """CPUs this process can actually run on.

    :func:`os.cpu_count` reports the *machine's* CPUs, which oversells a
    containerized or affinity-pinned process: a pool sized to 4 on a
    1-CPU cgroup just context-switches four workers over one core
    (BENCH_engine.json once recorded a 0.82x parallel "speedup" exactly
    this way).  :func:`os.sched_getaffinity` reflects the real
    allowance where available (Linux); elsewhere fall back to the
    machine count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalize a worker-count request to a concrete positive integer.

    ``"auto"`` (and ``0`` / ``None``) resolve to
    :func:`effective_cpu_count` — the CPUs the process is *allowed* to
    use, so an auto-sized pool never oversubscribes a container quota.
    Explicit integers pass through unclamped (a deliberate request to
    oversubscribe is honored); negative counts are rejected.
    """
    if workers is None:
        return effective_cpu_count()
    if isinstance(workers, str):
        token = workers.strip().lower()
        if token in AUTO_TOKENS:
            return effective_cpu_count()
        try:
            workers = int(token)
        except ValueError:
            raise ValueError(
                f"workers must be an integer or 'auto', got {workers!r}"
            ) from None
    if workers == 0:
        return effective_cpu_count()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# worker-process side
# ---------------------------------------------------------------------------

#: Per-worker-process registry of sweep contexts, keyed by digest.  Filled
#: by the pool initializer for contexts known at pool creation and lazily
#: for contexts that show up on a shared pool later.
_CONTEXTS: Dict[str, object] = {}


def _install_contexts(contexts: Dict[str, object]) -> None:
    """Pool initializer: install shared sweep contexts once per worker."""
    _CONTEXTS.update(contexts)


def _execute_cells(digest: str, context: Optional[object],
                   specs: Sequence, engine: str,
                   ) -> Tuple[list, Optional[Dict[str, object]]]:
    """Run one unit of cells in a worker process.

    ``context`` is ``None`` when the digest was installed via the pool
    initializer; otherwise the first task carrying a new digest installs
    it for every later task in this process.  Outcomes cross back to the
    driver as the compact columnar wire format of
    :mod:`repro.analysis.transport` — one small bytes object per cell —
    next to the engine's stats (see
    :func:`~repro.analysis.batch.encode_cells`).
    """
    ctx = _CONTEXTS.get(digest)
    if ctx is None:
        if context is None:  # pragma: no cover - defensive
            raise RuntimeError(f"sweep context {digest} not installed")
        _CONTEXTS[digest] = ctx = context
    from repro.analysis.batch import encode_cells
    return encode_cells(ctx, specs, engine)


def _run_one(context, spec, engine: str) -> object:
    """Run one cell in this process (the inline ``submit_cell`` lane)."""
    from repro.analysis.batch import iter_cells
    (_, outcome), = iter_cells(context, [spec], engine)
    return outcome


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------

class SweepProgress:
    """Throughput/ETA line renderer for one sweep.

    Emits at most one line per ``min_interval`` seconds (plus a final
    summary) so paper-scale sweeps stay readable in a terminal or CI log.
    """

    def __init__(self, total: int, label: str = "sweep",
                 stream=None, min_interval: float = 1.0):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.done = 0
        self.cache_hits = 0
        self.started = time.perf_counter()
        self._last_emit = 0.0

    def advance(self, cache_hit: bool = False) -> None:
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
        now = time.perf_counter()
        if self.done == self.total or \
                now - self._last_emit >= self.min_interval:
            self._last_emit = now
            self._emit(now)

    def line(self, now: Optional[float] = None) -> str:
        now = time.perf_counter() if now is None else now
        elapsed = max(now - self.started, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        if self.done and remaining:
            eta = f"ETA {remaining / rate:.0f}s"
        elif remaining:
            eta = "ETA ?"
        else:
            eta = f"done in {elapsed:.1f}s"
        pct = 100.0 * self.done / self.total if self.total else 100.0
        text = (f"[{self.label}] {self.done}/{self.total} cells "
                f"({pct:.0f}%) · {rate:.1f} cells/s · {eta}")
        if self.cache_hits:
            text += f" · {self.cache_hits} cached"
        return text

    def _emit(self, now: float) -> None:
        print(self.line(now), file=self.stream, flush=True)


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

class CellExecutor:
    """A process pool that streams sweep cells barrier-free.

    Parameters
    ----------
    workers:
        Worker-count request (``resolve_workers`` semantics).  A resolved
        count of 1 never spawns processes: cells run inline in the caller,
        keeping the serial path free of multiprocessing overhead.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first parallel run, so contexts registered
    before that moment (the dedicated per-sweep pool case, and the first
    sweep on a shared ``run-all`` pool) are installed once per worker via
    the pool initializer rather than shipped with every cell.
    """

    def __init__(self, workers: Union[int, str, None] = 1):
        self.workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inline_thread: Optional[ThreadPoolExecutor] = None
        self._initializer_contexts: Dict[str, object] = {}
        self._shutdown = False
        #: Total bytes of encoded cell outcomes received from workers
        #: (0 on the inline path, which never serializes anything).
        self.ipc_bytes = 0

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._inline_thread is not None:
            self._inline_thread.shutdown()
            self._inline_thread = None
        self._shutdown = True

    # -- context registration ----------------------------------------------
    def register(self, context) -> str:
        """Announce a sweep context; returns its digest.

        Contexts registered before the pool exists ride the initializer
        (installed once per worker at spawn); later ones are shipped with
        their cells and memoized worker-side.
        """
        digest = context.digest()
        if self._pool is None:
            self._initializer_contexts[digest] = context
        return digest

    # -- execution ----------------------------------------------------------
    def run_cells(self, context, specs: Sequence,
                  progress: Optional[SweepProgress] = None,
                  on_result: Optional[Callable[[int, object], None]] = None,
                  engine: str = "scalar",
                  stats=None,
                  ) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, outcome)`` for every spec, unordered.

        All specs are submitted immediately (no per-utilization barrier);
        results stream back as workers finish.  With one worker the cells
        run inline, in submission order.  ``on_result`` fires for every
        outcome before it is yielded (used for cache writes).  ``engine``
        selects the cell backend (:func:`~repro.analysis.batch.iter_cells`
        inline; :func:`~repro.analysis.batch.fan_out_units` decides what
        one worker task carries: a cell on scalar, a whole column on
        block).  The block engine fills ``stats`` (a
        :class:`~repro.analysis.batch.BlockStats`) with its eligibility
        and timing accounting when one is passed.
        """
        if self._shutdown:
            raise RuntimeError("executor already shut down")
        digest = self.register(context)
        if self.workers <= 1 or len(specs) <= 1:
            from repro.analysis.batch import iter_cells
            for index, outcome in iter_cells(context, specs, engine, stats):
                if on_result is not None:
                    on_result(index, outcome)
                if progress is not None:
                    progress.advance()
                yield index, outcome
            return
        from repro.analysis.batch import fan_out_units
        from repro.analysis.transport import decode_cell
        pool = self._ensure_pool()
        ship = None if digest in self._initializer_contexts else context
        pending = {}
        base = 0
        for unit in fan_out_units(specs, engine):
            pending[pool.submit(_execute_cells, digest, ship, unit,
                                engine)] = base
            base += len(unit)
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                base = pending.pop(future)
                encoded, stats_dict = future.result()
                if stats is not None and stats_dict is not None:
                    stats.merge_dict(stats_dict)
                for offset, payload in enumerate(encoded):
                    self.ipc_bytes += len(payload)
                    outcome = decode_cell(payload)
                    index = base + offset
                    if on_result is not None:
                        on_result(index, outcome)
                    if progress is not None:
                        progress.advance()
                    yield index, outcome

    def submit_cell(self, context, spec, engine: str = "scalar") -> Future:
        """Schedule one cell; returns a :class:`~concurrent.futures.Future`
        resolving to its outcome dict.

        The service tier's entry point: :meth:`run_cells` is a generator
        that *drives* a whole sweep from the calling thread, which an
        asyncio event loop cannot afford.  ``submit_cell`` never blocks
        the caller — with ``workers <= 1`` the cell runs on a single
        lazily created worker thread (serial semantics, exactly one cell
        simulating at a time), otherwise it rides the process pool like
        any sweep cell, with the columnar wire decode and
        :attr:`ipc_bytes` accounting applied before the future resolves.
        """
        if self._shutdown:
            raise RuntimeError("executor already shut down")
        digest = self.register(context)
        if self.workers <= 1:
            if self._inline_thread is None:
                self._inline_thread = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="cell-inline")
            return self._inline_thread.submit(_run_one, context, spec,
                                              engine)
        pool = self._ensure_pool()
        ship = None if digest in self._initializer_contexts else context
        inner = pool.submit(_execute_cells, digest, ship, [spec], engine)
        outer: Future = Future()

        def _relay(done: Future) -> None:
            if done.cancelled():  # pragma: no cover - we never cancel
                outer.cancel()
                return
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            (payload,), _ = done.result()
            self.ipc_bytes += len(payload)
            from repro.analysis.transport import decode_cell
            try:
                outcome = decode_cell(payload)
            except Exception as decode_exc:  # pragma: no cover - bug
                outer.set_exception(decode_exc)
                return
            outer.set_result(outcome)

        inner.add_done_callback(_relay)
        return outer

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_install_contexts,
                initargs=(dict(self._initializer_contexts),))
        return self._pool
