"""In-memory span tracer that instruments a program from the outside.

The benchmark never edits the code it measures.  Instead it wraps the
functions and methods at each layer boundary (:meth:`Tracer.patch` and
:meth:`Tracer.patch_method`) for the traced phase of a run and restores
the originals afterwards (:meth:`Tracer.uninstall`).  Where a caller
imported a function by name, the name is patched at the caller too:
every loaded module of the traced package whose attribute *is* the
original gets the wrapper.

Each call of a wrapped function is a span with a name, a start, an end,
its parent span and the request id that was current in its thread.
Spans stay in memory and are written out at the end of the run.  A
layer's self time is its span time minus the time its child spans
cover; the tracer keeps that sum (and a call count) per span name as it
goes, so per-event hooks, which fire millions of times in one sweep, can
be traced as *aggregate* spans that update the sums without storing a
record each.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: The traced package: by-name imports are patched in its modules only.
PACKAGE = "repro"

#: Stored span records kept per process; later spans still count in the
#: per-name sums, and :attr:`Tracer.dropped_spans` says how many.
MAX_SPANS = 50_000


class _ThreadState:
    __slots__ = ("stack", "totals", "request_id", "name")

    def __init__(self, name: str):
        #: Open frames, innermost last: ``[child_seconds, span_id]``.
        self.stack: List[list] = []
        #: span name -> [self_seconds, calls, amount]
        self.totals: Dict[str, list] = {}
        self.request_id: Optional[str] = None
        self.name = name


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        #: ``(name, start, end, span_id, parent_id, request_id, thread)``
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: Free-standing counters (``count``), summed across threads.
        self.counters: Dict[str, float] = {}
        #: Targets that were asked for but do not exist in this program.
        self.missing: List[str] = []
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _enter(self, state: _ThreadState, record: bool) -> list:
        frame = [0.0, next(self._ids) if record else 0]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list, name: str,
              start: float, end: float, record: bool, amount: float) -> None:
        state.stack.pop()
        duration = end - start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[0] += duration
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0.0, 0, 0.0]
        total[0] += duration - frame[0]
        total[1] += 1
        total[2] += amount
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, frame[1],
                                   parent[1] if parent else 0,
                                   state.request_id, state.name))
            else:
                self.dropped_spans += 1

    # -- spans opened by the benchmark itself ---------------------------------
    def request(self, name: str, request_id: str) -> "_Request":
        """Root span of one benchmark request; spans opened beneath it in
        this thread carry ``request_id``."""
        return _Request(self, name, request_id)

    def external(self, name: str, start: float, seconds: float) -> None:
        """Record a child span measured elsewhere (e.g. by a server) under
        the innermost open span of this thread."""
        state = self._state()
        frame = self._enter(state, True)
        self._exit(state, frame, name, start, start + seconds, True, 0.0)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn: Callable, name: str, record: bool = True,
             amount: Optional[Callable] = None) -> Callable:
        """A traced version of ``fn``.

        ``record=False`` makes an aggregate span (sums only).
        ``amount(args, kwargs, result)`` returns a number added to the
        span name's third sum (bytes, lanes, hits ...).
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                # Time each resumption, so a consumer's work between
                # items is not charged to the generator.
                iterator = fn(*args, **kwargs)
                try:
                    while True:
                        state = tracer._state()
                        frame = tracer._enter(state, record)
                        start = perf_counter()
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(state, frame, name, start,
                                         perf_counter(), record, 0.0)
                        yield item
                finally:
                    iterator.close()
            traced_generator.__wrapped_original__ = fn
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            frame = tracer._enter(state, record)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._exit(state, frame, name, start, end, record,
                             amount(args, kwargs, result)
                             if amount is not None else 0.0)
        traced.__wrapped_original__ = fn
        return traced

    def patch(self, module, attr: str, name: str, **options) -> bool:
        """Wrap ``module.attr`` and every by-name import of it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        wrapped = self.wrap(original, name, **options)
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)
        return True

    def patch_method(self, cls, attr: str, name: str, **options) -> bool:
        """Wrap a method, static method or property that ``cls`` itself
        defines (inherited ones are patched on the defining class)."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return False
        if isinstance(raw, property):
            replacement = property(self.wrap(raw.fget, name, **options),
                                   raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(
                self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, classmethod):
            replacement = classmethod(
                self.wrap(raw.__func__, name, **options))
        elif callable(raw):
            replacement = self.wrap(raw, name, **options)
        else:
            self.missing.append(f"{cls.__qualname__}.{attr} (not callable)")
            return False
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)
        return True

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[float, int, float]]:
        """span name -> (self seconds, calls, amount), all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (seconds, calls, amount) in list(state.totals.items()):
                entry = merged.setdefault(name, [0.0, 0, 0.0])
                entry[0] += seconds
                entry[1] += calls
                entry[2] += amount
        return {name: tuple(entry) for name, entry in merged.items()}

    def dump(self) -> Dict[str, object]:
        """JSON-safe snapshot: sums, counters and the stored spans."""
        return {
            "totals": {name: list(values)
                       for name, values in sorted(self.totals().items())},
            "counters": dict(self.counters),
            "spans": [list(span) for span in self.spans],
            "dropped_spans": self.dropped_spans,
            "missing": list(self.missing),
        }


class _Request:
    """Context manager for a benchmark root span."""

    def __init__(self, tracer: Tracer, name: str, request_id: str):
        self.tracer = tracer
        self.name = name
        self.request_id = request_id

    def __enter__(self) -> "_Request":
        state = self.tracer._state()
        self._previous = state.request_id
        state.request_id = self.request_id
        self._frame = self.tracer._enter(state, True)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        state = self.tracer._state()
        end = perf_counter()
        self.tracer._exit(state, self._frame, self.name, self._start, end,
                          True, 0.0)
        self.tracer.count(self.name + ".wall_s", end - self._start)
        state.request_id = self._previous

