"""The instrumentation hook protocol the engines call into.

Design goal: **zero overhead when disabled, bounded overhead when on**.
The simulators (:mod:`repro.sim.engine`, :mod:`repro.sim.ticksim`)
accept an ``instrument`` object and cache each hook as a bound method
*or* ``None`` at construction time.  Every per-event hook on
:class:`Instrumentation` is therefore a **class attribute defaulting to**
``None``: a subclass that does not care about an event simply leaves the
attribute alone, and the engine's hot path pays a single ``is not None``
test for it (the whole mechanism is off when no ``instrument`` is
passed).

Two tiers of observation exist, matching two cost profiles:

* **Hot counters** (:class:`HotCounters`) — a tiny slotted record the
  engine fills *directly* (no Python call) for the highest-frequency
  observables: context switches, preemptions, policy timer wakeups.  An
  instrumentation object opts in by exposing a non-``None`` ``counters``
  attribute.  The event-driven engines tally context switches on run-loop
  locals and flush the totals once at the end of the run, so the
  per-switch cost is a couple of local-variable operations.
* **Hooks** — real callbacks for the lower-frequency points: release,
  completion, deadline miss, operating-point change, context switch, and
  (opt-in, because it brackets dispatch with ``perf_counter``) per-event
  dispatch profiling via :attr:`Instrumentation.on_event`.

``on_run_start`` / ``on_run_end`` are ordinary methods and are always
called when an instrument is attached; pull-based collectors (see
:class:`~repro.obs.metrics.MetricsCollector`) derive everything they can
from the finished :class:`~repro.sim.results.SimResult` there instead of
paying per-event costs.  The instrumented-vs-uninstrumented events/sec
delta is regression-checked by ``benchmarks/write_bench_json.py`` into
``BENCH_engine.json`` (budget: <= 2 % on the 200-task workload).
"""

from __future__ import annotations

from typing import Optional


class HotCounters:
    """Counters the engine increments inline (no callback overhead).

    The fields are plain integers; ``reset()`` zeroes them between runs.
    """

    __slots__ = ("context_switches", "preemptions", "wakeups")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.context_switches = 0
        self.preemptions = 0
        self.wakeups = 0

    def as_dict(self) -> dict:
        return {"context_switches": self.context_switches,
                "preemptions": self.preemptions,
                "wakeups": self.wakeups}


class Instrumentation:
    """Base class for pluggable simulator instrumentation.

    Subclass and override the hooks you need.  Hook signatures (``sim`` is
    the running simulator, which implements
    :class:`~repro.sim.engine.SchedulerView`, so ``sim.time``,
    ``sim.taskset``, ``sim.current_point`` ... are all available):

    ``on_run_start(sim)``
        After the policy's ``setup`` ran and the initial operating point
        is in effect, before the first event.
    ``on_run_end(sim, result)``
        After the run finished; ``result`` is the engine's
        :class:`~repro.sim.results.SimResult` (or the tick simulator's
        ``TickResult``).
    ``on_release(sim, job)``
        A job was released (the policy's release hook has *not* fired
        yet).
    ``on_completion(sim, job)``
        A job completed (before the policy's completion hook).
    ``on_deadline_miss(sim, miss)``
        A deadline miss was detected; ``miss`` is a
        :class:`~repro.sim.results.DeadlineMiss` record.
    ``on_context_switch(sim, prev_job, next_job, preempted)``
        The executing job changed; ``prev_job`` is ``None`` for the first
        dispatch, ``preempted`` is True when ``prev_job`` was still
        incomplete.  The event-driven engines fire this from the run
        loop, after ``next_job``'s first execution segment (``sim.time``
        is that segment's end); the tick simulator fires it at the tick
        that dispatches ``next_job``.
    ``on_frequency_change(sim, old_point, new_point)``
        The operating point is changing (fires before any switch halt is
        charged, so ``sim.time`` is the decision instant).
    ``on_event(kind, time, wall_seconds)``
        Event-dispatch self-profiling: one productive dispatch of type
        ``kind`` (``"admission"``, ``"release"``, ``"wakeup"``,
        ``"completion"``) finished at simulated ``time`` and took
        ``wall_seconds`` of host time.  Opt-in: enabling it makes the
        engine bracket dispatches with ``perf_counter``.

    The class attributes below are ``None`` so engines can skip
    unimplemented hooks with a single pointer test.
    """

    #: Optional :class:`HotCounters` block the engine increments inline.
    counters: Optional[HotCounters] = None

    on_release = None
    on_completion = None
    on_deadline_miss = None
    on_context_switch = None
    on_frequency_change = None
    on_event = None

    def on_run_start(self, sim) -> None:  # pragma: no cover - trivial
        """Called once before the first event; override to reset state."""

    def on_run_end(self, sim, result) -> None:  # pragma: no cover - trivial
        """Called once with the finished result; override to finalize."""
