"""Observability: pluggable instrumentation & metrics for the simulators.

The paper's whole evaluation (Figs. 9-17, Tables 1 and 4) is built from
per-run observables — frequency residency, idle fraction, deadline misses,
context and frequency switches, energy.  This package surfaces those
observables from live runs without re-running with full traces:

* :class:`~repro.obs.hooks.Instrumentation` — the hook protocol the
  simulators (:class:`~repro.sim.engine.Simulator` and
  :class:`~repro.sim.ticksim.TickSimulator`; the run-level subset in
  :class:`~repro.sim.batch_kernels.CellKernel`) call at release,
  completion, deadline-miss, context-switch, frequency-change, and
  event-dispatch points.  Hooks default to ``None`` so a disabled or
  partial instrument costs the hot path a single pointer test.
* :class:`~repro.obs.metrics.MetricsCollector` — the standard collector:
  per-task and per-policy counters, frequency/voltage residency
  histograms (busy/idle/switch-halt split), preemption and over-unity
  clamp counts, and opt-in event-loop self-profiling.
* :mod:`repro.obs.export` — JSON-lines and CSV exporters plus the
  :class:`~repro.obs.export.EventLog` streaming recorder.
* :mod:`repro.obs.summarize` — text rendering behind the
  ``rtdvs obs summarize`` CLI subcommand.

Pass an instrument to any simulator::

    >>> from repro import Task, TaskSet, machine0, make_policy
    >>> from repro.obs import MetricsCollector
    >>> from repro.sim.engine import simulate
    >>> collector = MetricsCollector()
    >>> ts = TaskSet([Task(3, 8), Task(3, 10), Task(1, 14)])
    >>> result = simulate(ts, machine0(), make_policy("ccEDF"),
    ...                   demand=0.9, duration=100.0,
    ...                   instrument=collector)
    >>> abs(collector.metrics.residency_total - result.duration) < 1e-6
    True

The instrumented-vs-uninstrumented overhead budget (<= 2 % events/sec on
the 200-task benchmark workload) is regression-checked by
``benchmarks/write_bench_json.py`` into ``BENCH_engine.json``.
"""

from repro.obs.export import (
    EventLog,
    load_jsonl,
    metrics_to_csv,
    metrics_to_jsonl,
    residency_to_csv,
)
from repro.obs.hooks import HotCounters, Instrumentation
from repro.obs.metrics import MetricsCollector, RunMetrics, TaskMetrics
from repro.obs.summarize import (
    format_metrics,
    summarize_jsonl,
    summarize_records,
)

__all__ = [
    "Instrumentation", "HotCounters",
    "MetricsCollector", "RunMetrics", "TaskMetrics",
    "EventLog", "metrics_to_jsonl", "metrics_to_csv", "residency_to_csv",
    "load_jsonl", "format_metrics", "summarize_records", "summarize_jsonl",
]
