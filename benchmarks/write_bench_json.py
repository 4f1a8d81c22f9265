#!/usr/bin/env python
"""Engine performance trajectory: canonical workloads -> BENCH_engine.json.

Runs a fixed battery of canonical workloads on the event engine
(:class:`~repro.sim.engine.Simulator`, indexed event queues) and records
events/second, wall time, and peak RSS in ``BENCH_engine.json`` at the
repository root.  Every engine workload is cross-checked against
:func:`~repro.sim.batch_kernels.kernel_simulate` (the workloads sit inside
the cell kernel's envelope): energy and miss counts must be identical, so
the recorded rates can never come from a semantic divergence.

Workloads
---------
* ``tasks10`` / ``tasks50`` / ``tasks200`` — generated task sets at the
  paper's period bands, utilization 0.7, with early completions (constant
  80 % demand) so release *and* completion hooks fire.  ``tasks10``/
  ``tasks50`` run under ccEDF; ``tasks200`` runs plain EDF so the number
  isolates the engine rather than the O(n) policy recalculation.
* ``fig9_sweep`` — a micro-scale Fig. 9-style utilization sweep (the
  dominant workload shape in practice), timed end-to-end in three
  variants: serial (``workers=1``), parallel, and warm-cache (a rerun
  against a freshly populated cell cache, which must complete with
  **zero** simulations).  The parallel variant sweeps a wider panel
  (:data:`PARALLEL_N_SETS` sets per point, 3.4-5.2 s serial on a 2-CPU
  x86_64 host) once serially and once with ``--parallel-workers``
  (default 4, through the barrier-free fan-out layer), so pool start-up
  does not swamp the ratio.
* ``policy_callbacks`` — per-event callback cost of ccEDF / ccRM / laEDF
  at 10, 50 and 200 tasks, measured by wrapping the policy in a timing
  proxy, for the production classes (maintained aggregates) and their
  from-scratch test oracle (``tests/core/scratch_policies.py``).  The
  incremental and from-scratch runs must agree bit-for-bit on energy and
  switches.
* ``trace_timeline`` — the trace layer in isolation: a ~190k-slice
  long-horizon stream replayed into the columnar ``SimTimeline`` and into
  the reference segment-list recorder (``tests/sim/segment_list.py``),
  then the kernel battery (residency, busy/idle, frequency profile,
  executed cycles) and shipping (``to_bytes`` vs pickle).  Reductions
  must agree to 1e-9 relative.
* ``memory`` — peak-RSS comparison of the same two recorders on the
  n=200 long-horizon workload, one fresh subprocess per backend (see
  ``benchmarks/mem_workload.py`` / ``make bench-mem``).
* ``kernel_per_policy`` — informational, ungated: milliseconds per run
  of each of the six paper policies on one catalog fig9 10-task quick
  cell, on the path sweep cells take (``batch_simulate`` with the
  cell's shared :func:`~repro.sim.batch_kernels.cell_params` row); the
  median and quartiles of 11 batches per policy, run round-robin.

Usage::

    PYTHONPATH=src python benchmarks/write_bench_json.py [--out PATH]
        [--parallel-workers N]
    make bench

Regression gates (non-zero exit on violation):

* instrumentation overhead per workload — ``tasks200`` against the tight
  2 % budget (hottest per-event path), ``tasks10``/``tasks50`` against a
  looser 10 % budget (short runs amortize collector setup over far fewer
  events, so their percentage is structurally noisier);
* ``fig9_sweep`` warm-cache rerun must simulate nothing;
* ``policy_callbacks`` incremental speedup at 200 tasks must reach 2x for
  every incremental policy (3x for laEDF, whose deferral loop is batched),
  and ccRM's one-time setup must stay under 20 ms (median of cold
  setups, the RTA memo emptied before each: the response-time analysis
  vs the old O(n^2) scheduling-point test);
* ``trace_timeline`` array-backend wall clock must reach 2x over the
  segment-list backend, with the columnar blob no larger than pickle;
* ``memory`` array-backend peak RSS must be >= 30 % below the
  segment-list backend, and must not exceed 1.25x the previous
  same-machine recording (tolerance documented at the constant);
* ``fig9_sweep`` parallel speedup must reach 3x with >= 4 effective CPUs
  (scaled down to 0.75x-per-CPU below that; skipped on one CPU, where no
  parallel speedup is physically available);
* ``fig9_sweep`` serial throughput must not regress below 70 % of the
  previous recording *when the previous recording came from the same
  machine fingerprint* (cross-machine wall-clock comparisons are noise);
* ``fig9_sweep_batch`` cold throughput of a sweep (every cell on the
  per-cell kernel) must reach 3x the same 1000-cell workload run cell by
  cell on the discrete-event engine, with bit-identical curves, and a
  fresh subprocess must finish a sweep of every paper policy without
  numpy in ``sys.modules`` (the :mod:`numpy_guard` invariant).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT))

from mem_workload import RSS_TARGET_REDUCTION_PCT, measure_pair  # noqa: E402
from numpy_guard import numpy_violation  # noqa: E402

from repro.analysis.executor import effective_cpu_count  # noqa: E402
from repro.analysis.sweep import (SweepConfig, aggregate_outcomes,  # noqa: E402
                                  materialize_cell, run_cell,
                                  sweep_cell_specs, sweep_context,
                                  utilization_sweep)
from repro.catalog import panel_sweep_config  # noqa: E402
from repro.core import PAPER_POLICIES, make_policy  # noqa: E402
from repro.hw.machine import machine0  # noqa: E402
from repro.model import schedulability  # noqa: E402
from repro.model.generator import TaskSetGenerator  # noqa: E402
from repro.obs import MetricsCollector  # noqa: E402
from repro.sim.batch_kernels import (batch_simulate, cell_params,  # noqa: E402
                                     kernel_simulate)
from repro.sim.engine import Simulator, simulate  # noqa: E402
from tests.core.scratch_policies import ORACLE_PAIRS  # noqa: E402
from tests.sim.segment_list import (SegmentList,  # noqa: E402
                                    reference_executed_cycles,
                                    reference_residency)

#: (name, n_tasks, policy, duration) — durations are sized so each
#: workload finishes in seconds while still processing enough events for
#: stable rates.
WORKLOADS = (
    ("tasks10", 10, "ccEDF", 2000.0),
    ("tasks50", 50, "ccEDF", 600.0),
    ("tasks200", 200, "EDF", 200.0),
)

UTILIZATION = 0.7
DEMAND = 0.8
SEED = 2001  # the paper's year; fixed so the workloads never drift
REPEATS = 3

#: Ceiling on the events/sec cost of attaching a MetricsCollector,
#: enforced on the tasks200 workload (the hottest per-event path).
MAX_INSTRUMENT_OVERHEAD_PCT = 2.0

#: Looser ceiling for the short tasks10/tasks50 workloads, whose runs
#: amortize collector setup over far fewer events (previously recorded at
#: 7.28 % / 6.31 % and entirely ungated).
MAX_INSTRUMENT_OVERHEAD_SMALL_PCT = 10.0

#: Per-workload instrumentation budgets — every workload is gated now.
INSTRUMENT_BUDGETS_PCT = {
    "tasks10": MAX_INSTRUMENT_OVERHEAD_SMALL_PCT,
    "tasks50": MAX_INSTRUMENT_OVERHEAD_SMALL_PCT,
    "tasks200": MAX_INSTRUMENT_OVERHEAD_PCT,
}

#: Overhead re-measurement attempts (best kept) before calling a breach.
INSTRUMENT_ATTEMPTS = 4

#: Parallel-sweep speedup target with >= this many effective CPUs.
PARALLEL_TARGET_SPEEDUP = 3.0
PARALLEL_TARGET_CPUS = 4

#: Task sets per utilization point of the parallel ``fig9_sweep`` leg:
#: 320 cells, 3.4-5.2 s serial on a 2-CPU x86_64 host.  The serial
#: leg's 12 cells (~0.11 s) are too few to time a pool against.
PARALLEL_N_SETS = 80

#: Serial sweep throughput must stay above this fraction of the previous
#: same-machine recording.
SERIAL_REGRESSION_FLOOR = 0.7

#: Cold-sweep throughput floor of a sweep (every cell on the per-cell
#: kernel) over the 1000-cell workload run cell by cell on the
#: discrete-event engine.
BATCH_TARGET_SPEEDUP = 3.0

#: Policies for the batch workload: four paper policies without laEDF's
#: deferral loop or ccRM's RTA-heavy setup (kept from when the workload
#: also timed a cross-cell lane tier that could not run those two, so
#: the recorded ratio stays comparable).
BATCH_WORKLOAD_POLICIES = ("EDF", "staticEDF", "staticRM", "ccEDF")

#: Incremental-vs-from-scratch per-callback speedup floor at 200 tasks.
POLICY_CALLBACK_TARGET_SPEEDUP = 2.0

#: Per-policy overrides of the callback speedup floor.  laEDF's deferral
#: walk keeps task-set slots and reads jobs through the per-slot
#: ``current_jobs`` view read, which pushes it well past the generic 2x;
#: gate it at 3x so that headroom cannot silently erode.
POLICY_CALLBACK_TARGET_SPEEDUPS = {"laEDF": 3.0}

#: Ceiling on ccRM's one-time setup at 200 tasks (microseconds), gated on
#: the median cold setup (RTA memo emptied).  The response-time analysis
#: replaced the O(n^2)-scheduling-points exact test that used to cost
#: ~480,000 us here.
CCRM_SETUP_US_CEILING = 20_000.0

#: Task counts for the policy-callback microbenchmark.
POLICY_CALLBACK_TASK_COUNTS = (10, 50, 200)

#: Policies with an incremental mode to microbenchmark.
INCREMENTAL_POLICIES = ("ccEDF", "ccRM", "laEDF")

#: Array-vs-segments wall-clock floor on the trace-layer replay workload
#: (record a long-horizon slice stream, run the kernel battery, ship it).
TRACE_TIMELINE_TARGET_SPEEDUP = 2.0

#: Peak-RSS reduction floor (percent) of the array backend over the
#: segment-list backend on the n=200 long-horizon memory workload
#: (single source of truth: ``benchmarks/mem_workload.py``).
MEM_RSS_TARGET_REDUCTION_PCT = RSS_TARGET_REDUCTION_PCT

#: Absolute peak-RSS regression tolerance against the previous recording
#: on the same machine fingerprint.  ``ru_maxrss`` is a high-watermark
#: that moves with allocator arena layout, interpreter version and page
#: reuse, so small drifts are noise; 1.25x is loose enough to absorb
#: that and still catch the failure modes this gate exists for — a stray
#: numpy import on the record path (~+30 MB) or a hot class losing its
#: ``__slots__`` (tens of MB at 200k+ objects).
PEAK_RSS_REGRESSION_TOLERANCE = 1.25


def _peak_rss_kb() -> int:
    """Peak RSS of this process in kilobytes (Linux ru_maxrss unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_engine(engine_cls, taskset, policy_name, duration):
    """Best-of-REPEATS wall time for one engine on one workload."""
    best = None
    result = None
    for _ in range(REPEATS):
        sim = engine_cls(taskset, machine0(), make_policy(policy_name),
                         demand=DEMAND, duration=duration, on_miss="drop")
        start = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    completions = sum(1 for job in result.jobs if job.is_complete)
    events = len(result.jobs) + completions + result.switches
    return {
        "wall_seconds": round(best, 6),
        "events": events,
        "events_per_sec": round(events / best, 1),
        "jobs": len(result.jobs),
        "switches": result.switches,
        "energy": result.total_energy,
        "misses": len(result.misses),
    }


def _instrument_overhead(taskset, policy_name, duration, indexed,
                         repeats=8):
    """Instrumented-vs-uninstrumented delta on the indexed engine.

    Measured in *CPU* time (``time.process_time``) over interleaved
    best-of-``repeats`` pairs: the container this runs in is subject to
    CPU-quota throttling and heavy co-tenancy, which makes a <= 2 %
    wall-clock comparison meaningless (observed wall noise is 10-20 %).
    CPU time is unaffected by scheduling pauses, and best-of discards
    frequency-ramp outliers.
    """
    def once(instrumented):
        collector = MetricsCollector() if instrumented else None
        sim = Simulator(taskset, machine0(), make_policy(policy_name),
                        demand=DEMAND, duration=duration, on_miss="drop",
                        instrument=collector)
        start = time.process_time()
        result = sim.run()
        elapsed = time.process_time() - start
        completions = sum(1 for job in result.jobs if job.is_complete)
        events = len(result.jobs) + completions + result.switches
        return events / elapsed, result, collector

    once(False)  # warm-up (adaptive-interpreter specialization)
    once(True)
    base = inst = 0.0
    result = collector = None
    for _ in range(repeats):
        base = max(base, once(False)[0])
        rate, result, collector = once(True)
        inst = max(inst, rate)
    # The collector must observe the run it timed, exactly.
    if result.total_energy != indexed["energy"] \
            or len(result.misses) != indexed["misses"]:
        raise SystemExit(
            "attaching a MetricsCollector changed the run — "
            f"(E={result.total_energy}, misses={len(result.misses)}) vs "
            f"(E={indexed['energy']}, misses={indexed['misses']})")
    metrics = collector.metrics
    assert metrics.frequency_switches == result.switches
    assert abs(metrics.residency_total - metrics.span) \
        <= 1e-9 * max(1.0, metrics.span)
    return {
        "events_per_sec_cpu": round(inst, 1),
        "uninstrumented_events_per_sec_cpu": round(base, 1),
        "overhead_pct": round(100.0 * (1.0 - inst / base), 2),
        "repeats": repeats,
        "context_switches": metrics.context_switches,
        "preemptions": metrics.preemptions,
    }


def bench_workload(name, n_tasks, policy_name, duration):
    taskset = TaskSetGenerator(n_tasks=n_tasks, utilization=UTILIZATION,
                               seed=SEED).generate()
    indexed = _run_engine(Simulator, taskset, policy_name, duration)
    kernel = kernel_simulate(taskset, machine0(), make_policy(policy_name),
                             demand=DEMAND, duration=duration,
                             on_miss="drop")
    if indexed["energy"] != kernel.total_energy \
            or indexed["misses"] != len(kernel.misses):
        raise SystemExit(
            f"{name}: engines diverged — indexed "
            f"(E={indexed['energy']}, misses={indexed['misses']}) vs "
            f"cell kernel (E={kernel.total_energy}, "
            f"misses={len(kernel.misses)})")
    # Collector overhead is a one-sided measurement: co-tenancy noise can
    # inflate it but never deflate a real regression below its true value,
    # so retry a few times and keep the *lowest* observed overhead.
    budget = INSTRUMENT_BUDGETS_PCT.get(name)
    instrumented = None
    for _ in range(INSTRUMENT_ATTEMPTS):
        attempt = _instrument_overhead(taskset, policy_name, duration,
                                       indexed)
        if instrumented is None \
                or attempt["overhead_pct"] < instrumented["overhead_pct"]:
            instrumented = attempt
        if budget is None or instrumented["overhead_pct"] <= budget:
            break
    overhead = instrumented["overhead_pct"]
    return {
        "n_tasks": n_tasks,
        "policy": policy_name,
        "utilization": UTILIZATION,
        "demand": DEMAND,
        "duration": duration,
        "indexed": indexed,
        "instrumented": instrumented,
        "instrumented_overhead_pct": round(overhead, 2),
    }


#: n_tasks -> duration for the callback microbenchmark (mirrors WORKLOADS'
#: sizing: larger sets get shorter horizons so runs stay in seconds).
_CALLBACK_DURATIONS = {10: 2000.0, 50: 600.0, 200: 200.0}

#: Utilization for the callback benchmark — kept below the RM utilization
#: bound (ln 2) so ccRM's static-scaling step is feasible at every size.
CALLBACK_UTILIZATION = 0.5


class _TimedPolicy:
    """Timing proxy around a DVS policy.

    Accumulates wall time and call count across every *event* callback the
    engine fires, without touching the policy's decisions.  ``setup`` is
    timed separately: it is a one-time analysis (ccRM's embedded exact RM
    schedulability test is O(n^2) and identical in both modes), not a
    per-event cost, and folding it into the average would mask the hot
    path this benchmark exists to gate.  Deliberately does *not* define
    ``wakeup_time`` — the engine treats its presence as a capability, and
    none of the benched policies have it.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.scheduler = inner.scheduler
        self.calls = 0
        self.seconds = 0.0
        self.setup_seconds = 0.0

    def _timed(self, method, *args):
        start = time.perf_counter()
        result = method(*args)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return result

    def setup(self, view):
        start = time.perf_counter()
        result = self.inner.setup(view)
        self.setup_seconds += time.perf_counter() - start
        return result

    def on_releases_invalidate(self, view, tasks):
        # Part of the incremental maintenance cost (laEDF repositions the
        # whole release batch here), so it is timed like any callback.
        return self._timed(self.inner.on_releases_invalidate, view, tasks)

    def on_release(self, view, task):
        return self._timed(self.inner.on_release, view, task)

    def on_completion(self, view, task):
        return self._timed(self.inner.on_completion, view, task)

    def on_task_added(self, view, task):
        return self._timed(self.inner.on_task_added, view, task)

    def on_task_removed(self, view, task):
        return self._timed(self.inner.on_task_removed, view, task)

    def on_idle(self, view):
        return self._timed(self.inner.on_idle, view)


def _timed_policy_run(name, incremental, taskset, duration):
    """Best-of-REPEATS per-callback cost and median cold setup for one
    policy configuration.

    The RTA memo is emptied before every repeat, so each ``setup`` runs
    ccRM's response-time analysis itself rather than a memo lookup, and
    ``setup_us`` is the median of those cold setups.
    """
    best_us = None
    setups = []
    calls = 0
    result = None
    for _ in range(REPEATS):
        schedulability._rta_memo_clear()
        production, oracle = ORACLE_PAIRS[name]
        proxy = _TimedPolicy(production() if incremental else oracle())
        sim = Simulator(taskset, machine0(), proxy, demand=DEMAND,
                        duration=duration, on_miss="drop")
        run = sim.run()
        setups.append(1e6 * proxy.setup_seconds)
        per_call = 1e6 * proxy.seconds / proxy.calls
        if best_us is None or per_call < best_us:
            best_us = per_call
            calls = proxy.calls
            result = run
    return {"per_callback_us": round(best_us, 3),
            "setup_us": round(statistics.median(setups), 1),
            "callbacks": calls}, result


def bench_policy_callbacks():
    """Per-event callback cost, incremental vs from-scratch, per policy.

    The two modes must agree bit-for-bit on energy, switches and misses —
    the whole point of the incremental aggregates is that they change
    nothing but the cost.
    """
    entry = {
        "utilization": CALLBACK_UTILIZATION,
        "demand": DEMAND,
        "task_counts": list(POLICY_CALLBACK_TASK_COUNTS),
        "policies": {},
    }
    for name in INCREMENTAL_POLICIES:
        per_size = {}
        for n_tasks in POLICY_CALLBACK_TASK_COUNTS:
            duration = _CALLBACK_DURATIONS[n_tasks]
            taskset = TaskSetGenerator(
                n_tasks=n_tasks, utilization=CALLBACK_UTILIZATION,
                seed=SEED).generate()
            fast, fast_run = _timed_policy_run(name, True, taskset,
                                               duration)
            slow, slow_run = _timed_policy_run(name, False, taskset,
                                               duration)
            if fast_run.total_energy != slow_run.total_energy \
                    or fast_run.switches != slow_run.switches \
                    or len(fast_run.misses) != len(slow_run.misses):
                raise SystemExit(
                    f"policy_callbacks {name}/{n_tasks}: incremental run "
                    f"diverged from from-scratch — "
                    f"(E={fast_run.total_energy}, sw={fast_run.switches}) "
                    f"vs (E={slow_run.total_energy}, "
                    f"sw={slow_run.switches})")
            per_size[str(n_tasks)] = {
                "incremental": fast,
                "from_scratch": slow,
                "speedup": round(slow["per_callback_us"]
                                 / fast["per_callback_us"], 2),
            }
        entry["policies"][name] = per_size
    return entry


def check_callback_gates(entry):
    """policy_callbacks regression gates; returns failure strings."""
    failures = []
    top = str(POLICY_CALLBACK_TASK_COUNTS[-1])
    for name, per_size in entry["policies"].items():
        target = POLICY_CALLBACK_TARGET_SPEEDUPS.get(
            name, POLICY_CALLBACK_TARGET_SPEEDUP)
        speedup = per_size[top]["speedup"]
        if speedup < target:
            failures.append(
                f"policy_callbacks: {name} incremental speedup {speedup}x "
                f"at {top} tasks below the {target:g}x target")
    setup_us = entry["policies"]["ccRM"][top]["incremental"]["setup_us"]
    if setup_us > CCRM_SETUP_US_CEILING:
        failures.append(
            f"policy_callbacks: ccRM setup {setup_us:g} us at {top} tasks "
            f"exceeds the {CCRM_SETUP_US_CEILING:g} us ceiling (the cold "
            "RTA regressed toward the scheduling-point test)")
    return failures


def _trace_stream():
    """A deterministic long-horizon slice stream for the replay workload.

    One real n=50 ccEDF run provides the slice pattern (realistic merge
    density, task/point interleaving); tiling six copies end to end makes
    the horizon long enough that recording, the kernel battery and
    shipping all operate on ~190k rows.
    """
    from repro.sim.timeline import KINDS

    taskset = TaskSetGenerator(n_tasks=50, utilization=UTILIZATION,
                               seed=SEED).generate()
    sim = Simulator(taskset, machine0(), make_policy("ccEDF"),
                    demand=DEMAND, duration=3200.0, on_miss="drop",
                    record_trace=True)
    source = sim.run().trace
    start, end, cycles, energy, task, op, kind = source.columns()
    names, points = source.task_names, source.points
    span = end[len(source) - 1]
    stream = []
    for copy in range(6):
        offset = copy * span
        for i in range(len(source)):
            stream.append((start[i] + offset, end[i] + offset,
                           names[task[i]] if task[i] >= 0 else None,
                           points[op[i]], cycles[i], energy[i],
                           KINDS[kind[i]]))
    return stream


def _replay_once(backend, stream):
    """Record + kernel battery + ship for one backend; returns timings.

    ``"array"`` is :class:`~repro.sim.timeline.SimTimeline` with the
    library's reductions; ``"segments"`` is the reference recorder with
    its per-segment reductions.
    """
    import pickle

    from repro.obs.metrics import residency_from_trace
    from repro.sim.bound import trace_executed_cycles
    from repro.sim.timeline import SimTimeline

    array = backend == "array"
    start = time.perf_counter()
    trace = SimTimeline() if array else SegmentList()
    record = trace.record
    for piece in stream:
        record(*piece)
    record_s = time.perf_counter() - start
    start = time.perf_counter()
    battery = {
        "residency": (residency_from_trace if array
                      else reference_residency)(trace),
        "busy": trace.busy_time(),
        "idle": trace.idle_time(),
        "profile": trace.frequency_profile(),
        "cycles": (trace_executed_cycles if array
                   else reference_executed_cycles)(trace),
    }
    consume_s = time.perf_counter() - start
    start = time.perf_counter()
    if array:
        blob = trace.to_bytes()
    else:
        blob = pickle.dumps(trace)
    ship_s = time.perf_counter() - start
    return record_s, consume_s, ship_s, len(trace), len(blob), battery


def bench_trace_timeline():
    """Trace-layer replay workload: reference segment list vs SimTimeline.

    Isolates exactly what the columnar timeline changed — recording,
    trace-level reductions, serialization — on the same slice stream, so
    the ratio is not diluted by scheduler work that both backends share.
    The two backends must agree on every reduction to 1e-9 relative.
    """
    stream = _trace_stream()
    results = {}
    for backend in ("segments", "array"):
        best = None
        for _ in range(REPEATS):
            attempt = _replay_once(backend, stream)
            if best is None or sum(attempt[:3]) < sum(best[:3]):
                best = attempt
        record_s, consume_s, ship_s, rows, blob, battery = best
        results[backend] = {
            "record_seconds": round(record_s, 6),
            "consume_seconds": round(consume_s, 6),
            "ship_seconds": round(ship_s, 6),
            "wall_seconds": round(record_s + consume_s + ship_s, 6),
            "rows": rows,
            "blob_bytes": blob,
            "_battery": battery,
        }
    a, b = results["segments"]["_battery"], results["array"]["_battery"]
    if results["segments"]["rows"] != results["array"]["rows"]:
        raise SystemExit("trace_timeline: backends merged differently — "
                         f"{results['segments']['rows']} vs "
                         f"{results['array']['rows']} rows")
    for key in ("busy", "idle", "cycles"):
        if abs(a[key] - b[key]) > 1e-9 * max(1.0, abs(a[key])):
            raise SystemExit(
                f"trace_timeline: {key} diverged — {a[key]} vs {b[key]}")
    if sorted(a["residency"]) != sorted(b["residency"]) or any(
            abs(a["residency"][f] - b["residency"][f])
            > 1e-9 * max(1.0, abs(a["residency"][f]))
            for f in a["residency"]):
        raise SystemExit("trace_timeline: residency tables diverged")
    if a["profile"] != b["profile"]:
        raise SystemExit("trace_timeline: frequency profiles diverged")
    for entry in results.values():
        del entry["_battery"]
    speedup = (results["segments"]["wall_seconds"]
               / results["array"]["wall_seconds"])
    return {
        "slices": len(stream),
        "segments": results["segments"],
        "array": results["array"],
        "speedup": round(speedup, 2),
    }


def check_trace_timeline_gates(entry):
    """trace_timeline regression gates; returns failure strings."""
    failures = []
    if entry["speedup"] < TRACE_TIMELINE_TARGET_SPEEDUP:
        failures.append(
            f"trace_timeline: array backend speedup {entry['speedup']}x "
            f"below the {TRACE_TIMELINE_TARGET_SPEEDUP:g}x target")
    if entry["array"]["blob_bytes"] > entry["segments"]["blob_bytes"]:
        failures.append(
            "trace_timeline: columnar blob "
            f"({entry['array']['blob_bytes']} B) larger than the pickled "
            f"segment list ({entry['segments']['blob_bytes']} B)")
    return failures


def bench_memory():
    """Subprocess peak-RSS comparison (see ``benchmarks/mem_workload.py``)."""
    entry = measure_pair()
    for backend, report in entry["backends"].items():
        violation = numpy_violation(f"memory ({backend} record path)",
                                    imported=report["numpy_imported"])
        if violation:
            raise SystemExit(
                f"{violation} — the RSS comparison is meaningless with a "
                "~30 MB import on one side")
    return entry


def check_memory_gates(entry, previous_rss, previous_fingerprint):
    """Memory-workload regression gates; returns failure strings."""
    failures = []
    if entry["rss_reduction_pct"] < MEM_RSS_TARGET_REDUCTION_PCT:
        failures.append(
            f"memory: array backend peak-RSS reduction "
            f"{entry['rss_reduction_pct']:.1f}% below the "
            f"{MEM_RSS_TARGET_REDUCTION_PCT:g}% target")
    if entry["blob_ratio"] < 1.0:
        failures.append(
            f"memory: columnar trace blob {entry['blob_ratio']:.2f}x the "
            "pickled size — transport regressed past pickle")
    array_rss = entry["backends"]["array"]["peak_rss_kb"]
    if previous_rss and previous_fingerprint == _machine_fingerprint():
        ceiling = PEAK_RSS_REGRESSION_TOLERANCE * previous_rss
        if array_rss > ceiling:
            failures.append(
                f"memory: array-backend peak RSS {array_rss} KB exceeds "
                f"{ceiling:.0f} KB ({PEAK_RSS_REGRESSION_TOLERANCE:g}x the "
                f"previous same-machine recording of {previous_rss} KB)")
    return failures


def _timed_sweep(n_sets=3, **overrides):
    """One micro fig9-shaped sweep; returns (elapsed, result, cells)."""
    config = SweepConfig(n_sets=n_sets, utilizations=(0.3, 0.5, 0.7, 0.9),
                         duration=600.0, seed=SEED, **overrides)
    start = time.perf_counter()
    result = utilization_sweep(config)
    elapsed = time.perf_counter() - start
    return elapsed, result, len(config.utilizations) * config.n_sets


def bench_fig9_sweep(parallel_workers=4):
    """Micro-scale Fig. 9-shaped sweep, wall-clock end to end.

    Three variants: serial, parallel through the barrier-free fan-out
    layer, and a warm-cache rerun (which must simulate nothing).  The
    parallel leg times its own wider sweep (:data:`PARALLEL_N_SETS`)
    serially and in parallel; the two runs must produce bit-identical
    curves — checked here so the speedup can never come from a semantic
    divergence.

    The requested worker count is clamped to the effective CPU budget
    (``sched_getaffinity``, the same clamp ``resolve_workers("auto")``
    applies) before the parallel run: spawning 4 processes on a 1-CPU
    container just measures pool overhead and records a meaningless
    sub-1x "speedup".  The entry records both the request and the clamp
    so the recording is honest about what actually ran.
    """
    serial_s, serial, cells = _timed_sweep(workers=1)
    effective = effective_cpu_count()
    workers = max(1, min(parallel_workers, effective))
    wide_s, wide, wide_cells = _timed_sweep(n_sets=PARALLEL_N_SETS,
                                            workers=1)
    parallel_s, parallel, _ = _timed_sweep(n_sets=PARALLEL_N_SETS,
                                           workers=workers)
    if wide.raw.rows() != parallel.raw.rows():
        raise SystemExit("fig9_sweep: parallel curves diverged from serial")
    with tempfile.TemporaryDirectory() as tmp:
        cold_s, cold, _ = _timed_sweep(workers=1, cache_dir=tmp)
        warm_s, warm, _ = _timed_sweep(workers=1, cache_dir=tmp)
    if warm.raw.rows() != serial.raw.rows():
        raise SystemExit("fig9_sweep: warm-cache curves diverged from serial")
    return {
        "n_tasks": 8,
        "n_sets": 3,
        "utilizations": [0.3, 0.5, 0.7, 0.9],
        "duration": 600.0,
        "cells": cells,
        # Legacy top-level keys describe the serial run (pre-PR-3 schema).
        "wall_seconds": round(serial_s, 6),
        "cells_per_sec": round(cells / serial_s, 2),
        "rm_fallbacks": serial.rm_fallbacks,
        "parallel": {
            "workers": workers,
            "requested_workers": parallel_workers,
            "clamped": workers != parallel_workers,
            "effective_cpus": effective,
            "n_sets": PARALLEL_N_SETS,
            "cells": wide_cells,
            "serial_wall_seconds": round(wide_s, 6),
            "wall_seconds": round(parallel_s, 6),
            "cells_per_sec": round(wide_cells / parallel_s, 2),
            "speedup_vs_serial": round(wide_s / parallel_s, 2),
        },
        "warm_cache": {
            "cold_wall_seconds": round(cold_s, 6),
            "wall_seconds": round(warm_s, 6),
            "cells_per_sec": round(cells / warm_s, 2),
            "cold_simulated_cells": cold.simulated_cells,
            "simulated_cells": warm.simulated_cells,
            "cache_hits": warm.cache_hits,
        },
    }


#: Child snippet for the numpy-free probe: a fresh interpreter runs a
#: small sweep with every paper policy (staticRM/ccRM run the RM
#: response-time analysis at setup) and prints whether numpy ended up in
#: ``sys.modules`` — it must not.
_SCALAR_LAZINESS_SNIPPET = """
import sys
from repro.analysis.sweep import SweepConfig, utilization_sweep
utilization_sweep(SweepConfig(policies=("EDF", "staticEDF", "ccEDF",
                                        "laEDF", "staticRM", "ccRM"),
                              n_tasks=4, n_sets=1, utilizations=(0.5,),
                              duration=50.0, seed=2001))
print("numpy" in sys.modules)
"""


def _scalar_numpy_lazy() -> bool:
    """Whether a fresh scalar-sweep subprocess stays numpy-free."""
    import subprocess
    proc = subprocess.run(
        [sys.executable, "-c", _SCALAR_LAZINESS_SNIPPET],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    return proc.stdout.strip() == "False"


def _event_engine_sweep(config):
    """``config`` swept cell by cell on the discrete-event engine, folded
    by the sweep's own aggregation: the program the scalar engine ran
    before its cells moved to the per-cell kernel, and the denominator
    of the kernel floor."""
    context = sweep_context(config)
    outcomes = [run_cell(context, spec, simulate_fn=simulate)
                for spec in sweep_cell_specs(config)]
    return aggregate_outcomes(config, outcomes)


def bench_fig9_sweep_batch():
    """Column-scale cold sweep: event engine vs a sweep on the kernel.

    1000 cells (the paper's 10 utilization steps x 100 task sets) under
    four paper policies, every run serial and cacheless, so the ratio is
    pure simulation throughput of the per-cell kernel against the
    discrete-event engine run cell by cell.  Both runs must produce
    bit-identical curves.  The entry also records the numpy-free probe
    (see :data:`_SCALAR_LAZINESS_SNIPPET`).
    """
    base = dict(policies=BATCH_WORKLOAD_POLICIES, n_tasks=8, n_sets=100,
                duration=400.0, seed=SEED)
    config = SweepConfig(**base)
    start = time.perf_counter()
    reference = _event_engine_sweep(config)
    engine_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar = utilization_sweep(config)
    scalar_s = time.perf_counter() - start
    if scalar.raw.rows() != reference.raw.rows():
        raise SystemExit("fig9_sweep_batch: scalar engine curves diverged "
                         "from the event engine")
    cells = len(config.utilizations) * config.n_sets
    speedup = round(engine_s / scalar_s, 2)
    return {
        "policies": list(BATCH_WORKLOAD_POLICIES),
        "n_tasks": base["n_tasks"],
        "n_sets": base["n_sets"],
        "utilizations": list(config.utilizations),
        "duration": base["duration"],
        "cells": cells,
        "event_engine": {
            "wall_seconds": round(engine_s, 6),
            "cells_per_sec": round(cells / engine_s, 2),
        },
        "scalar": {
            "wall_seconds": round(scalar_s, 6),
            "cells_per_sec": round(cells / scalar_s, 2),
            "speedup_vs_event_engine": speedup,
        },
        "speedup": speedup,
        "rm_fallbacks": scalar.rm_fallbacks,
        "scalar_numpy_lazy": _scalar_numpy_lazy(),
    }


def check_batch_gates(entry):
    """fig9_sweep_batch regression gates; returns failure strings."""
    failures = []
    if entry["speedup"] < BATCH_TARGET_SPEEDUP:
        failures.append(
            f"fig9_sweep_batch: scalar sweep (per-cell kernel) "
            f"{entry['speedup']}x the event engine, below the "
            f"{BATCH_TARGET_SPEEDUP:g}x cold-sweep floor at "
            f"{entry['cells']} cells")
    violation = numpy_violation("fig9_sweep_batch (scalar subprocess)",
                                imported=not entry["scalar_numpy_lazy"])
    if violation:
        failures.append(violation)
    return failures


def _machine_fingerprint():
    """Identity used to decide whether wall-clock numbers are comparable."""
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def _previous_serial_rate(out_path):
    """(cells_per_sec, fingerprint) from the previous recording, if any."""
    try:
        with open(out_path, encoding="utf-8") as handle:
            previous = json.load(handle)
        entry = previous["workloads"]["fig9_sweep"]
        return entry["cells_per_sec"], previous.get("fingerprint")
    except (OSError, ValueError, KeyError):
        return None, None


def _previous_memory_rss(out_path):
    """(array peak_rss_kb, fingerprint) from the previous recording."""
    try:
        with open(out_path, encoding="utf-8") as handle:
            previous = json.load(handle)
        entry = previous["workloads"]["memory"]
        return (entry["backends"]["array"]["peak_rss_kb"],
                previous.get("fingerprint"))
    except (OSError, ValueError, KeyError):
        return None, None


def check_sweep_gates(entry, previous_rate, previous_fingerprint):
    """Evaluate the fig9_sweep regression gates; returns failure strings."""
    failures = []
    warm = entry["warm_cache"]
    if warm["simulated_cells"] != 0:
        failures.append(
            f"warm-cache rerun simulated {warm['simulated_cells']} cells "
            "(expected 0 — every cell must come from the cache)")
    if warm["cache_hits"] != entry["cells"]:
        failures.append(
            f"warm-cache rerun hit {warm['cache_hits']}/{entry['cells']} "
            "cells")
    parallel = entry["parallel"]
    # Gate on the worker count that actually ran (post-clamp): the clamp
    # already bounded it by the effective CPU budget, so a 1-CPU box
    # records workers=1/clamped=true and skips the speedup gate instead
    # of failing on a physically impossible ratio.
    lanes = min(parallel["workers"], parallel["effective_cpus"])
    if lanes >= PARALLEL_TARGET_CPUS:
        target = PARALLEL_TARGET_SPEEDUP
    elif lanes > 1:
        target = 0.75 * lanes
    else:
        target = None  # one lane: no parallel speedup physically available
    if target is not None and parallel["speedup_vs_serial"] < target:
        failures.append(
            f"parallel speedup {parallel['speedup_vs_serial']:.2f}x below "
            f"the {target:.2f}x target for {lanes} parallel lanes")
    if previous_rate and previous_fingerprint == _machine_fingerprint():
        floor = SERIAL_REGRESSION_FLOOR * previous_rate
        if entry["cells_per_sec"] < floor:
            failures.append(
                f"serial sweep throughput {entry['cells_per_sec']} "
                f"cells/s regressed below {floor:.1f} "
                f"(70% of previous {previous_rate})")
    return failures


#: The ``kernel_per_policy`` cell: catalog fig9, 10-task panel, quick
#: scale, first task set at this utilization (every paper policy is
#: schedulable there, so none takes the RM fallback).
KERNEL_CELL_UTILIZATION = 0.7

#: Timed runs per policy and batch in ``kernel_per_policy``.
KERNEL_CELL_RUNS = 20

#: Batches per policy in ``kernel_per_policy``, run round-robin.
KERNEL_CELL_BATCHES = 11


def bench_kernel_per_policy():
    """Milliseconds per run of each paper policy on one fig9 quick cell.

    Informational (no gate): where a sweep cell's kernel time goes by
    policy.  The policies take turns, one batch of ``KERNEL_CELL_RUNS``
    runs each per round for ``KERNEL_CELL_BATCHES`` rounds, so a drift in
    the host's speed reaches every policy alike.  Each policy's figure is
    the median over its batches, with the quartiles beside it.  The runs
    share the cell's ``cell_params`` row as a sweep cell's runs do, so
    the first run builds the release stream the others walk.
    """
    config = panel_sweep_config("fig9", "10-tasks", quick=True)
    context = sweep_context(config)
    spec = next(spec for spec in sweep_cell_specs(config)
                if spec.utilization == KERNEL_CELL_UTILIZATION)
    taskset, demand = materialize_cell(context, spec)
    params = cell_params(taskset, demand)
    energy_model = context.energy_model()
    batches = {name: [] for name in PAPER_POLICIES}
    releases = 0
    for _ in range(KERNEL_CELL_BATCHES):
        for name in PAPER_POLICIES:
            start = time.perf_counter()
            for _ in range(KERNEL_CELL_RUNS):
                result = batch_simulate(
                    taskset, context.machine, make_policy(name),
                    params=params, demand=demand,
                    duration=context.duration, energy_model=energy_model)
            elapsed = (time.perf_counter() - start) / KERNEL_CELL_RUNS
            batches[name].append(1e3 * elapsed)
            releases = len(result.jobs)
    ms_per_run = {}
    quartiles = {}
    for name, values in batches.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        ms_per_run[name] = round(statistics.median(values), 3)
        quartiles[name] = [round(q1, 3), round(q3, 3)]
    return {"scenario": "fig9", "panel": "10-tasks",
            "utilization": spec.utilization, "set_index": spec.set_index,
            "n_tasks": spec.n_tasks, "duration": context.duration,
            "releases_per_run": releases, "batches": KERNEL_CELL_BATCHES,
            "runs_per_batch": KERNEL_CELL_RUNS, "ms_per_run": ms_per_run,
            "ms_per_run_quartiles": quartiles}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_engine.json")
    parser.add_argument("--parallel-workers", type=int, default=4,
                        help="worker count for the parallel fig9_sweep "
                             "variant (default: 4)")
    args = parser.parse_args(argv)
    previous_rate, previous_fingerprint = _previous_serial_rate(args.out)
    previous_rss, previous_rss_fingerprint = _previous_memory_rss(args.out)

    report = {
        "schema": 3,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fingerprint": _machine_fingerprint(),
        "seed": SEED,
        "repeats": REPEATS,
        "workloads": {},
    }
    for name, n_tasks, policy_name, duration in WORKLOADS:
        print(f"[bench] {name}: {n_tasks} tasks, {policy_name}, "
              f"duration {duration:g} ...", flush=True)
        entry = bench_workload(name, n_tasks, policy_name, duration)
        report["workloads"][name] = entry
        print(f"[bench]   indexed {entry['indexed']['events_per_sec']:,.0f} "
              "ev/s (cell kernel agrees)", flush=True)
        print(f"[bench]   instrumented "
              f"{entry['instrumented']['events_per_sec_cpu']:,.0f} ev/s "
              f"(CPU) vs "
              f"{entry['instrumented']['uninstrumented_events_per_sec_cpu']:,.0f}"
              f" -> overhead {entry['instrumented_overhead_pct']:+.2f}%",
              flush=True)
    print("[bench] policy_callbacks ...", flush=True)
    callback_entry = bench_policy_callbacks()
    report["workloads"]["policy_callbacks"] = callback_entry
    top = str(POLICY_CALLBACK_TASK_COUNTS[-1])
    for name, per_size in callback_entry["policies"].items():
        sized = per_size[top]
        print(f"[bench]   {name} @ {top} tasks: "
              f"{sized['incremental']['per_callback_us']} us/callback "
              f"incremental vs {sized['from_scratch']['per_callback_us']} "
              f"us from-scratch -> {sized['speedup']:.2f}x", flush=True)
    print("[bench] trace_timeline ...", flush=True)
    timeline_entry = bench_trace_timeline()
    report["workloads"]["trace_timeline"] = timeline_entry
    print(f"[bench]   {timeline_entry['slices']} slices: segments "
          f"{timeline_entry['segments']['wall_seconds']:.2f}s vs array "
          f"{timeline_entry['array']['wall_seconds']:.2f}s -> "
          f"{timeline_entry['speedup']:.2f}x "
          f"(blob {timeline_entry['segments']['blob_bytes']} B -> "
          f"{timeline_entry['array']['blob_bytes']} B)", flush=True)
    print("[bench] memory ...", flush=True)
    memory_entry = bench_memory()
    report["workloads"]["memory"] = memory_entry
    print(f"[bench]   peak RSS "
          f"{memory_entry['backends']['segments']['peak_rss_kb']} KB "
          f"(segments) vs "
          f"{memory_entry['backends']['array']['peak_rss_kb']} KB (array) "
          f"-> {memory_entry['rss_reduction_pct']:.1f}% reduction, "
          f"shipped bytes {memory_entry['blob_ratio']:.2f}x smaller",
          flush=True)
    print("[bench] fig9_sweep ...", flush=True)
    sweep_entry = bench_fig9_sweep(args.parallel_workers)
    report["workloads"]["fig9_sweep"] = sweep_entry
    if sweep_entry["parallel"]["clamped"]:
        print(f"[bench]   parallel workers clamped "
              f"{sweep_entry['parallel']['requested_workers']} -> "
              f"{sweep_entry['parallel']['workers']} "
              f"({sweep_entry['parallel']['effective_cpus']} effective "
              "CPUs)", flush=True)
    print(f"[bench]   serial {sweep_entry['cells_per_sec']:.1f} cells/s, "
          f"parallel(x{sweep_entry['parallel']['workers']}, "
          f"{sweep_entry['parallel']['cells']} cells) "
          f"{sweep_entry['parallel']['cells_per_sec']:.1f} cells/s "
          f"({sweep_entry['parallel']['speedup_vs_serial']:.2f}x), "
          f"warm cache {sweep_entry['warm_cache']['cells_per_sec']:.1f} "
          f"cells/s with {sweep_entry['warm_cache']['simulated_cells']} "
          "simulations", flush=True)
    print("[bench] fig9_sweep_batch ...", flush=True)
    batch_entry = bench_fig9_sweep_batch()
    report["workloads"]["fig9_sweep_batch"] = batch_entry
    print(f"[bench]   {batch_entry['cells']} cells: event engine "
          f"{batch_entry['event_engine']['cells_per_sec']:.1f} cells/s vs "
          f"scalar {batch_entry['scalar']['cells_per_sec']:.1f} cells/s "
          f"({batch_entry['speedup']:.2f}x), scalar subprocess "
          f"numpy-free: {batch_entry['scalar_numpy_lazy']}", flush=True)
    print("[bench] kernel_per_policy ...", flush=True)
    kernel_entry = bench_kernel_per_policy()
    report["workloads"]["kernel_per_policy"] = kernel_entry
    print("[bench]   fig9 10-task cell u="
          f"{kernel_entry['utilization']:g}, "
          f"{kernel_entry['releases_per_run']} releases: "
          + ", ".join(
              f"{name} {ms:.2f} ms (IQR {q1:.2f}-{q3:.2f})"
              for (name, ms), (q1, q3) in zip(
                  kernel_entry["ms_per_run"].items(),
                  kernel_entry["ms_per_run_quartiles"].values())),
          flush=True)
    report["peak_rss_kb"] = _peak_rss_kb()

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {args.out}")

    failures = []
    for name, budget in INSTRUMENT_BUDGETS_PCT.items():
        overhead = report["workloads"][name]["instrumented_overhead_pct"]
        print(f"[bench] {name} instrumentation overhead: {overhead:+.2f}% "
              f"(budget {budget:g}%)")
        if overhead > budget:
            failures.append(
                f"{name} instrumentation overhead {overhead:.2f}% exceeds "
                f"the {budget:g}% budget")
    failures.extend(check_callback_gates(callback_entry))
    failures.extend(check_trace_timeline_gates(timeline_entry))
    failures.extend(check_memory_gates(memory_entry, previous_rss,
                                       previous_rss_fingerprint))
    failures.extend(check_sweep_gates(sweep_entry, previous_rate,
                                      previous_fingerprint))
    failures.extend(check_batch_gates(batch_entry))
    for failure in failures:
        print(f"[bench] FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
