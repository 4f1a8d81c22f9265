#!/usr/bin/env python
"""Peak-RSS memory workload: one long-horizon run per trace recorder.

Measures what the array-backed timeline actually buys in resident memory:
a fresh child process per recorder simulates the canonical n=200
long-horizon ccEDF workload with trace recording on, ships the trace the
way the sweep executor would (``SimTimeline.to_bytes`` for the ``array``
side, ``pickle.dumps`` for the ``segments`` side), and reports its own
peak-RSS high-watermark (``VmHWM``, reset at child start
so a large launching parent cannot leak into the figure).  The
``segments`` side is the reference segment-list recorder of
``tests/sim/segment_list.py``, which the child installs on the
:class:`~repro.sim.engine.Simulator` before ``run()``.

A *subprocess* per backend is the only honest way to compare peaks: RSS
never shrinks back after the first backend's allocations, so measuring
both in one process would credit whichever ran second.  The child also
refuses to import numpy — the record path needs none of it, and a stray
30 MB numpy import would drown the very delta being measured (the
``numpy_imported`` flag in the child report feeds the shared
:mod:`benchmarks.numpy_guard` invariant check).

Usage::

    PYTHONPATH=src python benchmarks/mem_workload.py [--out BENCH_mem.json]
    make bench-mem

Parent mode prints a before/after table (peak RSS and bytes shipped per
backend) and writes the raw numbers as JSON.  ``write_bench_json.py``
imports :func:`measure_pair` for its memory regression gates.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.numpy_guard import numpy_imported, numpy_violation  # noqa: E402

#: Canonical memory workload: the largest paper-scale task count over a
#: long horizon, under the policy with the densest switching (ccEDF), so
#: the trace — not the task set — dominates the heap.
N_TASKS = 200
DURATION = 6400.0
UTILIZATION = 0.7
DEMAND = 0.8
SEED = 2001

BACKENDS = ("segments", "array")

#: Peak-RSS reduction floor (percent) the array backend must deliver over
#: the segment-list backend; ``--gate`` and ``write_bench_json.py`` both
#: enforce it.
RSS_TARGET_REDUCTION_PCT = 30.0


def _reset_peak_rss() -> None:
    """Reset this process's peak-RSS high-watermark (Linux only).

    A forked child inherits the parent's resident set at spawn time, so
    when a large parent (``write_bench_json.py``) launches the workers,
    ``ru_maxrss`` starts at the *parent's* footprint and both backends
    report the same inherited number.  Writing ``5`` to
    ``/proc/self/clear_refs`` resets ``VmHWM`` so the watermark reflects
    only this process's own allocations.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_kb() -> int:
    """This process's peak RSS in KB — ``VmHWM`` (honours the reset
    above) with an ``ru_maxrss`` fallback off Linux."""
    import resource

    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _install_reference_recorder(sim) -> None:
    """Swap the reference segment-list recorder into ``sim`` (both the
    trace the result carries and the engine's cached bound ``record``)."""
    from tests.sim.segment_list import SegmentList

    sim._trace = SegmentList()
    sim._trace_record = sim._trace.record


def _child(args) -> int:
    """Run one backend's workload in this (fresh) process; print JSON."""
    _reset_peak_rss()

    from repro.core.cycle_conserving import CycleConservingEDF
    from repro.hw.machine import machine0
    from repro.model.generator import TaskSetGenerator
    from repro.sim.engine import Simulator

    taskset = TaskSetGenerator(n_tasks=args.n_tasks,
                               utilization=UTILIZATION,
                               seed=SEED).generate()
    sim = Simulator(taskset, machine0(), CycleConservingEDF(),
                    demand=DEMAND, duration=args.duration, on_miss="drop",
                    record_trace=True)
    if args.backend == "segments":
        _install_reference_recorder(sim)
    start = time.perf_counter()
    result = sim.run()
    sim_seconds = time.perf_counter() - start

    start = time.perf_counter()
    if args.backend == "array":
        blob = result.trace.to_bytes()
    else:
        import pickle
        blob = pickle.dumps(result.trace)
    ship_seconds = time.perf_counter() - start

    report = {
        "backend": args.backend,
        "n_tasks": args.n_tasks,
        "duration": args.duration,
        "rows": len(result.trace),
        "jobs": len(result.jobs),
        "energy": result.total_energy,
        "switches": result.switches,
        "sim_seconds": round(sim_seconds, 6),
        "ship_seconds": round(ship_seconds, 6),
        "blob_bytes": len(blob),
        "peak_rss_kb": _peak_rss_kb(),
        "numpy_imported": numpy_imported(),
        # The record path must not *use* numpy either; same signal as the
        # import check, recorded explicitly so BENCH_mem.json states it.
        "numpy_used": numpy_imported(),
    }
    json.dump(report, sys.stdout)
    print()
    return 0


def measure(backend: str, n_tasks: int = N_TASKS,
            duration: float = DURATION) -> dict:
    """Spawn a fresh child for one backend and return its report."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--backend", backend, "--n-tasks", str(n_tasks),
         "--duration", str(duration)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    return json.loads(proc.stdout)


def measure_pair(n_tasks: int = N_TASKS, duration: float = DURATION) -> dict:
    """Both backends' child reports plus the derived comparison figures."""
    reports = {backend: measure(backend, n_tasks, duration)
               for backend in BACKENDS}
    segments, array = reports["segments"], reports["array"]
    if segments["energy"] != array["energy"] \
            or segments["rows"] != array["rows"]:
        raise SystemExit(
            "mem_workload: backends diverged — "
            f"segments (E={segments['energy']}, rows={segments['rows']}) "
            f"vs array (E={array['energy']}, rows={array['rows']})")
    reduction = 100.0 * (1.0 - array["peak_rss_kb"]
                         / segments["peak_rss_kb"])
    return {
        "n_tasks": n_tasks,
        "duration": duration,
        "backends": reports,
        "rss_reduction_pct": round(reduction, 2),
        "blob_ratio": round(segments["blob_bytes"]
                            / array["blob_bytes"], 3),
    }


def render_table(pair: dict) -> str:
    """The before/after table ``make bench-mem`` prints."""
    lines = [
        f"memory workload: n_tasks={pair['n_tasks']} "
        f"duration={pair['duration']:g} ccEDF (one child per backend)",
        f"{'backend':<10} {'rows':>8} {'peak RSS':>12} "
        f"{'shipped':>12} {'sim':>8} {'ship':>8}",
    ]
    for backend in BACKENDS:
        entry = pair["backends"][backend]
        lines.append(
            f"{backend:<10} {entry['rows']:>8} "
            f"{entry['peak_rss_kb']:>9} KB "
            f"{entry['blob_bytes'] // 1024:>9} KB "
            f"{entry['sim_seconds']:>7.2f}s {entry['ship_seconds']:>7.3f}s")
    lines.append(
        f"peak-RSS reduction {pair['rss_reduction_pct']:.1f}% · "
        f"shipped bytes {pair['blob_ratio']:.2f}x smaller")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true",
                        help="internal: run one backend in this process")
    parser.add_argument("--backend", choices=BACKENDS, default="array")
    parser.add_argument("--n-tasks", type=int, default=N_TASKS)
    parser.add_argument("--duration", type=float, default=DURATION)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_mem.json")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero unless the array backend cuts "
                             f"peak RSS by >= {RSS_TARGET_REDUCTION_PCT:g}%%")
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    pair = measure_pair(args.n_tasks, args.duration)
    print(render_table(pair))
    args.out.write_text(json.dumps(pair, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.gate:
        for backend, report in pair["backends"].items():
            violation = numpy_violation(f"{backend} record path",
                                        imported=report["numpy_imported"])
            if violation:
                print(f"FAIL: {violation}")
                return 1
        if pair["rss_reduction_pct"] < RSS_TARGET_REDUCTION_PCT:
            print(f"FAIL: peak-RSS reduction {pair['rss_reduction_pct']}% "
                  f"below the {RSS_TARGET_REDUCTION_PCT:g}% floor")
            return 1
        print(f"gate OK: reduction {pair['rss_reduction_pct']}% >= "
              f"{RSS_TARGET_REDUCTION_PCT:g}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
