#!/usr/bin/env python
"""Service-tier performance: HTTP sweep serving -> BENCH_service.json.

Runs the sweep service (``rtdvs serve``) on an ephemeral loopback port —
the real asyncio server with the real blocking client, not an in-process
shortcut — and records three workloads in ``BENCH_service.json`` at the
repository root:

* ``warm_http`` — a 500-cell inline sweep served twice: once cold (to
  populate the CTR1 cell cache) and then repeatedly warm.  The warm
  requests must simulate nothing, and the best warm pass must clear the
  cache-first read path's throughput floor over HTTP, streaming
  included.
* ``dedup`` — K identical requests submitted concurrently from K client
  threads against a cold cache.  Single-flight coalescing must hold the
  cluster-wide simulation count to exactly one request's worth of
  cells, with every request still accounting for every cell.
* ``parity`` — a catalog panel (fig9 / 5-tasks, quick) served cold over
  HTTP against a direct in-process :func:`utilization_sweep` of the
  same config, timed as :data:`PARITY_REPEATS` alternating pairs (a
  fresh service and cache each time, the process's RTA and generator
  memos emptied before every leg).  The streamed raw and normalized
  tables must match the in-process rows bit for bit (JSON round-trips
  doubles exactly, so ``==`` is a bit-identity check).
* ``distributed`` — a cold sweep fanned out to :data:`DIST_WORKERS`
  loopback ``rtdvs worker`` subprocesses (one of them running with
  ``RTDVS_NO_NUMPY=1``, so the mixed fleet doubles as a no-numpy
  differential) vs the same sweep in-process, timed as
  :data:`DIST_REPEATS` alternating pairs (a fresh fleet each time, the
  in-process memos emptied before each in-process run), plus a further
  fleet where one worker is SIGKILLed mid-sweep.  Every distributed
  result must be bit-identical to the in-process rows with every cell
  delivered exactly once.

Usage::

    PYTHONPATH=src python benchmarks/service_workload.py \
        [--out PATH] [--only WORKLOAD]...
    make bench-service       # all workloads
    make bench-dist          # --only distributed (merges into --out)

``--only`` runs a subset and merges its entries into an existing
``--out`` report, leaving the other workloads' numbers untouched.

Regression gates (non-zero exit on violation; each gate applies only
when its workload was run):

* ``warm_http`` warm throughput must reach
  :data:`WARM_FLOOR_CELLS_PER_SEC` cells/s with zero simulations;
* ``dedup`` total simulated cells across K concurrent identical
  requests must equal one request's worth;
* ``parity`` tables must be bit-identical to the in-process sweep
  (checked inline — divergence aborts the run before any JSON is
  written), and the median cold served wall time must stay within
  :data:`OVERHEAD_CEILING_PCT` percent of the median in-process sweep;
* ``distributed`` must deliver every cell exactly once in both the
  clean and the worker-kill runs (bit-identity checked inline), and the
  median clean fan-out must clear :data:`DIST_SPEEDUP_FLOOR` x over the
  median in-process run when the box has at least :data:`DIST_WORKERS`
  CPUs — on smaller boxes the floor is clamped proportionally to the
  effective lanes (``min(workers, cpus)``), since loopback workers
  cannot beat the physical core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import sweep  # noqa: E402
from repro.analysis.cellcache import CellCache  # noqa: E402
from repro.analysis.sweep import utilization_sweep  # noqa: E402
from repro.catalog import panel_sweep_config  # noqa: E402
from repro.catalog.schema import PanelSpec  # noqa: E402
from repro.dist import RemoteCellExecutor  # noqa: E402
from repro.model import schedulability  # noqa: E402
from repro.service import (ServiceThread, SweepService,  # noqa: E402
                           SweepServiceClient, TenantQuotas)

SEED = 2001

#: Warm (cache-first) HTTP serving floor, cells per second, measured on
#: the best of :data:`WARM_REPEATS` fully-warm requests.
WARM_FLOOR_CELLS_PER_SEC = 1000.0

#: Warm workload: 20 utilization points x 25 sets = 500 cells, small
#: enough (3 tasks, 100 s horizon) that the cold populating pass stays
#: in seconds while the warm passes exercise a real 500-entry cache.
WARM_SPEC = {
    "n_tasks": 3,
    "n_sets_quick": 25,
    "duration_quick": 100.0,
    "seed": SEED,
    "utilizations": [round(0.05 + 0.9 * i / 19, 4) for i in range(20)],
}
WARM_CELLS = 20 * 25
WARM_REPEATS = 3

#: Dedup workload: K identical concurrent requests over a 4-cell spec.
DEDUP_K = 4
DEDUP_SPEC = {
    "n_tasks": 3,
    "n_sets_quick": 2,
    "duration_quick": 200.0,
    "seed": SEED,
    "utilizations": [0.5, 0.9],
}
DEDUP_CELLS = 2 * 2

#: Parity workload: one catalog panel, quick scale (80 cells).  The CI
#: smoke (``benchmarks/service_smoke.py``) covers the full fig9 scenario
#: through a real ``rtdvs serve`` subprocess.
PARITY_SCENARIO = "fig9"
PARITY_PANEL = "5-tasks"

#: Ceiling on cold served-vs-in-process wall-time overhead (percent).
OVERHEAD_CEILING_PCT = 15.0
#: Alternating (in-process, served) timing pairs; the parity gate
#: compares their medians, since one pair swings across the ceiling on a
#: shared host.
PARITY_REPEATS = 3

#: Distributed workload: loopback worker fleet size, and the cold-sweep
#: speedup the fleet must deliver over in-process when the box actually
#: has that many CPUs.  Cells are deliberately meaty (5 tasks, 1000 s
#: horizon, ~25 ms each on a 2-CPU x86_64 host) so the wire cost and
#: each fresh worker's fixed start-up work (the numpy import its first
#: RM response-time analysis pays) stay small against the sweep.  The
#: horizon doubled when the per-cell kernel got ~2x faster; at 500 s
#: those fixed costs held the fleet below its floor.
DIST_WORKERS = 4
DIST_SPEEDUP_FLOOR = 2.5
#: Alternating (in-process, fresh fleet) timing pairs; the gate compares
#: their medians, since a single pair swings across the floor on a
#: shared host.
DIST_REPEATS = 3
DIST_SPEC = {
    "n_tasks": 5,
    "n_sets_quick": 8,
    "duration_quick": 1000.0,
    "seed": SEED,
    "utilizations": [round(0.3 + 0.08 * i, 4) for i in range(8)],
}
DIST_CELLS = 8 * 8


def _fresh_service(tmp):
    cache = CellCache(os.path.join(tmp, "cells"))
    return SweepService(cache=cache,
                        quotas=TenantQuotas(max_inflight=DEDUP_K * 2))


def bench_warm_http():
    """Cold-populate 500 cells, then time fully-warm HTTP serving."""
    with tempfile.TemporaryDirectory() as tmp:
        with ServiceThread(_fresh_service(tmp)) as handle:
            client = SweepServiceClient(port=handle.port)
            start = time.perf_counter()
            cold = client.submit_collect({"spec": WARM_SPEC})
            cold_s = time.perf_counter() - start
            if cold["done"]["simulated_cells"] != WARM_CELLS:
                raise SystemExit(
                    f"warm_http: cold pass simulated "
                    f"{cold['done']['simulated_cells']}/{WARM_CELLS} cells")
            best_s = None
            warm = None
            for _ in range(WARM_REPEATS):
                start = time.perf_counter()
                warm = client.submit_collect({"spec": WARM_SPEC})
                elapsed = time.perf_counter() - start
                best_s = elapsed if best_s is None else min(best_s, elapsed)
                if warm["done"]["simulated_cells"] != 0:
                    raise SystemExit(
                        f"warm_http: warm pass simulated "
                        f"{warm['done']['simulated_cells']} cells "
                        "(expected 0)")
            if warm["results"][0]["raw"] != cold["results"][0]["raw"]:
                raise SystemExit(
                    "warm_http: warm tables diverged from the cold pass")
    return {
        "cells": WARM_CELLS,
        "n_tasks": WARM_SPEC["n_tasks"],
        "duration": WARM_SPEC["duration_quick"],
        "cold_wall_seconds": round(cold_s, 6),
        "cold_cells_per_sec": round(WARM_CELLS / cold_s, 1),
        "warm_wall_seconds": round(best_s, 6),
        "warm_cells_per_sec": round(WARM_CELLS / best_s, 1),
        "warm_repeats": WARM_REPEATS,
        "warm_simulated_cells": warm["done"]["simulated_cells"],
        "warm_cache_hits": warm["done"]["cache_hits"],
    }


def bench_dedup():
    """K identical concurrent requests must simulate one request's worth."""
    dones = []
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        service = _fresh_service(tmp)
        with ServiceThread(service) as handle:
            def submit():
                try:
                    client = SweepServiceClient(port=handle.port)
                    dones.append(
                        client.submit_collect({"spec": DEDUP_SPEC})["done"])
                except Exception as exc:
                    failures.append(repr(exc))

            start = time.perf_counter()
            threads = [threading.Thread(target=submit)
                       for _ in range(DEDUP_K)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - start
        flight = service.single_flight.stats()
    if failures:
        raise SystemExit(f"dedup: request failures: {failures}")
    if len(dones) != DEDUP_K:
        raise SystemExit(f"dedup: only {len(dones)}/{DEDUP_K} requests "
                         "completed")
    per_request = [(d["simulated_cells"], d["coalesced_cells"],
                    d["cache_hits"]) for d in dones]
    for simulated, coalesced, hits in per_request:
        if simulated + coalesced + hits != DEDUP_CELLS:
            raise SystemExit(
                f"dedup: a request accounted for "
                f"{simulated + coalesced + hits}/{DEDUP_CELLS} cells")
    return {
        "concurrent_requests": DEDUP_K,
        "cells_per_request": DEDUP_CELLS,
        "wall_seconds": round(elapsed, 6),
        "total_simulated_cells": sum(d["simulated_cells"] for d in dones),
        "total_coalesced_cells": sum(d["coalesced_cells"] for d in dones),
        "total_cache_hits": sum(d["cache_hits"] for d in dones),
        "single_flight": flight,
    }


def _served_run():
    """One cold served sweep of the parity panel: a fresh service and
    cell cache, the per-process memos emptied first (the service runs in
    this process).  Returns ``(result, seconds)``."""
    _clear_memos()
    with tempfile.TemporaryDirectory() as tmp:
        with ServiceThread(_fresh_service(tmp)) as handle:
            client = SweepServiceClient(port=handle.port)
            start = time.perf_counter()
            served = client.submit_collect({"scenario": PARITY_SCENARIO,
                                            "panel": PARITY_PANEL})
            return served["results"][0], time.perf_counter() - start


def bench_parity():
    """Cold HTTP serving vs direct in-process sweep, bit for bit:
    :data:`PARITY_REPEATS` alternating pairs, medians gated."""
    config = panel_sweep_config(PARITY_SCENARIO, PARITY_PANEL, quick=True)
    direct_samples, served_samples = [], []
    for _ in range(PARITY_REPEATS):
        direct, seconds = _in_process_run(config)
        direct_samples.append(seconds)
        result, seconds = _served_run()
        served_samples.append(seconds)
        for name, streamed, local in (
                ("raw", result["raw"], direct.raw.rows()),
                ("normalized", result["normalized"],
                 direct.normalized.rows())):
            if streamed != local:
                raise SystemExit(
                    f"parity: streamed {name} tables diverged from the "
                    "in-process sweep")
        if result["xs"] != list(direct.raw.xs):
            raise SystemExit("parity: utilization axis diverged")
    direct_s = statistics.median(direct_samples)
    served_s = statistics.median(served_samples)
    return {
        "scenario": PARITY_SCENARIO,
        "panel": PARITY_PANEL,
        "cells": len(config.utilizations) * config.n_sets,
        "repeats": PARITY_REPEATS,
        "direct_wall_seconds": round(direct_s, 6),
        "served_wall_seconds": round(served_s, 6),
        "direct_samples": [round(x, 6) for x in direct_samples],
        "served_samples": [round(x, 6) for x in served_samples],
        "serving_overhead_pct": round(
            100.0 * (served_s / direct_s - 1.0), 1),
        "bit_identical": True,
    }


def _dist_config():
    return PanelSpec.from_dict(dict(DIST_SPEC, label="inline")) \
        .sweep_config(quick=True)


def _spawn_workers(executor, count):
    """Launch ``count`` rtdvs worker subprocesses against ``executor``.

    Worker 0 runs with ``RTDVS_NO_NUMPY=1`` so every fleet is a mixed
    numpy/pure-python differential: bit-identity of the merged result
    proves the two kernel paths agree over the wire.
    """
    procs = []
    for index in range(count):
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        if index == 0:
            env["RTDVS_NO_NUMPY"] = "1"
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{executor.host}:{executor.port}", "--quiet"],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
    return procs


def _reap_workers(procs):
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _check_dist_run(leg, result, raw, normalized):
    if result.raw.rows() != raw or result.normalized.rows() != normalized:
        raise SystemExit(
            f"distributed: {leg} tables diverged from in-process")
    if result.simulated_cells != DIST_CELLS:
        raise SystemExit(
            f"distributed: {leg} delivered {result.simulated_cells}"
            f"/{DIST_CELLS} cells")


def _clear_memos():
    """Empty the per-process RTA and task-set generator memos."""
    schedulability._rta_memo_clear()
    sweep._GENERATOR_MEMO.clear()


def _in_process_run(config):
    """One cold in-process sweep: the per-process RTA and task-set
    generator memos are emptied first, as a fresh fleet's workers start
    without them.  Returns ``(result, seconds)``."""
    _clear_memos()
    start = time.perf_counter()
    result = utilization_sweep(config)
    return result, time.perf_counter() - start


def _fleet_run(config):
    """One sweep on a freshly started fleet.  Returns ``(result,
    seconds, ipc_bytes)``; the fleet's startup is not timed."""
    executor = RemoteCellExecutor()
    procs = _spawn_workers(executor, DIST_WORKERS)
    try:
        if not executor.wait_for_workers(DIST_WORKERS, timeout=60):
            raise SystemExit("distributed: worker fleet failed to connect")
        start = time.perf_counter()
        result = utilization_sweep(config, executor=executor)
        return result, time.perf_counter() - start, executor.ipc_bytes
    finally:
        executor.shutdown()
        _reap_workers(procs)


def bench_distributed():
    """Cold fan-out to a loopback worker fleet vs in-process:
    :data:`DIST_REPEATS` alternating clean pairs (timed, medians gated),
    then once with a worker SIGKILLed mid-sweep."""
    config = _dist_config()
    raw = normalized = None
    direct_samples, dist_samples = [], []
    for _ in range(DIST_REPEATS):
        direct, seconds = _in_process_run(config)
        direct_samples.append(seconds)
        if raw is None:
            raw, normalized = direct.raw.rows(), direct.normalized.rows()
        elif direct.raw.rows() != raw \
                or direct.normalized.rows() != normalized:
            raise SystemExit("distributed: in-process repeats diverged")
        dist, seconds, ipc_bytes = _fleet_run(config)
        _check_dist_run("fan-out", dist, raw, normalized)
        dist_samples.append(seconds)
    direct_s = statistics.median(direct_samples)
    dist_s = statistics.median(dist_samples)

    # Worker-kill leg: same fleet, one worker SIGKILLed mid-sweep.  The
    # dropped connection releases its lease; survivors re-run the lost
    # cells; the result must still deliver every cell exactly once.
    executor = RemoteCellExecutor()
    procs = _spawn_workers(executor, DIST_WORKERS)
    box = {}
    try:
        if not executor.wait_for_workers(DIST_WORKERS, timeout=60):
            raise SystemExit("distributed: kill-leg fleet failed to connect")

        def run():
            try:
                box["result"] = utilization_sweep(config, executor=executor)
            except BaseException as exc:
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # Kill a numpy worker (not worker 0) once the sweep is underway.
        time.sleep(max(0.2, 0.25 * dist_s))
        procs[1].kill()
        thread.join(timeout=300)
        if thread.is_alive():
            raise SystemExit("distributed: kill-leg sweep did not finish")
        if "error" in box:
            raise SystemExit(
                f"distributed: kill-leg sweep failed: {box['error']!r}")
        kill = box["result"]
        kill_duplicates = executor.duplicates_dropped
    finally:
        executor.shutdown()
        _reap_workers(procs)
    _check_dist_run("worker-kill", kill, raw, normalized)

    lanes = max(1, min(DIST_WORKERS, os.cpu_count() or 1))
    floor = DIST_SPEEDUP_FLOOR if lanes >= DIST_WORKERS \
        else round(DIST_SPEEDUP_FLOOR * lanes / DIST_WORKERS, 3)
    return {
        "cells": DIST_CELLS,
        "workers": DIST_WORKERS,
        "no_numpy_workers": 1,
        "effective_lanes": lanes,
        "repeats": DIST_REPEATS,
        "in_process_wall_seconds": round(direct_s, 6),
        "distributed_wall_seconds": round(dist_s, 6),
        "in_process_samples": [round(x, 6) for x in direct_samples],
        "distributed_samples": [round(x, 6) for x in dist_samples],
        "speedup": round(direct_s / dist_s, 3),
        "speedup_floor_effective": floor,
        "simulated_cells": dist.simulated_cells,
        "workers_used": dist.workers_used,
        "retries": dist.retries,
        "ipc_bytes": ipc_bytes,
        "bit_identical": True,
        "kill": {
            "simulated_cells": kill.simulated_cells,
            "lost_cells": DIST_CELLS - kill.simulated_cells,
            "retries": kill.retries,
            "duplicates_dropped": kill_duplicates,
            "workers_used": kill.workers_used,
            "bit_identical": True,
        },
    }


def check_service_gates(report):
    """Service regression gates; returns failure strings.

    Each gate applies only to workloads present in the report, so a
    ``--only`` run is gated on exactly what it measured.
    """
    failures = []
    warm = report["workloads"].get("warm_http")
    if warm:
        if warm["warm_cells_per_sec"] < WARM_FLOOR_CELLS_PER_SEC:
            failures.append(
                f"warm_http: {warm['warm_cells_per_sec']} cells/s below the "
                f"{WARM_FLOOR_CELLS_PER_SEC:g} cells/s warm serving floor")
        if warm["warm_simulated_cells"] != 0:
            failures.append(
                f"warm_http: warm pass simulated "
                f"{warm['warm_simulated_cells']} cells (expected 0)")
    dedup = report["workloads"].get("dedup")
    if dedup and dedup["total_simulated_cells"] != dedup["cells_per_request"]:
        failures.append(
            f"dedup: {dedup['concurrent_requests']} identical concurrent "
            f"requests simulated {dedup['total_simulated_cells']} cells "
            f"(expected exactly {dedup['cells_per_request']} — one "
            "request's worth)")
    parity = report["workloads"].get("parity")
    if parity and parity["serving_overhead_pct"] > OVERHEAD_CEILING_PCT:
        failures.append(
            f"parity: {parity['serving_overhead_pct']:+.1f}% served-vs-"
            f"in-process overhead above the {OVERHEAD_CEILING_PCT:g}% "
            "ceiling")
    dist = report["workloads"].get("distributed")
    if dist:
        if dist["speedup"] < dist["speedup_floor_effective"]:
            failures.append(
                f"distributed: {dist['speedup']}x fan-out speedup below "
                f"the {dist['speedup_floor_effective']}x floor "
                f"({dist['effective_lanes']} effective lane(s))")
        if dist["simulated_cells"] != dist["cells"]:
            failures.append(
                f"distributed: fan-out delivered {dist['simulated_cells']}"
                f"/{dist['cells']} cells")
        if dist["kill"]["lost_cells"] != 0:
            failures.append(
                f"distributed: worker-kill run lost "
                f"{dist['kill']['lost_cells']} cell(s)")
    return failures


def _machine_fingerprint():
    return {"machine": platform.machine(), "cpus": os.cpu_count() or 1}


WORKLOADS = ("warm_http", "dedup", "parity", "distributed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_service.json")
    parser.add_argument("--only", action="append", choices=WORKLOADS,
                        metavar="WORKLOAD",
                        help="run a subset (repeatable); entries merge "
                             "into an existing --out report")
    args = parser.parse_args(argv)
    selected = set(args.only or WORKLOADS)

    report = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fingerprint": _machine_fingerprint(),
        "seed": SEED,
        "warm_floor_cells_per_sec": WARM_FLOOR_CELLS_PER_SEC,
        "overhead_ceiling_pct": OVERHEAD_CEILING_PCT,
        "workloads": {},
    }
    if args.only and args.out.exists():
        # Partial run: keep the other workloads' recorded numbers.
        report["workloads"] = json.loads(
            args.out.read_text()).get("workloads", {})

    if "warm_http" in selected:
        print(f"[bench] warm_http: {WARM_CELLS} cells over HTTP ...",
              flush=True)
        warm_entry = bench_warm_http()
        report["workloads"]["warm_http"] = warm_entry
        print(f"[bench]   cold {warm_entry['cold_cells_per_sec']:.0f} "
              f"cells/s, warm {warm_entry['warm_cells_per_sec']:.0f} "
              f"cells/s (floor {WARM_FLOOR_CELLS_PER_SEC:g}), warm "
              f"simulations {warm_entry['warm_simulated_cells']}",
              flush=True)

    if "dedup" in selected:
        print(f"[bench] dedup: {DEDUP_K} identical concurrent requests "
              "...", flush=True)
        dedup_entry = bench_dedup()
        report["workloads"]["dedup"] = dedup_entry
        print(f"[bench]   simulated {dedup_entry['total_simulated_cells']} "
              f"cells total (one request = {DEDUP_CELLS}), coalesced "
              f"{dedup_entry['total_coalesced_cells']}, cache hits "
              f"{dedup_entry['total_cache_hits']}", flush=True)

    if "parity" in selected:
        print(f"[bench] parity: {PARITY_SCENARIO}/{PARITY_PANEL} quick, "
              "served vs in-process ...", flush=True)
        parity_entry = bench_parity()
        report["workloads"]["parity"] = parity_entry
        print(f"[bench]   {parity_entry['cells']} cells, median of "
              f"{parity_entry['repeats']} pairs: in-process "
              f"{parity_entry['direct_wall_seconds']:.2f}s vs served "
              f"{parity_entry['served_wall_seconds']:.2f}s "
              f"({parity_entry['serving_overhead_pct']:+.1f}% overhead), "
              "tables bit-identical", flush=True)

    if "distributed" in selected:
        print(f"[bench] distributed: {DIST_CELLS} cells, "
              f"{DIST_WORKERS} loopback workers (one RTDVS_NO_NUMPY=1) "
              "vs in-process, then a worker-kill run ...", flush=True)
        dist_entry = bench_distributed()
        report["workloads"]["distributed"] = dist_entry
        kill = dist_entry["kill"]
        print(f"[bench]   in-process "
              f"{dist_entry['in_process_wall_seconds']:.2f}s vs "
              f"{dist_entry['workers_used']} workers "
              f"{dist_entry['distributed_wall_seconds']:.2f}s = "
              f"{dist_entry['speedup']}x (floor "
              f"{dist_entry['speedup_floor_effective']}x on "
              f"{dist_entry['effective_lanes']} lane(s)); kill run: "
              f"{kill['simulated_cells']}/{DIST_CELLS} cells, "
              f"{kill['retries']} retried, "
              f"{kill['duplicates_dropped']} duplicates dropped",
              flush=True)

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {args.out}")

    # Gate only what this invocation measured; merged-in entries from a
    # previous run were gated when they were produced.
    failures = check_service_gates({
        "workloads": {name: entry
                      for name, entry in report["workloads"].items()
                      if name in selected}})
    for failure in failures:
        print(f"[bench] FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
