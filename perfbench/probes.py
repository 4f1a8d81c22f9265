"""Where the benchmark's spans go in the program, and the per-layer metrics
they add up to.

:func:`install` wraps the public functions and methods at each layer
boundary of ``repro``, plus two private ones where no public name covers
the work: ``repro.analysis.sweep._aggregate``, the one fold every sweep
and service result runs through, and
``repro.service.server.SweepService._encode_result``, which serializes
the service's result tables.
:func:`layer_metrics` turns a tracer's sums into the per-layer metrics
listed in :data:`PER_LAYER`, each per benchmark request.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Span name -> (self-time metric, call-count metric or None,
#: amount metric or None).  Times and counts are reported per request.
SPANS: Dict[str, Tuple[str, Optional[str], Optional[str]]] = {
    "model.generate": ("model.generate_s", "model.tasksets", None),
    "core.setup": ("core.setup_s", None, None),
    "core.callback": ("core.callback_s", "core.callbacks", None),
    "sim.engine": ("sim.engine_s", "sim.engine_runs", None),
    "sim.block_kernel": ("sim.block_kernel_s", None, "sim.block_lanes"),
    "sim.bound": ("sim.bound_s", None, None),
    "obs.collector": ("obs.collector_s", None, None),
    "analysis.materialize": ("analysis.materialize_s", None, None),
    "analysis.cache_get": ("analysis.cache_get_s", "analysis.cache_gets",
                           None),
    "analysis.cache_put": ("analysis.cache_put_s", "analysis.cache_puts",
                           None),
    "analysis.transport_encode": ("analysis.transport_encode_s", None,
                                  "analysis.transport_bytes"),
    "analysis.transport_decode": ("analysis.transport_decode_s", None,
                                  "analysis.transport_bytes"),
    "analysis.aggregate": ("analysis.aggregate_s", None, None),
    "catalog.resolve": ("catalog.resolve_s", None, None),
    "service.parse": ("service.parse_s", None, None),
    "service.encode": ("service.encode_s", None, None),
    "dist.frame": ("dist.frame_s", "dist.frames", None),
    "dist.wait": ("dist.wait_s", None, None),
}

#: Block-engine fallback reasons reported one by one; any other reason
#: is summed into ``sim.block_fallback.other``.
FALLBACK_REASONS = ("instrumented", "unsupported-policy", "schedulability",
                    "deadline-miss", "small-block", "no-numpy")

#: Every per-layer metric: (name, unit, better).  ``run.py --trace 1``
#: prints exactly these, on every workload (0 where a layer does not run).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("model.generate_s", "s", "lower"),
    ("model.tasksets", "count", "lower"),
    ("core.setup_s", "s", "lower"),
    ("core.callback_s", "s", "lower"),
    ("core.callbacks", "count", "lower"),
    ("sim.engine_s", "s", "lower"),
    ("sim.engine_runs", "count", "lower"),
    ("sim.block_kernel_s", "s", "lower"),
    ("sim.block_lanes", "count", "higher"),
    ("sim.block_lane_frac", "ratio", "higher"),
    *[(f"sim.block_fallback.{reason}", "count", "lower")
      for reason in FALLBACK_REASONS + ("other",)],
    ("sim.bound_s", "s", "lower"),
    ("obs.collector_s", "s", "lower"),
    ("analysis.materialize_s", "s", "lower"),
    ("analysis.cache_get_s", "s", "lower"),
    ("analysis.cache_gets", "count", "lower"),
    ("analysis.cache_hit_frac", "ratio", "higher"),
    ("analysis.cache_put_s", "s", "lower"),
    ("analysis.cache_puts", "count", "lower"),
    ("analysis.transport_encode_s", "s", "lower"),
    ("analysis.transport_decode_s", "s", "lower"),
    ("analysis.transport_bytes", "bytes", "lower"),
    ("analysis.aggregate_s", "s", "lower"),
    ("catalog.resolve_s", "s", "lower"),
    ("service.parse_s", "s", "lower"),
    ("service.encode_s", "s", "lower"),
    ("service.server_request_s", "s", "lower"),
    ("service.client_s", "s", "lower"),
    ("service.result_reuses", "count", "higher"),
    ("service.coalesced_cells", "count", "higher"),
    ("service.bytes_streamed", "bytes", "lower"),
    ("service.errors", "count", "lower"),
    ("service.dedup_join_frac", "ratio", "higher"),
    ("dist.frame_s", "s", "lower"),
    ("dist.frames", "count", "lower"),
    ("dist.wait_s", "s", "lower"),
    ("dist.ipc_bytes", "bytes", "lower"),
    ("dist.retries", "count", "lower"),
    ("dist.duplicates_dropped", "count", "lower"),
    ("dist.cells_per_lease", "count", "higher"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_POLICY_HOOKS = ("on_release", "on_completion", "on_idle",
                 "on_releases_invalidate", "on_task_added",
                 "on_task_removed", "on_wakeup")


def _size_of(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray)) else 0


def _policy_classes() -> Iterable[type]:
    """Every concrete DVS policy class, without the abstract base."""
    importlib.import_module("repro.core")
    base = importlib.import_module("repro.core.base").DVSPolicy
    seen, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    mod = importlib.import_module
    for name in ("repro.analysis.sweep", "repro.analysis.batch",
                 "repro.analysis.executor", "repro.analysis.cellcache",
                 "repro.analysis.transport", "repro.catalog",
                 "repro.service.server", "repro.service.protocol",
                 "repro.dist.coordinator", "repro.obs.metrics"):
        mod(name)
    sweep = mod("repro.analysis.sweep")
    batch = mod("repro.analysis.batch")
    patch, method = tracer.patch, tracer.patch_method

    # repro.model
    method(mod("repro.model.generator").TaskSetGenerator, "generate",
           "model.generate")
    # repro.core: setup (RM response-time analysis included) and the
    # per-event hooks, which only update sums (millions of calls).
    for cls in _policy_classes():
        if "setup" in cls.__dict__:
            method(cls, "setup", "core.setup")
        for hook in _POLICY_HOOKS:
            if hook in cls.__dict__:
                method(cls, hook, "core.callback", record=False)
    # repro.sim
    patch(mod("repro.sim.engine"), "simulate", "sim.engine")
    patch(mod("repro.sim.batch_kernels"), "kernel_simulate", "sim.engine")
    patch(mod("repro.sim.block_kernels"), "run_lanes", "sim.block_kernel",
          amount=lambda args, kwargs, result: len(
              args[2] if len(args) > 2 else kwargs.get("lanes", ())))
    bound = mod("repro.sim.bound")
    patch(bound, "theoretical_bound", "sim.bound")
    patch(bound, "minimum_energy_for_cycles", "sim.bound")
    # repro.obs: the residency collector's hooks and its lazy reduction.
    collector = mod("repro.obs.metrics").MetricsCollector
    for attr, raw in list(vars(collector).items()):
        if attr.startswith("on_") and callable(raw):
            method(collector, attr, "obs.collector", record=False)
    for attr in ("runs", "metrics"):
        method(collector, attr, "obs.collector")
    # repro.analysis
    for fn in ("materialize_cell", "materialize_demand"):
        patch(sweep, fn, "analysis.materialize")
    patch(batch, "build_column_block", "analysis.materialize")
    cache = mod("repro.analysis.cellcache").CellCache
    method(cache, "get", "analysis.cache_get",
           amount=lambda args, kwargs, result: result is not None)
    method(cache, "put", "analysis.cache_put")
    transport = mod("repro.analysis.transport")
    patch(transport, "encode_cell", "analysis.transport_encode",
          amount=lambda args, kwargs, result: _size_of(result))
    patch(transport, "decode_cell", "analysis.transport_decode",
          amount=lambda args, kwargs, result: _size_of(args[0]))
    patch(sweep, "_aggregate", "analysis.aggregate")
    # repro.catalog
    catalog = mod("repro.catalog.catalog")
    for fn in ("panel_sweep_config", "get_scenario", "load_catalog"):
        patch(catalog, fn, "catalog.resolve")
    method(mod("repro.catalog.schema").PanelSpec, "sweep_config",
           "catalog.resolve")
    # repro.service (runs in the server process)
    protocol = mod("repro.service.protocol")
    for fn in ("parse_request", "resolve_jobs"):
        patch(protocol, fn, "service.parse")
    for fn in ("started_event", "job_event", "partial_event",
               "result_event", "done_event", "error_event"):
        patch(protocol, fn, "service.encode")
    method(mod("repro.service.server").SweepService, "_encode_result",
           "service.encode")
    # repro.dist: frames at the coordinator (recv_frame includes the
    # wait for the worker's next frame).
    coordinator = mod("repro.dist.coordinator")

    def lease_cells(args, kwargs, result):
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        if kind != "lease":
            return 0
        header = args[2] if len(args) > 2 else kwargs.get("header") or {}
        tracer.count("dist.leases")
        return len(header.get("tickets", ()))

    patch(coordinator, "send_frame", "dist.frame", amount=lease_cells)
    patch(coordinator, "recv_frame", "dist.frame")
    # The sweep's own thread, while it waits for the fleet's results.
    method(coordinator.RemoteCellExecutor, "run_cells", "dist.wait")


def layer_metrics(totals: Dict[str, tuple], counters: Dict[str, float],
                  requests: int) -> Dict[str, float]:
    """Per-layer metrics from tracer sums, per request.

    ``counters`` carries what the workload read off results and stats
    (``sim.block_fallback.*``, ``service.*`` deltas, ``dist.*``) plus the
    tracer's own counters.  Fractions are not divided by ``requests``.
    """
    per = 1.0 / max(1, requests)
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, (seconds, calls, amount) in totals.items():
        names = SPANS.get(span)
        if names is None:
            continue
        time_name, count_name, amount_name = names
        out[time_name] += seconds * per
        if count_name:
            out[count_name] += calls * per
        if amount_name:
            out[amount_name] += amount * per
    for name, value in counters.items():
        if name in out and not name.endswith("_frac"):
            out[name] += value * per
    gets = totals.get("analysis.cache_get", (0.0, 0, 0.0))
    out["analysis.cache_hit_frac"] = gets[2] / gets[1] if gets[1] else 0.0
    attempted = counters.get("sim.block_runs", 0)
    fallbacks = sum(value for name, value in counters.items()
                    if name.startswith("sim.block_fallback."))
    out["sim.block_lane_frac"] = (attempted - fallbacks) / attempted \
        if attempted else 0.0
    leases = counters.get("dist.leases", 0)
    leased = totals.get("dist.frame", (0.0, 0, 0.0))[2]
    out["dist.cells_per_lease"] = leased / leases if leases else 0.0
    joined = counters.get("service.coalesced_cells", 0)
    simulated = counters.get("service.simulated_cells", 0)
    out["service.dedup_join_frac"] = joined / (joined + simulated) \
        if joined + simulated else 0.0
    for name in ("trace.coverage_frac", "trace.overhead_frac"):
        out[name] = counters.get(name, 0.0)
    return out


def fallback_counters(block_fallbacks: Dict[str, int]) -> Dict[str, int]:
    """``SweepResult.block_fallbacks`` as ``sim.block_fallback.*``."""
    out: Dict[str, int] = {}
    for reason, count in block_fallbacks.items():
        key = reason if reason in FALLBACK_REASONS else "other"
        name = f"sim.block_fallback.{key}"
        out[name] = out.get(name, 0) + count
    return out
