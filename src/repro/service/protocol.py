"""Wire protocol of the sweep service.

One request describes one *sweep intent* — either a catalog scenario
(optionally narrowed to a single panel) or an inline panel-shaped spec —
plus execution hints that never enter cell identity (``quick``,
``stream_every``, ``tenant``).  The server resolves the
request to the exact seed-level :class:`~repro.analysis.sweep.CellSpec`
list the in-process sweep would run, so every cell is content-addressed
by the same fingerprint the :mod:`~repro.analysis.cellcache` uses and a
service response is bit-identical to a local run by construction.

Parsing follows the catalog's strict-schema rule: unknown keys are
rejected at every level (a typoed ``n_taks`` must fail loudly, not
silently sweep something else).

The response is a stream of NDJSON events, one JSON object per line:

``started``
    Request accepted; lists the resolved jobs and total cell count.
``job``
    One job (scenario panel) begins; reports its warm-cell count.
``partial``
    Incremental aggregate over the cells completed so far (every
    ``stream_every`` completions).  Means are computed over the
    completed subset only; ``sets_done`` says how deep each
    utilization column is.
``result``
    One job's final tables — the full row-major raw/normalized
    aggregates, bit-identical to ``utilization_sweep`` on the same
    config.
``done``
    Request finished; totals across all jobs.
``error``
    Terminal mid-stream failure (the HTTP status is already 200 by
    then; clients must treat this event as fatal).
"""

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import mean
from repro.analysis.sweep import (CellSpec, SweepConfig, SweepContext,
                                  SweepResult, cell_cache_key,
                                  sweep_cell_specs, sweep_context,
                                  sweep_result_labels)
from repro.catalog.catalog import get_scenario
from repro.catalog.schema import PanelSpec
from repro.errors import ReproError

#: Version tag of the request/event wire format; bump on any
#: incompatible change.  ``started`` events carry it so clients can
#: detect a server they do not understand.
PROTOCOL_VERSION = 2

_REQUEST_KEYS = ("scenario", "panel", "spec", "quick", "tenant",
                 "stream_every", "request_id", "resume")


class ProtocolError(ReproError):
    """A request failed wire-schema validation."""


@dataclass(frozen=True)
class SweepRequest:
    """One parsed, validated sweep request."""

    scenario: Optional[str] = None
    panel: Optional[str] = None
    spec: Optional[PanelSpec] = None
    quick: bool = True
    tenant: str = "default"
    #: Emit a ``partial`` aggregate event every N completed cells
    #: (0 disables partials; warm cells never trigger them).
    stream_every: int = 0
    #: Durable-journal identity: naming a request journals its spec and
    #: every completed cell fingerprint under the cache dir, so the
    #: request can be resumed after a coordinator restart.
    request_id: Optional[str] = None
    #: Resume a journaled request: the body carries only ``request_id``
    #: (+ ``resume: true``); the sweep target comes from the journal.
    resume: bool = False


@dataclass(frozen=True)
class SweepJob:
    """One resolved sweep: a panel bound to runnable cell specs.

    ``keys`` aligns with ``specs``; an entry is ``None`` only for
    uncacheable (trace-carrying) cells, which a wire request can never
    produce but the server still guards against.  Jobs are immutable,
    so the server can share one resolution across requests.
    """

    scenario: str
    panel: str
    config: SweepConfig
    context: SweepContext
    specs: Tuple[CellSpec, ...]
    keys: Tuple[Optional[str], ...]

    @property
    def cells(self) -> int:
        return len(self.specs)

    @cached_property
    def fingerprint(self) -> Optional[str]:
        """One digest of the scenario, panel and ordered cell keys
        (``None`` if any cell is uncacheable): the job's ``result``
        tables are a pure function of it."""
        if any(key is None for key in self.keys):
            return None
        return hashlib.sha256(json.dumps(
            [self.scenario, self.panel, *self.keys]).encode()).hexdigest()


def parse_request(data: object) -> SweepRequest:
    """Validate a decoded request body into a :class:`SweepRequest`.

    Raises :class:`ProtocolError` on unknown keys, missing/conflicting
    target (exactly one of ``scenario`` / ``spec``), or ill-typed
    fields.  Catalog-level validation of an inline spec (unknown
    machine, bad policy names...) surfaces as the catalog's own
    :class:`~repro.catalog.schema.CatalogError`, re-raised as
    :class:`ProtocolError` so the server maps both to HTTP 400.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    payload: Dict[str, object] = {}
    for key in _REQUEST_KEYS:
        if key in data:
            payload[key] = data.pop(key)
    if data:
        raise ProtocolError(
            f"request has unknown key(s) {sorted(data)}; "
            f"accepted: {sorted(_REQUEST_KEYS)}")

    resume = payload.get("resume", False)
    if not isinstance(resume, bool):
        raise ProtocolError("'resume' must be a boolean")
    request_id = payload.get("request_id")
    if request_id is not None:
        from repro.dist.journal import JournalError, validate_request_id
        try:
            validate_request_id(request_id)
        except JournalError as exc:
            raise ProtocolError(str(exc)) from exc
    if resume and request_id is None:
        raise ProtocolError("'resume' requires a 'request_id'")

    scenario = payload.get("scenario")
    spec_data = payload.get("spec")
    if resume:
        if scenario is not None or spec_data is not None \
                or payload.get("panel") is not None:
            raise ProtocolError(
                "a resume request names only its 'request_id'; the sweep "
                "target comes from the journal")
    elif (scenario is None) == (spec_data is None):
        raise ProtocolError(
            "request must carry exactly one of 'scenario' or 'spec'")
    if scenario is not None and not isinstance(scenario, str):
        raise ProtocolError("'scenario' must be a string")
    panel = payload.get("panel")
    if panel is not None:
        if spec_data is not None:
            raise ProtocolError("'panel' only applies to 'scenario' requests")
        if not isinstance(panel, str):
            raise ProtocolError("'panel' must be a string")

    spec: Optional[PanelSpec] = None
    if spec_data is not None:
        if not isinstance(spec_data, dict):
            raise ProtocolError("'spec' must be a JSON object")
        spec_data = dict(spec_data)
        spec_data.setdefault("label", "inline")
        try:
            spec = PanelSpec.from_dict(spec_data)
        except ReproError as exc:
            raise ProtocolError(f"invalid inline spec: {exc}") from exc

    quick = payload.get("quick", True)
    if not isinstance(quick, bool):
        raise ProtocolError("'quick' must be a boolean")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    stream_every = payload.get("stream_every", 0)
    if not isinstance(stream_every, int) or isinstance(stream_every, bool) \
            or stream_every < 0:
        raise ProtocolError("'stream_every' must be a non-negative integer")

    return SweepRequest(scenario=scenario, panel=panel, spec=spec,
                        quick=quick, tenant=tenant,
                        stream_every=stream_every,
                        request_id=request_id, resume=resume)


def resolve_jobs(request: SweepRequest) -> Tuple[SweepJob, ...]:
    """Resolve a request to its jobs: one per panel, in catalog order.

    A scenario request without ``panel`` fans out to *all* panels of the
    scenario; an inline spec is a single job under the scenario name
    ``"inline"``.  Unknown scenario/panel names surface as
    :class:`ProtocolError` (HTTP 400 — the client named something that
    does not exist, the server is fine).
    """
    if request.resume:
        raise ProtocolError(
            "resume requests resolve through the journal; the server "
            "re-parses the journaled body first")
    pairs: List[tuple] = []
    if request.spec is not None:
        pairs.append(("inline", request.spec))
    else:
        try:
            scenario = get_scenario(request.scenario)
            panels = ([scenario.panel(request.panel)]
                      if request.panel is not None else list(scenario.panels))
        except ReproError as exc:
            raise ProtocolError(str(exc)) from exc
        if not panels:
            raise ProtocolError(
                f"scenario {request.scenario!r} declares no sweep panels; "
                "nothing to serve")
        pairs.extend((request.scenario, panel) for panel in panels)

    jobs: List[SweepJob] = []
    for scenario_name, panel in pairs:
        config = panel.sweep_config(quick=request.quick)
        context = sweep_context(config)
        specs = tuple(sweep_cell_specs(config))
        keys = tuple(cell_cache_key(context, spec) if spec.cacheable
                     else None for spec in specs)
        jobs.append(SweepJob(scenario=scenario_name, panel=panel.label,
                             config=config, context=context,
                             specs=specs, keys=keys))
    return tuple(jobs)


# ---------------------------------------------------------------------------
# event payloads (server -> client)
# ---------------------------------------------------------------------------

def started_event(request: SweepRequest, jobs: Sequence[SweepJob],
                  resumed: bool = False) -> Dict[str, object]:
    event = {
        "event": "started",
        "protocol": PROTOCOL_VERSION,
        "quick": request.quick,
        "tenant": request.tenant,
        "jobs": [{"scenario": job.scenario, "panel": job.panel,
                  "cells": job.cells} for job in jobs],
        "total_cells": sum(job.cells for job in jobs),
    }
    if request.request_id is not None:
        event["request_id"] = request.request_id
        event["resumed"] = resumed
    return event


def job_event(job: SweepJob, warm: int) -> Dict[str, object]:
    return {"event": "job", "scenario": job.scenario, "panel": job.panel,
            "cells": job.cells, "warm": warm}


def partial_aggregate(config: SweepConfig,
                      outcomes: List[Optional[Dict[str, object]]],
                      ) -> Dict[str, object]:
    """Aggregate the *completed subset* of a sweep's outcomes.

    Per utilization point, means are taken over however many sets have
    finished (``None`` entries are skipped); a point with no completed
    sets yields ``None``.  This is deliberately raw-energy only — the
    normalized tables need the full column, so they arrive with the
    final ``result`` event.
    """
    labels = sweep_result_labels(config)
    xs = list(config.utilizations)
    n_sets = config.n_sets
    sets_done: List[int] = []
    raw_mean: Dict[str, List[Optional[float]]] = {
        label: [] for label in labels}
    for u_index in range(len(xs)):
        row = [o for o in outcomes[u_index * n_sets:(u_index + 1) * n_sets]
               if o is not None]
        sets_done.append(len(row))
        for label in labels:
            raw_mean[label].append(
                mean([o[label] for o in row]) if row else None)
    return {"xs": xs, "labels": labels, "sets_done": sets_done,
            "raw_mean": raw_mean}


def partial_event(job: SweepJob, done: int,
                  outcomes: List[Optional[Dict[str, object]]],
                  ) -> Dict[str, object]:
    return {"event": "partial", "scenario": job.scenario,
            "panel": job.panel, "done": done, "total": job.cells,
            "aggregate": partial_aggregate(job.config, outcomes)}


def result_event(job: SweepJob, result: SweepResult, cache_hits: int,
                 simulated: int, coalesced: int) -> Dict[str, object]:
    """One job's final tables.

    ``raw`` / ``normalized`` are row-major (one row per utilization,
    columns in ``labels`` order) — the same layout
    :meth:`~repro.analysis.series.SweepTable.rows` produces, so equality
    against an in-process run is a plain ``==`` on the decoded JSON
    (Python floats survive a JSON round-trip bit-exactly).
    """
    return {
        "event": "result",
        "scenario": job.scenario,
        "panel": job.panel,
        "xs": list(result.raw.xs),
        "labels": result.raw.labels(),
        "raw": result.raw.rows(),
        "normalized": result.normalized.rows(),
        "rm_fallbacks": result.rm_fallbacks,
        "cache_hits": cache_hits,
        "simulated_cells": simulated,
        "coalesced_cells": coalesced,
    }


def done_event(cache_hits: int, simulated: int, coalesced: int,
               elapsed_s: float,
               request_id: Optional[str] = None,
               journal_done: Optional[int] = None,
               journal_skipped: Optional[int] = None) -> Dict[str, object]:
    event = {"event": "done", "cache_hits": cache_hits,
             "simulated_cells": simulated, "coalesced_cells": coalesced,
             "elapsed_s": elapsed_s}
    if request_id is not None:
        event["request_id"] = request_id
        # Total fingerprints in the journal after this run / cells this
        # run skipped because a previous run had journaled them.
        event["journal_done"] = journal_done
        event["journal_skipped"] = journal_skipped
    return event


def error_event(message: str) -> Dict[str, object]:
    return {"event": "error", "message": message}
