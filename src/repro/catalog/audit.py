"""Independent trace audit of catalog scenarios.

The audit engine answers one question: *do a sweep's reported numbers
actually follow from its schedules?*  It re-runs each scenario panel at a
reduced :class:`AuditProfile` scale, then — without trusting the sweep
machinery that produced the aggregates — replays every cell through the
discrete-event engine with trace recording on and re-derives everything
downstream:

* each sampled run's schedule is validated segment-by-segment through
  :func:`repro.sim.validation.validate_schedule` (tiling, cycle rates,
  budgets, priority/work conservation, and energy re-integrated from
  timeline segments), producing one ``trace:<kind>`` check per kind;
* counters are recomputed from trace + job list alone
  (:func:`~repro.sim.validation.rederive_counters`) and cross-checked
  against the run's own ``misses``/``switches`` (``counters:*``);
* the :class:`~repro.analysis.sweep.SweepResult` aggregates — raw and
  EDF-normalized mean tables, RM-fallback totals, residency tables — are
  recomputed from the replayed per-cell energies and compared
  (``aggregate:*``); residency is rebuilt from traces
  (:func:`~repro.obs.metrics.residency_from_trace`), not from the live
  collectors the sweep used;
* every invariant the scenario declares (``invariant:<name>``, see
  :data:`repro.catalog.schema.KNOWN_INVARIANTS`) is evaluated at its
  declared tolerance, including kernel/event-engine parity on sampled
  cells;
* scenarios without sweep panels (worked examples, extensions) are
  audited through their drivers' shape checks (``driver:shape-checks``).

Every check lands in an :class:`AuditReport` as pass/fail/skip with
detail — a check that cannot run reports ``skip`` with a reason rather
than silently passing.  Reports serialize to JSON
(:func:`reports_to_json`) and render as an ASCII summary
(:func:`render_reports`); ``rtdvs catalog audit`` exposes both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import mean
from repro.analysis.sweep import (BOUND_LABEL, REFERENCE_POLICY, CellSpec,
                                  SweepConfig, SweepContext, SweepResult,
                                  materialize_cell, run_cell,
                                  sweep_cell_specs, sweep_context,
                                  utilization_sweep)
from repro.catalog.catalog import load_catalog
from repro.catalog.schema import CatalogError, Invariant, Scenario
from repro.core import make_policy
from repro.core.no_dvs import NoDVS
from repro.errors import SchedulabilityError
from repro.hw.energy import EnergyModel
from repro.obs.metrics import residency_from_trace
from repro.sim.bound import minimum_energy_for_cycles
from repro.sim.engine import simulate
from repro.sim.results import SimResult
from repro.sim.validation import (ALL_CHECKS, rederive_counters,
                                  validate_schedule)

#: Slack for quantities the audit recomputes in a different float
#: summation order than the sweep (relative, scaled by magnitude).
_REL_EPS = 1e-9

#: Exact-recomputation tolerance: the audit folds the replayed per-cell
#: energies through the same ``mean`` the sweep used, so aggregate
#: mismatches beyond bit-level noise indicate corruption.
_EXACT_EPS = 1e-12

#: Violation kinds :func:`validate_schedule` can emit, keyed by the
#: check that produces them (the ``priority`` check also asserts work
#: conservation).
_KINDS_BY_CHECK = {
    "tiling": ("tiling",),
    "cycles": ("cycles",),
    "budget": ("budget",),
    "priority": ("priority", "work-conservation"),
    "energy": ("energy",),
}


@dataclass
class AuditCheck:
    """One audit finding: a named check with pass/fail/skip and detail."""

    scenario: str
    panel: str
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise CatalogError(
                f"audit check status must be pass/fail/skip, "
                f"got {self.status!r}")

    def to_dict(self) -> Dict[str, str]:
        return {"scenario": self.scenario, "panel": self.panel,
                "name": self.name, "status": self.status,
                "detail": self.detail}

    def __str__(self) -> str:
        where = f"{self.scenario}/{self.panel}" if self.panel \
            else self.scenario
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{self.status.upper():4s}] {where}: {self.name}{tail}"


@dataclass(frozen=True)
class AuditProfile:
    """How much of each scenario the audit replays.

    The default is the CI profile: every panel shrunk to ``n_sets`` task
    sets over ``max_points`` evenly-subsampled utilization points and a
    shortened horizon, full per-cell replays for the aggregate
    cross-check, and trace-level validation on ``trace_cells`` sampled
    cells per panel (trace checks scale with segments × jobs, so they
    are sampled rather than exhaustive).
    """

    #: Task sets per utilization point (clamped to the panel's own).
    n_sets: int = 2
    #: Utilization points kept per panel (evenly subsampled, ends kept).
    max_points: int = 4
    #: Horizon override in ms; ``None`` keeps the panel's quick duration.
    duration: Optional[float] = 300.0
    #: Cells per panel whose runs get full trace validation.
    trace_cells: int = 2
    #: Cells per panel used for the engine-parity invariant.
    parity_cells: int = 1
    #: Trace-validation checks to run on sampled cells.
    trace_checks: Tuple[str, ...] = ALL_CHECKS
    #: Scale at which driver (shape-check) scenarios run.
    quick: bool = True

    def apply(self, config: SweepConfig) -> SweepConfig:
        """Shrink a panel's sweep config to this profile's scale."""
        utilizations = _subsample(config.utilizations, self.max_points)
        return replace(
            config,
            utilizations=utilizations,
            n_sets=min(self.n_sets, config.n_sets),
            duration=self.duration if self.duration is not None
            else config.duration)

    def to_dict(self) -> Dict[str, object]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["trace_checks"] = list(self.trace_checks)
        return out


@dataclass
class AuditReport:
    """Every check the audit ran for one scenario."""

    scenario: str
    figure: str = ""
    fingerprint: str = ""
    checks: List[AuditCheck] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skip")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def violations(self) -> List[AuditCheck]:
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "figure": self.figure,
            "fingerprint": self.fingerprint,
            "ok": self.ok,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        """ASCII summary: one header line plus any non-pass findings."""
        status = "OK" if self.ok else "VIOLATIONS"
        lines = [f"{self.scenario:<14} {status:<10} "
                 f"pass={self.passed} fail={self.failed} "
                 f"skip={self.skipped}"]
        for check in self.checks:
            if check.status != "pass":
                lines.append(f"  {check}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-run audits (the seams the mutation tests drive)
# ---------------------------------------------------------------------------

def audit_sim_result(result: SimResult,
                     energy_model: Optional[EnergyModel] = None,
                     checks: Sequence[str] = ALL_CHECKS,
                     scenario: str = "", panel: str = "",
                     label: str = "") -> List[AuditCheck]:
    """Audit one traced run: schedule validation plus counter re-derivation.

    Emits one ``trace:<kind>`` check per violation kind the selected
    validators cover (pass when no violation of that kind was found — a
    kind is never silently omitted), then cross-checks the run's reported
    ``misses`` and ``switches`` against
    :func:`~repro.sim.validation.rederive_counters`
    (``counters:misses``, ``counters:switches``).
    """
    prefix = f"{label}: " if label else ""
    violations = validate_schedule(result, energy_model=energy_model,
                                   checks=tuple(checks))
    by_kind: Dict[str, List[str]] = {}
    for violation in violations:
        by_kind.setdefault(violation.kind, []).append(str(violation))
    out: List[AuditCheck] = []
    for check in checks:
        for kind in _KINDS_BY_CHECK[check]:
            found = by_kind.get(kind, [])
            out.append(AuditCheck(
                scenario, panel, f"trace:{kind}",
                "fail" if found else "pass",
                prefix + "; ".join(found[:3]) if found else ""))
    counters = rederive_counters(result)
    reported = len(result.misses)
    out.append(AuditCheck(
        scenario, panel, "counters:misses",
        "pass" if counters["deadline_misses"] == reported else "fail",
        "" if counters["deadline_misses"] == reported else
        f"{prefix}run reports {reported} misses; trace re-derivation "
        f"finds {counters['deadline_misses']}"))
    # Segment-visible transitions are a lower bound on the switch count
    # (coincident switches leave no segment behind).
    transitions = counters["frequency_transitions"]
    out.append(AuditCheck(
        scenario, panel, "counters:switches",
        "pass" if transitions <= result.switches else "fail",
        "" if transitions <= result.switches else
        f"{prefix}trace shows {transitions} operating-point changes but "
        f"the run reports only {result.switches} switches"))
    return out


@dataclass
class CellReplay:
    """One cell independently re-simulated with traces."""

    spec: CellSpec
    #: policy label -> traced run (RM fallbacks replayed as the sweep
    #: does: full-speed RM, misses tolerated).
    runs: Dict[str, SimResult]
    #: policy label -> total energy, plus the recomputed bound.
    energies: Dict[str, float]
    #: policy -> {frequency: fraction}, rebuilt from traces (only for
    #: the context's residency policies).
    residency: Dict[str, Dict[float, float]]
    rm_fallbacks: int
    fallback_draws: int


def replay_cell(context: SweepContext, spec: CellSpec) -> CellReplay:
    """Re-simulate one cell with trace recording, mirroring
    :func:`~repro.analysis.sweep.run_cell`'s semantics (policy order,
    RM fallback, bound from the EDF reference's executed cycles) but
    through the plain engine — never the per-cell kernel —
    so the result is an independent reference."""
    taskset, demand = materialize_cell(context, spec)
    energy_model = context.energy_model()
    runs: Dict[str, SimResult] = {}
    energies: Dict[str, float] = {}
    residency: Dict[str, Dict[float, float]] = {}
    rm_fallbacks = 0
    reference_cycles: Optional[float] = None
    for name in context.policies:
        try:
            run = simulate(taskset, context.machine, make_policy(name),
                           demand=demand, duration=context.duration,
                           energy_model=energy_model, on_miss="raise",
                           record_trace=True)
        except SchedulabilityError:
            run = simulate(taskset, context.machine,
                           NoDVS(scheduler="rm"), demand=demand,
                           duration=context.duration,
                           energy_model=energy_model, on_miss="drop",
                           record_trace=True)
            rm_fallbacks += 1
        runs[name] = run
        energies[name] = run.total_energy
        if name in context.residency_policies:
            span = context.duration or 1.0
            residency[name] = {
                f: seconds / span for f, seconds in
                residency_from_trace(run.trace).items()}
        if name == REFERENCE_POLICY:
            reference_cycles = run.executed_cycles
    energies[BOUND_LABEL] = context.cycle_energy_scale * \
        minimum_energy_for_cycles(context.machine, reference_cycles,
                                  context.duration)
    return CellReplay(spec=spec, runs=runs, energies=energies,
                      residency=residency, rm_fallbacks=rm_fallbacks,
                      fallback_draws=demand.fallback_draws)


def audit_sweep_result(scenario: Scenario, panel_label: str,
                       config: SweepConfig, result: SweepResult,
                       profile: Optional[AuditProfile] = None,
                       replays: Optional[List[CellReplay]] = None,
                       ) -> List[AuditCheck]:
    """Cross-check one sweep's aggregates and invariants against
    independent per-cell replays.

    ``replays`` lets callers (tests, :func:`audit_scenario`) reuse
    already-computed replays; otherwise every cell of ``config`` is
    replayed here.
    """
    profile = profile or AuditProfile()
    context = sweep_context(config)
    specs = sweep_cell_specs(config)
    if replays is None:
        replays = [replay_cell(context, spec) for spec in specs]
    name, panel = scenario.name, panel_label
    checks: List[AuditCheck] = []

    # --- trace-level validation on sampled cells -----------------------
    # Runs with deadline misses (RM fallbacks on non-RM-schedulable
    # sets, misses tolerated) only get the schedule-agnostic checks:
    # the job-referencing validators (budget/priority/work conservation)
    # assume every job runs to completion within its deadline window.
    miss_safe = tuple(c for c in profile.trace_checks
                      if c in ("tiling", "cycles", "energy"))
    for index in _sample_indices(len(replays), profile.trace_cells):
        cell = replays[index]
        where = f"u={cell.spec.utilization:g}/set={cell.spec.set_index}"
        for policy_label, run in cell.runs.items():
            run_checks = profile.trace_checks if not run.misses \
                else miss_safe
            checks.extend(audit_sim_result(
                run, energy_model=context.energy_model(),
                checks=run_checks, scenario=name, panel=panel,
                label=f"{where} {policy_label}"))
    checks.append(_check(
        name, panel, "cell:demand-trace",
        all(r.fallback_draws == 0 for r in replays),
        "a materialized demand trace underflowed during replay"))

    # --- aggregate recomputation --------------------------------------
    checks.extend(_audit_aggregates(name, panel, config, result, replays))

    # --- declared invariants ------------------------------------------
    for invariant in scenario.invariants:
        if invariant.name == "shape-checks":
            continue  # scenario-level, handled by audit_scenario
        checks.append(_audit_invariant(
            invariant, name, panel, config, context, specs, result,
            replays, profile))
    return checks


# ---------------------------------------------------------------------------
# aggregate cross-checks
# ---------------------------------------------------------------------------

def _audit_aggregates(name: str, panel: str, config: SweepConfig,
                      result: SweepResult,
                      replays: List[CellReplay]) -> List[AuditCheck]:
    """Recompute the sweep tables from replayed cells and diff them."""
    checks: List[AuditCheck] = []
    n_sets = config.n_sets
    labels = list(result.raw.labels())
    per_label: Dict[str, List[List[float]]] = {
        label: [[r.energies[label] for r in
                 replays[u * n_sets:(u + 1) * n_sets]]
                for u in range(len(config.utilizations))]
        for label in labels}

    bad_raw: List[str] = []
    for label in labels:
        recomputed = tuple(mean(v) for v in per_label[label])
        for x, got, want in zip(result.raw.xs,
                                result.raw.get(label).ys, recomputed):
            if abs(got - want) > _EXACT_EPS * max(1.0, abs(want)):
                bad_raw.append(
                    f"{label}@u={x:g}: reported {got!r}, replay {want!r}")
    checks.append(_check(name, panel, "aggregate:raw", not bad_raw,
                         "; ".join(bad_raw[:3])))

    bad_norm: List[str] = []
    for label in labels:
        recomputed = tuple(
            mean([v / ref for v, ref in zip(values, references)])
            for values, references in zip(per_label[label],
                                          per_label[REFERENCE_POLICY]))
        for x, got, want in zip(result.normalized.xs,
                                result.normalized.get(label).ys,
                                recomputed):
            if abs(got - want) > _EXACT_EPS * max(1.0, abs(want)):
                bad_norm.append(
                    f"{label}@u={x:g}: reported {got!r}, replay {want!r}")
    checks.append(_check(name, panel, "aggregate:normalized",
                         not bad_norm, "; ".join(bad_norm[:3])))

    replay_fallbacks = sum(r.rm_fallbacks for r in replays)
    checks.append(_check(
        name, panel, "aggregate:rm-fallbacks",
        replay_fallbacks == result.rm_fallbacks,
        f"result reports {result.rm_fallbacks} RM fallbacks; "
        f"replay found {replay_fallbacks}"))

    if config.residency_policies:
        frequencies = tuple(sorted(p.frequency
                                   for p in config.machine.points))
        bad_res: List[str] = []
        for policy in config.residency_policies:
            table = result.residency.get(policy)
            if table is None:
                bad_res.append(f"no residency table for {policy}")
                continue
            for f in frequencies:
                recomputed = tuple(
                    mean([r.residency[policy].get(f, 0.0) for r in
                          replays[u * n_sets:(u + 1) * n_sets]])
                    for u in range(len(config.utilizations)))
                reported = table.get(f"f={f:g}").ys
                for x, got, want in zip(table.xs, reported, recomputed):
                    # Collector (live) vs trace (rebuilt) summation
                    # order differ at float-noise level only.
                    if abs(got - want) > max(_REL_EPS, 1e-9):
                        bad_res.append(
                            f"{policy} f={f:g}@u={x:g}: reported "
                            f"{got!r}, trace replay {want!r}")
        checks.append(_check(name, panel, "aggregate:residency",
                             not bad_res, "; ".join(bad_res[:3])))
    return checks


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _audit_invariant(invariant: Invariant, name: str, panel: str,
                     config: SweepConfig, context: SweepContext,
                     specs: List[CellSpec], result: SweepResult,
                     replays: List[CellReplay],
                     profile: AuditProfile) -> AuditCheck:
    tol = invariant.tolerance
    check_name = f"invariant:{invariant.name}"

    if invariant.name == "reference-normalized-unity":
        ys = result.normalized.get(REFERENCE_POLICY).ys
        bad = [f"u={x:g}: {y!r}" for x, y in zip(result.normalized.xs, ys)
               if abs(y - 1.0) > tol]
        return _check(name, panel, check_name, not bad,
                      "EDF normalized curve is not 1.0 at " +
                      ", ".join(bad[:3]))

    if invariant.name == "utilization-monotone-energy":
        series = result.raw.get(REFERENCE_POLICY)
        bad = []
        for (x0, y0), (x1, y1) in zip(
                zip(series.xs, series.ys),
                zip(series.xs[1:], series.ys[1:])):
            if y1 < y0 - tol * max(1.0, abs(y0)):
                bad.append(f"u={x0:g}->{x1:g}: {y0!r} -> {y1!r}")
        return _check(name, panel, check_name, not bad,
                      "reference energy decreases at " + "; ".join(bad[:3]))

    if invariant.name == "zero-misses-schedulable-edf":
        bad = []
        for cell in replays:
            run = cell.runs.get(REFERENCE_POLICY)
            if run is None:  # pragma: no cover - EDF is always present
                continue
            rederived = rederive_counters(run)["deadline_misses"]
            if len(run.misses) > tol or rederived > tol:
                bad.append(f"u={cell.spec.utilization:g}/"
                           f"set={cell.spec.set_index}: "
                           f"{len(run.misses)} reported / "
                           f"{rederived} re-derived misses")
        return _check(name, panel, check_name, not bad,
                      "; ".join(bad[:3]))

    if invariant.name == "bound-not-above-policies":
        # The Sec. 3.2 LP bound is a floor for the cycles a schedule
        # *actually executed* (idle is free, so fewer cycles can cost
        # less than the reference-cycles bound near the horizon); each
        # run is therefore held to the bound for its own cycle count.
        bad = []
        for cell in replays:
            for label, run in cell.runs.items():
                floor = context.cycle_energy_scale * \
                    minimum_energy_for_cycles(
                        context.machine, run.executed_cycles,
                        context.duration)
                energy = run.total_energy
                if floor > energy + tol * max(1.0, energy):
                    bad.append(
                        f"u={cell.spec.utilization:g}/"
                        f"set={cell.spec.set_index} {label}: LP bound "
                        f"{floor!r} > energy {energy!r}")
        return _check(name, panel, check_name, not bad, "; ".join(bad[:3]))

    if invariant.name == "residency-conservation":
        if not context.residency_policies:
            return AuditCheck(name, panel, check_name, "skip",
                              "panel declares no residency policies")
        slack = max(tol, _REL_EPS)
        bad = []
        for cell in replays:
            for policy, fractions in cell.residency.items():
                total = sum(fractions.values())
                if abs(total - 1.0) > slack:
                    bad.append(
                        f"u={cell.spec.utilization:g}/"
                        f"set={cell.spec.set_index} {policy}: residency "
                        f"fractions sum to {total!r}")
        return _check(name, panel, check_name, not bad, "; ".join(bad[:3]))

    if invariant.name == "engine-parity":
        # The event engine is the reference the production path (the
        # per-cell kernel) must match.
        bad = []
        for index in _sample_indices(len(specs), profile.parity_cells):
            reference = run_cell(context, specs[index], simulate_fn=simulate)
            outcome = run_cell(context, specs[index])
            if outcome != reference:
                diffs = [key for key in reference
                         if reference.get(key) != outcome.get(key)]
                bad.append(f"cell {index}: kernel outcome differs from "
                           f"the event engine on {diffs or 'keys'}")
        return _check(name, panel, check_name, not bad, "; ".join(bad[:3]))

    raise CatalogError(  # pragma: no cover - schema rejects unknown names
        f"no audit implementation for invariant {invariant.name!r}")


# ---------------------------------------------------------------------------
# scenario/catalog entry points
# ---------------------------------------------------------------------------

def audit_scenario(scenario: Scenario,
                   profile: Optional[AuditProfile] = None,
                   cache_dir: Optional[str] = None,
                   workers=1, executor=None) -> AuditReport:
    """Audit one scenario end to end.

    Sweep panels run through :func:`utilization_sweep` at the profile's
    reduced scale (sharing the cell cache and worker pool when given, so
    a warm cache makes re-audits cheap), then every aggregate and
    invariant is cross-checked against independent traced replays.
    Panel-less scenarios run their driver and audit its shape checks.
    """
    profile = profile or AuditProfile()
    report = AuditReport(scenario=scenario.name, figure=scenario.figure,
                         fingerprint=scenario.fingerprint())
    for panel in scenario.panels:
        config = profile.apply(panel.sweep_config(
            quick=True, workers=workers, cache_dir=cache_dir))
        result = utilization_sweep(config, executor=executor)
        report.checks.extend(audit_sweep_result(
            scenario, panel.label, config, result, profile=profile))
    if scenario.invariant("shape-checks") is not None:
        report.checks.append(_audit_shape_checks(
            scenario, profile, workers=workers, cache_dir=cache_dir,
            executor=executor))
    return report


def _audit_shape_checks(scenario: Scenario, profile: AuditProfile,
                        **execution) -> AuditCheck:
    """Run the scenario's driver and fold its shape checks into one
    audit check."""
    from repro.experiments.runall import run_experiment

    result = run_experiment(scenario.experiment_id, quick=profile.quick,
                            **{k: v for k, v in execution.items()
                               if v is not None and v != 1})
    failed = [c.description for c in result.checks if not c.passed]
    return _check(scenario.name, "", "driver:shape-checks", not failed,
                  "failed shape checks: " + "; ".join(failed[:5]))


def audit_catalog(names: Optional[Sequence[str]] = None,
                  profile: Optional[AuditProfile] = None,
                  cache_dir: Optional[str] = None,
                  workers=1, executor=None) -> List[AuditReport]:
    """Audit the whole catalog (or the named subset), in catalog order."""
    catalog = load_catalog()
    if names:
        unknown = sorted(set(names) - set(catalog))
        if unknown:
            raise CatalogError(
                f"unknown scenario(s) {unknown}; "
                f"available: {sorted(catalog)}")
        selected = [catalog[name] for name in names]
    else:
        selected = [catalog[name] for name in sorted(catalog)]
    return [audit_scenario(scenario, profile=profile, cache_dir=cache_dir,
                           workers=workers, executor=executor)
            for scenario in selected]


def render_reports(reports: Sequence[AuditReport]) -> str:
    """ASCII summary of a catalog audit."""
    lines = [report.render() for report in reports]
    failed = sum(report.failed for report in reports)
    passed = sum(report.passed for report in reports)
    skipped = sum(report.skipped for report in reports)
    verdict = "AUDIT CLEAN" if failed == 0 else "AUDIT VIOLATIONS"
    lines.append(f"{verdict}: {passed} checks passed, {failed} failed, "
                 f"{skipped} skipped across {len(reports)} scenario(s)")
    return "\n".join(lines)


def reports_to_json(reports: Sequence[AuditReport],
                    profile: Optional[AuditProfile] = None,
                    indent: int = 2) -> str:
    """Machine-readable audit report (the CI artifact)."""
    payload = {
        "catalog_audit": {
            "ok": all(report.ok for report in reports),
            "profile": (profile or AuditProfile()).to_dict(),
            "reports": [report.to_dict() for report in reports],
        }
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _check(scenario: str, panel: str, name: str, passed: bool,
           detail_on_fail: str) -> AuditCheck:
    return AuditCheck(scenario, panel, name,
                      "pass" if passed else "fail",
                      "" if passed else detail_on_fail)


def _sample_indices(count: int, wanted: int) -> List[int]:
    """Up to ``wanted`` indices spread evenly over ``range(count)``."""
    if count <= 0 or wanted <= 0:
        return []
    if wanted >= count:
        return list(range(count))
    if wanted == 1:
        return [count - 1]
    step = (count - 1) / (wanted - 1)
    out = sorted({round(i * step) for i in range(wanted)})
    return [int(i) for i in out]


def _subsample(values: Tuple[float, ...],
               wanted: int) -> Tuple[float, ...]:
    """Evenly subsample ``values`` keeping first and last."""
    indices = _sample_indices(len(values), wanted)
    if len(indices) > 1:
        indices[0] = 0  # always keep the low end
    return tuple(values[i] for i in indices)
