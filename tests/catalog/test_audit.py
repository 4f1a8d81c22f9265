"""Mutation tests for the audit engine: every injected corruption must
be flagged by the *right* named check, and a clean sweep must audit
clean — no silent passes in either direction.

The fixtures run one small in-test scenario once; each mutation test
takes a deep copy of the clean :class:`SweepResult` (or an independent
traced run), corrupts exactly one thing, and asserts the named check
flips from pass to fail while the clean baseline keeps it passing.
"""

import copy
from dataclasses import replace

import pytest

from repro.analysis.sweep import (sweep_cell_specs, sweep_context,
                                  utilization_sweep)
from repro.catalog import AuditProfile, Invariant, PanelSpec, Scenario
from repro.catalog.audit import (audit_catalog, audit_scenario,
                                 audit_sim_result, audit_sweep_result,
                                 render_reports, replay_cell,
                                 reports_to_json)
from repro.core import make_policy
from repro.hw.energy import EnergyModel
from repro.hw.machine import machine0
from repro.model.task import example_taskset
from repro.sim.engine import simulate
from repro.sim.results import DeadlineMiss
from repro.sim.trace import Segment

from tests.sim.segment_list import timeline_from

SCENARIO = Scenario(
    name="unit-audit",
    title="in-test audit scenario",
    figure="test",
    description="tiny sweep exercised by the audit mutation tests",
    experiment_id="fig9",
    panels=(PanelSpec(
        label="p",
        n_tasks=3,
        seed=7,
        utilizations=(0.5, 0.9),
        policies=("EDF", "ccEDF"),
        residency_policies=("ccEDF",),
        n_sets_quick=2,
        duration_quick=120.0),),
    invariants=(
        Invariant("reference-normalized-unity"),
        Invariant("zero-misses-schedulable-edf"),
        Invariant("utilization-monotone-energy", 1e-9),
        Invariant("bound-not-above-policies", 1e-9),
        Invariant("residency-conservation", 1e-9),
        Invariant("engine-parity"),
    ),
)

PROFILE = AuditProfile(n_sets=2, max_points=2, duration=None,
                       trace_cells=1, parity_cells=1)


@pytest.fixture(scope="module")
def clean():
    """One sweep plus its replays, shared (read-only) by every test."""
    config = PROFILE.apply(SCENARIO.panels[0].sweep_config(quick=True))
    result = utilization_sweep(config)
    context = sweep_context(config)
    replays = [replay_cell(context, spec)
               for spec in sweep_cell_specs(config)]
    return config, result, replays


def audit(config, result, replays):
    return audit_sweep_result(SCENARIO, "p", config, result,
                              profile=PROFILE, replays=replays)


def by_name(checks, name):
    found = [c for c in checks if c.name == name]
    assert found, f"audit never emitted {name!r}"
    return found


def assert_flagged(checks, name):
    """The named check failed — and the failure carries a detail."""
    failures = [c for c in by_name(checks, name) if c.status == "fail"]
    assert failures, f"{name!r} did not flag the injected corruption"
    assert all(c.detail for c in failures)


class TestCleanAudit:
    def test_no_failures_on_untouched_sweep(self, clean):
        checks = audit(*clean)
        bad = [str(c) for c in checks if c.status == "fail"]
        assert bad == []

    def test_every_declared_check_surface_is_present(self, clean):
        names = {c.name for c in audit(*clean)}
        for expected in ("trace:tiling", "trace:cycles", "trace:budget",
                         "trace:priority", "trace:work-conservation",
                         "trace:energy", "counters:misses",
                         "counters:switches", "cell:demand-trace",
                         "aggregate:raw", "aggregate:normalized",
                         "aggregate:rm-fallbacks", "aggregate:residency",
                         "invariant:reference-normalized-unity",
                         "invariant:zero-misses-schedulable-edf",
                         "invariant:utilization-monotone-energy",
                         "invariant:bound-not-above-policies",
                         "invariant:residency-conservation",
                         "invariant:engine-parity"):
            assert expected in names, f"missing check {expected!r}"


class TestTraceMutations:
    """Per-run corruptions, driven through :func:`audit_sim_result` on an
    independently traced simulation (the same seam the sweep audit
    samples)."""

    @pytest.fixture()
    def run(self):
        model = EnergyModel(idle_level=0.2)
        result = simulate(example_taskset(), machine0(),
                          make_policy("ccEDF"), demand=0.7,
                          duration=112.0, energy_model=model,
                          record_trace=True)
        return result, model

    def test_clean_run_audits_clean(self, run):
        result, model = run
        checks = audit_sim_result(result, model)
        assert [c.name for c in checks if c.status == "fail"] == []

    def test_dropped_trace_segment_flags_tiling(self, run):
        result, model = run
        segments = list(result.trace.segments)
        del segments[len(segments) // 2]
        result.trace = timeline_from(segments)
        assert_flagged(audit_sim_result(result, model), "trace:tiling")

    def test_perturbed_energy_flags_energy(self, run):
        result, model = run
        result.energy.idle += 5.0
        assert_flagged(audit_sim_result(result, model), "trace:energy")

    def test_wrong_frequency_flags_cycles(self, run):
        """A segment claiming the wrong operating point draws the wrong
        cycle rate (and energy) for its duration."""
        result, model = run
        segments = list(result.trace.segments)
        for index, segment in enumerate(segments):
            if segment.kind == "run" \
                    and segment.point != machine0().fastest:
                segments[index] = Segment(
                    start=segment.start, end=segment.end,
                    task=segment.task, point=machine0().fastest,
                    cycles=segment.cycles, energy=segment.energy,
                    kind=segment.kind)
                result.trace = timeline_from(segments)
                break
        else:  # pragma: no cover - ccEDF always slows down somewhere
            pytest.fail("no scaled-down run segment to corrupt")
        names = {c.name for c in audit_sim_result(result, model)
                 if c.status == "fail"}
        assert names & {"trace:cycles", "trace:energy"}

    def test_fake_miss_flags_counter_rederivation(self, run):
        result, model = run
        result.misses.append(DeadlineMiss(
            task_name="T1", release_time=0.0, deadline=4.0, demand=1.0,
            executed=0.5))
        assert_flagged(audit_sim_result(result, model), "counters:misses")

    def test_undercounted_switches_flag_counter_rederivation(self, run):
        result, model = run
        result.switches = 0
        assert_flagged(audit_sim_result(result, model),
                       "counters:switches")


class TestAggregateMutations:
    """Sweep-level corruptions: a deep-copied result is doctored and the
    audit must notice against the untouched replays."""

    def _mutate_series(self, table, label, point=0, delta=1e-6):
        series = table.get(label)
        index = table.series.index(series)
        ys = list(series.ys)
        ys[point] += delta
        table.series[index] = replace(series, ys=tuple(ys))

    def test_perturbed_raw_energy_flags_aggregate_raw(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        self._mutate_series(result.raw, "ccEDF")
        assert_flagged(audit(config, result, replays), "aggregate:raw")

    def test_perturbed_normalized_flags_aggregate_normalized(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        self._mutate_series(result.normalized, "ccEDF")
        assert_flagged(audit(config, result, replays),
                       "aggregate:normalized")

    def test_off_by_one_rm_fallbacks_flagged(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        result.rm_fallbacks += 1
        assert_flagged(audit(config, result, replays),
                       "aggregate:rm-fallbacks")

    def test_wrong_frequency_residency_flagged(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        table = result.residency["ccEDF"]
        self._mutate_series(table, table.labels()[0], delta=1e-3)
        assert_flagged(audit(config, result, replays),
                       "aggregate:residency")

    def test_broken_normalization_anchor_flagged(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        self._mutate_series(result.normalized, "EDF", delta=0.5)
        checks = audit(config, result, replays)
        assert_flagged(checks, "invariant:reference-normalized-unity")
        # ...and the recomputation notices too; a doctored table cannot
        # pass one check by failing another.
        assert_flagged(checks, "aggregate:normalized")

    def test_decreasing_reference_energy_flagged(self, clean):
        config, result, replays = clean
        result = copy.deepcopy(result)
        series = result.raw.get("EDF")
        index = result.raw.series.index(series)
        result.raw.series[index] = replace(
            series, ys=tuple(reversed(series.ys)))
        assert_flagged(audit(config, result, replays),
                       "invariant:utilization-monotone-energy")


class TestEngineParityMutations:
    """``engine-parity`` holds the production path to the event engine,
    so a per-cell kernel that drifts in the last bits must be flagged."""

    def test_drifting_kernel_flagged(self, clean, monkeypatch):
        from repro.sim import batch_kernels
        real = batch_kernels.batch_simulate

        def drifting(*args, **kwargs):
            result = real(*args, **kwargs)
            result.energy.idle += 1e-9
            return result

        monkeypatch.setattr(batch_kernels, "batch_simulate", drifting)
        checks = audit(*clean)
        assert_flagged(checks, "invariant:engine-parity")
        detail = by_name(checks, "invariant:engine-parity")[0].detail
        assert "kernel outcome differs from the event engine" in detail


class TestReportPlumbing:
    def test_audit_scenario_end_to_end(self):
        report = audit_scenario(SCENARIO, profile=PROFILE)
        assert report.ok, [str(c) for c in report.violations()]
        assert report.scenario == "unit-audit"
        assert report.fingerprint == SCENARIO.fingerprint()
        assert report.passed > 0 and report.failed == 0

    def test_render_and_json_forms(self):
        report = audit_scenario(SCENARIO, profile=PROFILE)
        text = render_reports([report])
        assert "AUDIT CLEAN" in text and "unit-audit" in text
        import json
        payload = json.loads(reports_to_json([report], PROFILE))
        audit_payload = payload["catalog_audit"]
        assert audit_payload["ok"] is True
        assert audit_payload["profile"]["n_sets"] == PROFILE.n_sets
        assert audit_payload["reports"][0]["scenario"] == "unit-audit"

    def test_failed_check_renders_in_report(self, clean):
        from repro.catalog import AuditReport
        config, result, replays = clean
        result = copy.deepcopy(result)
        result.rm_fallbacks += 3
        report = AuditReport(scenario="unit-audit", figure="test",
                             checks=audit(config, result, replays))
        assert not report.ok
        assert "VIOLATIONS" in report.render()
        assert any(v.name == "aggregate:rm-fallbacks"
                   for v in report.violations())

    def test_audit_catalog_rejects_unknown_names(self):
        from repro.catalog import CatalogError
        with pytest.raises(CatalogError, match="unknown scenario"):
            audit_catalog(["not-a-scenario"])

    def test_skip_status_is_not_a_pass(self):
        """A scenario declaring residency conservation with no residency
        policies must report skip, never a silent pass."""
        scenario = replace(
            SCENARIO,
            panels=(replace(SCENARIO.panels[0],
                            residency_policies=()),),
            invariants=(Invariant("residency-conservation"),))
        report = audit_scenario(scenario, profile=PROFILE)
        skips = [c for c in report.checks
                 if c.name == "invariant:residency-conservation"]
        assert skips and all(c.status == "skip" for c in skips)
        assert all(c.detail for c in skips)
