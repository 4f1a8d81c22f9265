"""Tests for the sweep service wire protocol."""

import pytest

from repro.analysis.sweep import SweepConfig, sweep_result_labels
from repro.service.protocol import (ProtocolError, parse_request,
                                    partial_aggregate, resolve_jobs,
                                    started_event)

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}


class TestParseRequest:
    def test_minimal_scenario_request_defaults(self):
        request = parse_request({"scenario": "fig9"})
        assert request.scenario == "fig9"
        assert request.panel is None
        assert request.spec is None
        assert request.quick is True
        assert request.tenant == "default"
        assert request.stream_every == 0

    def test_inline_spec_gets_default_label(self):
        request = parse_request({"spec": TINY_SPEC})
        assert request.spec.label == "inline"
        assert request.spec.n_tasks == 3

    def test_explicit_spec_label_survives(self):
        request = parse_request({"spec": {**TINY_SPEC, "label": "mine"}})
        assert request.spec.label == "mine"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown key"):
            parse_request({"scenario": "fig9", "n_taks": 8})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ProtocolError, match="invalid inline spec"):
            parse_request({"spec": {**TINY_SPEC, "n_taks": 8}})

    def test_scenario_and_spec_both_rejected(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_request({"scenario": "fig9", "spec": TINY_SPEC})

    def test_neither_scenario_nor_spec_rejected(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_request({})

    def test_panel_with_spec_rejected(self):
        with pytest.raises(ProtocolError, match="panel"):
            parse_request({"spec": TINY_SPEC, "panel": "x"})

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(["fig9"])

    @pytest.mark.parametrize("overrides", [
        {"quick": "yes"},
        {"tenant": ""},
        {"tenant": 7},
        {"engine": "vectorized"},
        {"stream_every": -1},
        {"stream_every": True},
        {"stream_every": 2.5},
    ])
    def test_ill_typed_fields_rejected(self, overrides):
        with pytest.raises(ProtocolError):
            parse_request({"scenario": "fig9", **overrides})


class TestResolveJobs:
    def test_scenario_fans_out_to_all_panels(self):
        jobs = resolve_jobs(parse_request({"scenario": "fig9"}))
        assert len(jobs) == 3
        assert {job.scenario for job in jobs} == {"fig9"}
        for job in jobs:
            assert job.cells == len(job.specs) == len(job.keys)
            assert all(key is not None for key in job.keys)
            assert len(set(job.keys)) == job.cells  # fingerprints unique

    def test_panel_narrows_to_one_job(self):
        all_jobs = resolve_jobs(parse_request({"scenario": "fig9"}))
        one = resolve_jobs(parse_request(
            {"scenario": "fig9", "panel": all_jobs[0].panel}))
        assert len(one) == 1
        assert one[0].keys == all_jobs[0].keys

    def test_quick_and_full_resolve_different_cells(self):
        quick = resolve_jobs(parse_request(
            {"scenario": "fig9", "panel": "5-tasks"}))[0]
        full = resolve_jobs(parse_request(
            {"scenario": "fig9", "panel": "5-tasks", "quick": False}))[0]
        assert full.cells > quick.cells
        assert set(quick.keys).isdisjoint(full.keys)  # duration differs

    def test_unknown_scenario_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown scenario"):
            resolve_jobs(parse_request({"scenario": "fig99"}))

    def test_unknown_panel_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="no panel"):
            resolve_jobs(parse_request({"scenario": "fig9",
                                        "panel": "42-tasks"}))

    def test_started_event_counts_cells(self):
        request = parse_request({"scenario": "fig9"})
        jobs = resolve_jobs(request)
        event = started_event(request, jobs)
        assert event["total_cells"] == sum(job.cells for job in jobs)
        assert len(event["jobs"]) == 3
        assert event["protocol"] == 2
        assert "engine" not in event


class TestPartialAggregate:
    def test_means_cover_only_completed_sets(self):
        config = SweepConfig(policies=("ccEDF",), utilizations=(0.5, 0.9),
                             n_tasks=3, n_sets=2)
        labels = sweep_result_labels(config)
        make = lambda value: {label: value for label in labels}
        # u=0.5 complete (values 1.0, 3.0), u=0.9 half done (5.0).
        outcomes = [make(1.0), make(3.0), make(5.0), None]
        partial = partial_aggregate(config, outcomes)
        assert partial["sets_done"] == [2, 1]
        for label in labels:
            assert partial["raw_mean"][label] == [2.0, 5.0]

    def test_untouched_point_reports_none(self):
        config = SweepConfig(policies=("ccEDF",), utilizations=(0.5, 0.9),
                             n_tasks=3, n_sets=1)
        labels = sweep_result_labels(config)
        partial = partial_aggregate(
            config, [{label: 4.0 for label in labels}, None])
        assert partial["sets_done"] == [1, 0]
        for label in labels:
            assert partial["raw_mean"][label] == [4.0, None]
