"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that the metric names the command prints match
``BENCHMARK.json``, that traced self times add up, and they run a tiny
size of every workload, including clean shutdown of the server and
worker subprocesses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_printed_metrics():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == probes.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def self_times(spans):
    """span id -> self seconds, recomputed from stored span records."""
    child = {}
    for _, start, end, _, parent, _, _ in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {span[3]: (span[2] - span[1]) - child.get(span[3], 0.0)
            for span in spans}


def test_self_times_are_non_negative_and_fit_in_the_wall_time():
    tracer = Tracer()
    traced = {}

    def leaf():
        time.sleep(0.002)

    def middle():
        traced["leaf"]()
        time.sleep(0.001)
        traced["leaf"]()

    traced["leaf"] = tracer.wrap(leaf, "layer.leaf")
    traced_middle = tracer.wrap(middle, "layer.middle")
    started = time.perf_counter()
    with tracer.request("bench.request", "r1"):
        traced_middle()
        worker = threading.Thread(target=traced["leaf"])
        worker.start()
        worker.join(timeout=10)
    wall = time.perf_counter() - started
    assert not worker.is_alive()
    totals = tracer.totals()
    assert totals["layer.leaf"][1] == 3
    assert all(seconds >= 0 for seconds, _, _ in totals.values())
    main = [span for span in tracer.spans if span[6] == "MainThread"]
    assert sum(self_times(main).values()) <= wall
    assert {span[5] for span in main} == {"r1"}
    (middle_span,) = [span for span in main if span[0] == "layer.middle"]
    assert totals["layer.middle"][0] <= \
        middle_span[2] - middle_span[1] - 0.004


def test_probes_install_and_uninstall_cleanly(tmp_path):
    engine = __import__("repro.sim.engine", fromlist=["simulate"])
    sweep = __import__("repro.analysis.sweep", fromlist=["simulate"])
    original = engine.simulate
    spec = workloads.schema_mod.PanelSpec.from_dict(
        {"label": "t", "n_tasks": 3, "n_sets_quick": 2,
         "duration_quick": 100.0, "utilizations": [0.5],
         "residency_policies": ["ccEDF"]})
    config = spec.sweep_config(quick=True, cache_dir=str(tmp_path))
    tracer = Tracer()
    probes.install(tracer)
    try:
        assert tracer.missing == []
        assert sweep.simulate is not original
        started = time.perf_counter()
        with tracer.request("bench.request", "r1"):
            workloads.sweep_mod.utilization_sweep(config)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert engine.simulate is original and sweep.simulate is original
    totals = tracer.totals()
    for name in ("sim.engine", "core.callback", "analysis.cache_put",
                 "analysis.materialize", "obs.collector", "sim.bound"):
        assert totals[name][1] > 0, name
    assert all(seconds >= 0 for seconds, _, _ in totals.values())
    assert sum(seconds for seconds, _, _ in totals.values()) <= wall
    metrics = probes.layer_metrics(totals, tracer.counters, 1)
    assert [name for name, _, _ in probes.PER_LAYER] == list(metrics)


# -- tiny sizes of every workload ----------------------------------------------

class TinyPaperPanel(workloads.PaperPanel):
    min_units = 1

    def resolve(self, cache_dir):
        config = super().resolve(cache_dir)
        return workloads.replace(config, n_sets=1, duration=200.0)

    def verify(self):
        return []  # one 200 ms set per point is too few for the shape


class TinyBlockColumn(workloads.BlockColumn):
    min_units = 1
    SPEC = dict(workloads.BlockColumn.SPEC, n_sets_quick=4,
                duration_quick=200.0)


class TinyDistCold(workloads.DistCold):
    min_units = 2
    SPEC = dict(workloads.DistCold.SPEC, n_sets_quick=2)


class TinyServedMixed(workloads.ServedMixed):
    WARM = (("fig9", "5-tasks"),)
    WARM_PER_ROUND = 2


def _threads() -> int:
    return threading.active_count()


def _sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return count


@pytest.mark.parametrize("cls", [TinyPaperPanel, TinyBlockColumn,
                                 TinyDistCold, TinyServedMixed],
                         ids=lambda cls: cls.name)
def test_workload_smoke(cls, tmp_path):
    threads, sockets = _threads(), _sockets()
    workload = cls(7, tmp_path)
    try:
        workload.prepare()
        workload.setup()
        workload.setup()
        workload.reference()
        fleet = {proc.pid for proc in getattr(workload, "procs", [])}
        phase = workload.measure(0.01)
        failures = workload.verify()
        # Every dist-cold sweep gets fresh worker processes.
        assert fleet.isdisjoint(
            proc.pid for proc in getattr(workload, "procs", []))
    finally:
        workload.teardown()
    assert phase.attempted >= getattr(workload, "min_units", 1)
    assert phase.units and phase.probes
    assert phase.failed == 0, phase.errors
    assert failures == []
    for proc in getattr(workload, "procs", []):
        assert proc.poll() is not None
    assert workload.__dict__.get("server") is None
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and (
            _threads() > threads or _sockets() > sockets):
        time.sleep(0.05)
    assert _threads() <= threads
    assert _sockets() <= sockets


def test_memo_reset_targets_exist():
    # A renamed memo must fail the run, never leave sweeps warm.
    schedulability = __import__("repro.model.schedulability",
                                fromlist=["_rta_memo_clear"])
    assert callable(schedulability._rta_memo_clear)
    assert isinstance(workloads.sweep_mod._GENERATOR_MEMO, dict)
    workloads.reset_process_memos()
    assert workloads.sweep_mod._GENERATOR_MEMO == {}


def test_a_crashed_served_client_fails_the_phase(tmp_path):
    class Crashing(TinyServedMixed):
        def cold_spec(self, label):
            raise KeyError(label)

    workload = Crashing(7, tmp_path)
    phase = workload.measure(0.01)
    assert phase.failed >= 1 and phase.attempted >= phase.failed
    assert any("KeyError" in error for error in phase.errors)


@pytest.mark.xfail(strict=True, reason="RemoteCellExecutor.shutdown closes "
                   "the listener but leaves its accept thread blocked")
def test_remote_executor_shutdown_stops_its_accept_thread():
    dist = __import__("repro.dist", fromlist=["RemoteCellExecutor"])
    executor = dist.RemoteCellExecutor()
    accept = [t for t in threading.enumerate() if t.name == "dist-accept"
              and t.is_alive()][-1]
    executor.shutdown()
    accept.join(timeout=5)
    assert not accept.is_alive()


def test_traced_run_prints_every_per_layer_metric(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "block-column",
                        TinyBlockColumn)
    code = run.main(["--workload", "block-column", "--seed", "3",
                     "--seconds", "0.01", "--trace", "1",
                     "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _, _ in probes.PER_LAYER]
    values = {name: entry["value"] for name, entry in
              result["metrics"].items()}
    assert all(value >= 0 for name, value in values.items()
               if name != "trace.overhead_frac")
    assert values["sim.block_lanes"] > 0
    assert values["sim.block_fallback.unsupported-policy"] > 0
    assert 0 < values["trace.coverage_frac"] <= 1


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "block-column", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
