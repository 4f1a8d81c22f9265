"""The benchmark's four workloads.

Each workload turns the workload seed into the configs and specs the
program receives, sets itself up (:meth:`prepare` once, then
:meth:`setup`, which the runner repeats), computes a scalar-engine
reference outside any timed phase, and measures closed-loop requests
for a given number of seconds (:meth:`measure`).  Every request's
result tables are compared bit for bit with the reference; a mismatch
or an exception is a failed request.

* ``paper-panel`` -- the catalog's fig9 10-task panel at 1 of its 8
  quick task sets (six paper policies plus the bound, residency on as
  declared) through ``utilization_sweep`` with the default engine and a
  fresh cell cache.
* ``block-column`` -- one cold sweep column at one task count on the
  block engine, no residency, no cache, one worker.
* ``served-mixed`` -- two keep-alive clients against a ``rtdvs serve``
  process: warm catalog panels plus small cold inline specs, some sent
  by both clients at once.
* ``dist-cold`` -- a cold sweep of many cheap cells through
  ``RemoteCellExecutor`` and loopback ``rtdvs worker`` processes,
  started fresh before every sweep.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

sweep_mod = importlib.import_module("repro.analysis.sweep")
catalog_mod = importlib.import_module("repro.catalog")
schema_mod = importlib.import_module("repro.catalog.schema")
executor_mod = importlib.import_module("repro.analysis.executor")

#: Worker processes for reference sweeps (the local ``CellExecutor``
#: with the scalar engine) and the distributed fleet: at most two, and
#: never more than this process may use.
FLEET = max(1, min(2, executor_mod.effective_cpu_count()))


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for one input of the workload."""
    return random.Random(f"{seed}/{label}").randrange(2 ** 31)


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for the program's subprocesses: the checkout's
    sources first, temporary files inside the run's directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_process(proc: subprocess.Popen, sig=signal.SIGINT,
                 timeout: float = 5.0) -> None:
    """Ask a child to stop, then make sure it has.

    A server normally stops within 0.2 s of SIGINT; about one in a few
    dozen stops hangs, so the grace period is short.
    """
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def reset_process_memos() -> None:
    """Empty the program's process-wide memos so each timed sweep starts
    as cold as a fresh ``rtdvs run`` process (the reference sweep and
    earlier requests would otherwise have filled them).

    Both are private names; if either is renamed this raises, and the
    run fails, rather than timing later sweeps with warm memos.
    """
    importlib.import_module("repro.model.schedulability")._rta_memo_clear()
    sweep_mod._GENERATOR_MEMO.clear()


def result_tables(result) -> Dict[str, object]:
    """Every table of a ``SweepResult`` as plain, comparable values."""
    def plain(table):
        return {"xs": list(table.xs), "labels": table.labels(),
                "rows": table.rows()}
    tables = {"raw": plain(result.raw),
              "normalized": plain(result.normalized),
              "std": plain(result.std_table()),
              "rm_fallbacks": result.rm_fallbacks}
    for policy, table in sorted(result.residency.items()):
        tables[f"residency/{policy}"] = plain(table)
    return tables


def diff_tables(got: Dict[str, object], want: Dict[str, object]
                ) -> Optional[str]:
    """Name of the first table that differs, or ``None`` if identical."""
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            return name
    return None


def served_tables(event: Dict[str, object]) -> Dict[str, object]:
    """The tables of one served ``result`` event."""
    return {"xs": event["xs"], "labels": event["labels"],
            "raw": event["raw"], "normalized": event["normalized"]}


def reference_served(result) -> Dict[str, object]:
    """The part of an in-process result a served ``result`` carries."""
    return {"xs": list(result.raw.xs), "labels": result.raw.labels(),
            "raw": result.raw.rows(), "normalized": result.normalized.rows()}


class Phase:
    """What one measured phase did."""

    def __init__(self):
        #: Seconds per timed unit (a sweep, or one round of the mix).
        self.units: List[float] = []
        #: ``(kind, seconds)`` per request.
        self.requests: List[Tuple[str, float]] = []
        #: Host-speed probes (:mod:`speed`) taken around the units.
        self.probes: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.elapsed = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Workload:
    """Shared shape of a workload; see the module docstring."""

    name = ""
    why = ""
    #: Whether the run reports this workload's times at the reference
    #: host speed (:mod:`speed`): true where the timed work is CPU-bound,
    #: so that its time follows the host's speed.
    speed_adjusted = True
    #: The kind of request ``request_p50_ms`` and ``request_p90_ms`` are
    #: taken over.
    latency_kind = "sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._cells = 0

    def prepare(self) -> None:
        """One-time set-up (counted in ``setup_s``)."""

    def setup(self) -> None:
        """One repeatable set-up step; the last one stays live."""

    def reference(self) -> None:
        """Scalar-engine reference results (not timed)."""

    def measure(self, seconds: float, tracer=None) -> Phase:
        raise NotImplementedError

    def start_trace(self, tracer) -> None:
        """Called once the probes are installed, before the traced phase."""

    def finish_trace(self, tracer) -> Dict[str, object]:
        """Called after the traced phase; returns spans from children."""
        return {}

    def verify(self) -> List[str]:
        """Checks that need the whole phase (not timed)."""
        return []

    def child_peak_kb(self) -> int:
        return 0

    def teardown(self) -> None:
        """Stop every child process and remove temporary state."""

    def fresh_dir(self, prefix: str) -> Path:
        self._cells += 1
        path = self.workdir / f"{prefix}-{self._cells}"
        path.mkdir(parents=True)
        return path


class SweepWorkload(Workload):
    """A workload whose request is one ``utilization_sweep`` call."""

    config = None
    uses_cache = False
    #: Fewest sweeps a measured phase holds, however long they take, so
    #: that ``wall_s`` is a median of several.
    min_units = 5

    def resolve(self, cache_dir: Optional[str]):
        """The config one request sweeps."""
        return replace(self.config, cache_dir=cache_dir)

    def sweep(self, config):
        return sweep_mod.utilization_sweep(config)

    def reference(self) -> None:
        config = replace(self.config, engine="scalar", cache_dir=None,
                         workers=FLEET)
        self.expected = result_tables(sweep_mod.utilization_sweep(config))

    def before_request(self) -> None:
        """Untimed preparation for the next request."""
        reset_process_memos()

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Sweep for ``seconds`` and at least :attr:`min_units` times.

        ``phase.elapsed`` is the time spent inside the sweeps, so the
        untimed preparation between them does not count as a request's.
        Each sweep is timed between two host-speed probes.
        """
        phase = Phase()
        started = perf_counter()
        while perf_counter() - started < seconds \
                or len(phase.units) < self.min_units:
            self.before_request()
            cache_dir = str(self.fresh_dir("cells")) if self.uses_cache \
                else None
            phase.attempted += 1
            before = speed.probe()
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.request(f"{self.name}.request",
                                        f"{self.name}-{phase.attempted}"):
                        result = self.sweep(self.resolve(cache_dir))
                else:
                    result = self.sweep(self.resolve(cache_dir))
            except Exception as exc:  # a failed request, not a crash
                phase.fail(f"sweep raised {exc!r}")
                result = None
            seconds_taken = perf_counter() - t0
            phase.probes += [before, speed.probe()]
            phase.units.append(seconds_taken)
            phase.requests.append(("sweep", seconds_taken))
            if result is not None:
                mismatch = diff_tables(result_tables(result), self.expected)
                if mismatch is not None:
                    phase.fail(f"table {mismatch!r} differs from the "
                               "scalar reference")
                if tracer is not None:
                    self.count_result(tracer, result)
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        phase.elapsed = sum(phase.units)
        return phase

    def count_result(self, tracer, result) -> None:
        """Per-layer counters read off a traced request's result."""
        probes = importlib.import_module("probes")
        if result.block_cells or result.block_fallbacks:
            tracer.count("sim.block_runs",
                         result.simulated_cells * len(
                             sweep_mod.sweep_result_labels(result.config)[:-1])
                         + result.rm_fallbacks)
            for name, count in probes.fallback_counters(
                    result.block_fallbacks).items():
                tracer.count(name, count)


class PaperPanel(SweepWorkload):
    name = "paper-panel"
    why = ("the catalog fig9 10-task panel at 1 of its 8 quick task sets, "
           "all six paper policies with residency, default engine, fresh "
           "cell cache")
    scenario, panel = "fig9", "10-tasks"
    #: Task sets per utilization point.  The whole quick panel (8 sets)
    #: takes 12-16 s, so a run would hold one sweep; its first set keeps
    #: every utilization point, policy and collector, takes 1.2-2 s, so
    #: a run holds about ten sweeps, and still passes the fig9 shape
    #: checks.
    N_SETS = 1
    uses_cache = True

    def resolve(self, cache_dir: Optional[str]):
        """Resolve the panel from the catalog, as ``rtdvs run`` does.

        The catalog fixes the panel's own seed, so the workload seed
        does not change this workload's inputs.
        """
        return replace(catalog_mod.panel_sweep_config(
            self.scenario, self.panel, quick=True, cache_dir=cache_dir),
            n_sets=self.N_SETS)

    def setup(self) -> None:
        catalog_mod.load_catalog(refresh=True)
        self.config = self.resolve(None)

    def verify(self) -> List[str]:
        return fig9_shape_failures(self.expected, self.config.n_tasks)


class BlockColumn(SweepWorkload):
    name = "block-column"
    why = ("one cold sweep column on the block engine, six paper "
           "policies, no residency, no cache, one worker")
    #: One column: every cell shares the task-set recipe of one
    #: utilization point, so the block engine fuses them into one pass.
    #: The seed is fixed like a catalog panel's: a column this size costs
    #: up to 10% more or less from one task-set draw to another, which
    #: would drown the changes the workload is meant to show.
    SPEC = {"n_tasks": 8, "n_sets_quick": 24, "duration_quick": 1000.0,
            "utilizations": [0.7], "seed": 2001}

    def setup(self) -> None:
        spec = schema_mod.PanelSpec.from_dict(dict(self.SPEC,
                                                   label="block-column"))
        self.config = spec.sweep_config(quick=True, engine="block",
                                        workers=1)


class DistCold(SweepWorkload):
    name = "dist-cold"
    why = ("a cold sweep of many cheap cells through RemoteCellExecutor "
           "and loopback rtdvs worker processes, started fresh per sweep")
    SPEC = {"n_tasks": 3, "n_sets_quick": 40, "duration_quick": 50.0}
    #: A sweep here is mostly the coordinator waiting on its workers'
    #: frames, which the loop probe does not follow: in two sets of ten
    #: runs its measured time spread 0.05 while block-column's spread
    #: 0.2-0.32, so it is reported as measured.
    speed_adjusted = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.executor = None
        self.procs: List[subprocess.Popen] = []
        self._peak_kb = 0

    def setup(self) -> None:
        self._stop_fleet()
        spec = schema_mod.PanelSpec.from_dict(dict(
            self.SPEC, label="dist-cold",
            seed=derive_seed(self.seed, "dist-cold")))
        self.config = spec.sweep_config(quick=True)
        self._start_fleet()

    def before_request(self) -> None:
        """A fresh coordinator and worker fleet for every sweep.

        Workers keep process-wide memos (response-time analysis) and a
        per-digest context cache, and every sweep sends them the same
        cells; fresh processes make each timed sweep as cold as the
        first.  The coordinator is replaced too, because it only notices
        a stopped idle worker when it next has a lease for it.
        """
        super().before_request()
        self._stop_fleet()
        self._start_fleet()

    def _start_fleet(self) -> None:
        dist = importlib.import_module("repro.dist")
        self.executor = dist.RemoteCellExecutor()
        address = f"{self.executor.host}:{self.executor.port}"
        for _ in range(FLEET):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--connect",
                 address, "--quiet"],
                env=child_env(self.workdir), cwd=str(self.workdir),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        if not self.executor.wait_for_workers(FLEET, timeout=60):
            raise RuntimeError("dist-cold: worker fleet did not connect")

    def _stop_fleet(self) -> None:
        """Shut the coordinator down, which tells idle workers to exit,
        and make sure they have."""
        if self.procs:
            self._peak_kb = max(self._peak_kb, self.child_peak_kb())
        if self.executor is not None:
            executor, self.executor = self.executor, None
            executor.shutdown()
            # ``shutdown`` closes the listener but leaves its accept
            # thread blocked in accept(); one connection releases it.
            try:
                socket.create_connection((executor.host, executor.port),
                                         timeout=5).close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                stop_process(proc, sig=signal.SIGTERM, timeout=30)
        self.procs = []

    def sweep(self, config):
        return sweep_mod.utilization_sweep(config, executor=self.executor)

    def count_result(self, tracer, result) -> None:
        super().count_result(tracer, result)
        tracer.count("dist.retries", result.retries)
        # Each sweep has its own coordinator, so its totals are the
        # sweep's.
        tracer.count("dist.ipc_bytes", self.executor.ipc_bytes)
        tracer.count("dist.duplicates_dropped",
                     self.executor.duplicates_dropped)

    def child_peak_kb(self) -> int:
        return max(self._peak_kb, sum(peak_rss_kb(p.pid)
                                      for p in self.procs))

    def teardown(self) -> None:
        self._stop_fleet()


class ServedMixed(Workload):
    name = "served-mixed"
    why = ("two keep-alive clients against an rtdvs serve process: warm "
           "catalog panels plus cold inline specs, some sent by both")
    #: Warm catalog panels (quick scale), pre-warmed into the cache: the
    #: first panel the catalog declares for each of fig9, fig10 and
    #: fig11 (fig9/5-tasks is also the panel the service benchmark in
    #: ``benchmarks/service_workload.py`` serves for parity).
    WARM = (("fig9", "5-tasks"), ("fig10", "idle-0.01"),
            ("fig11", "machine0"))
    #: Per client and round: one cold spec both clients send at once,
    #: this many warm panels, then one cold spec of its own.  The 80/20
    #: warm/cold share is an assumption, not measured traffic: the
    #: repository records no request log.
    WARM_PER_ROUND = 8
    CLIENTS = 2
    #: The latency metrics are the warm requests': the p90 of all
    #: requests falls among the cold ones, which are a fifth of the
    #: requests and spread twice as much between runs.  Cold requests still count in ``wall_s`` and
    #: ``requests_per_s``, and their latency is in the report.
    latency_kind = "warm"
    #: Cold inline specs have the shape of the service benchmark's
    #: dedup spec (4 cells); only the seed changes, derived from the
    #: workload seed so no run finds another run's cells in its cache.
    COLD_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 200.0,
                 "utilizations": [0.5, 0.9]}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cache_dir = workdir / "served-cells"
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.trace_path: Optional[Path] = None
        self.cold: Dict[str, Tuple[dict, List[dict]]] = {}
        self._peak_kb = 0
        self._servers = 0

    # -- set-up -----------------------------------------------------------
    def prepare(self) -> None:
        """Pre-warm the cell cache with the warm panels; the in-process
        results are also the reference the served tables must match."""
        self.expected = {}
        for scenario, panel in self.WARM:
            config = catalog_mod.panel_sweep_config(
                scenario, panel, quick=True, cache_dir=str(self.cache_dir),
                workers=FLEET)
            self.expected[(scenario, panel)] = reference_served(
                sweep_mod.utilization_sweep(config))

    def setup(self) -> None:
        self.start_server()
        for _ in range(self.CLIENTS):
            with self.client() as client:
                client.healthz()

    def start_server(self, trace_path: Optional[Path] = None) -> None:
        self.stop_server()
        self._servers += 1
        log = self.workdir / f"server-{self._servers}.out"
        command = [sys.executable, str(HERE / "serve.py"),
                   "--cache-dir", str(self.cache_dir)]
        if trace_path is not None:
            command += ["--trace-out", str(trace_path)]
        with open(log, "wb") as out:
            self.server = subprocess.Popen(
                command, env=child_env(self.workdir), cwd=str(self.workdir),
                stdout=out, stderr=subprocess.STDOUT)
        self.trace_path = trace_path
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = log.read_text(errors="replace")
            if "rtdvs-serve ready" in text:
                line = text.split("rtdvs-serve ready", 1)[1].split("\n")[0]
                self.port = int(line.split("port=")[1].split()[0])
                return
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"served-mixed: server did not start:\n"
                           f"{log.read_text(errors='replace')[-2000:]}")

    def stop_server(self, grace: float = 5.0) -> None:
        if self.server is None:
            return
        self._peak_kb = max(self._peak_kb, peak_rss_kb(self.server.pid))
        stop_process(self.server, timeout=grace)
        self.server = None

    def client(self):
        service = importlib.import_module("repro.service")
        return service.SweepServiceClient(port=self.port, timeout=120.0)

    def cold_spec(self, label: str) -> dict:
        return dict(self.COLD_SPEC, seed=derive_seed(self.seed, label))

    # -- measurement ------------------------------------------------------
    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        #: ``(end of the last round, start of the next)`` per barrier,
        #: with a host-speed probe taken between the two.
        state = {"round": 0, "stop": False, "marks": [], "probes": []}
        phase_tag = "traced" if tracer is not None else "plain"
        started = perf_counter()

        def next_round():
            ended = perf_counter()
            state["probes"].append(speed.probe())
            state["marks"].append((ended, perf_counter()))
            state["stop"] = ended - started >= seconds
            state["round"] += 1

        barrier = threading.Barrier(self.CLIENTS, action=next_round,
                                    timeout=300)

        def one(client, kind: str, request: dict, expected, label: str):
            request_id = f"{phase_tag}-{label}"
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.request("served.request", request_id):
                        response = client.submit_collect(request)
                        latency = perf_counter() - t0
                        done = response["done"] or {}
                        server_s = float(done.get("elapsed_s", 0.0))
                        tracer.external("service.server_request", t0,
                                        server_s)
                        tracer.count("service.server_request_s", server_s)
                        tracer.count("service.client_s", latency - server_s)
                else:
                    response = client.submit_collect(request)
                    latency = perf_counter() - t0
                problem = None
                if response["done"] is None:
                    problem = "stream ended without a done event"
                elif kind == "warm" and \
                        response["done"]["simulated_cells"]:
                    problem = "a warm request simulated cells"
                elif expected is not None and [
                        served_tables(r) for r in response["results"]
                ] != expected:
                    problem = "tables differ from the in-process reference"
            except Exception as exc:  # a failed request, not a crash
                latency, problem = perf_counter() - t0, repr(exc)
            with lock:
                phase.attempted += 1
                phase.requests.append((kind, latency))
                if problem is not None:
                    phase.fail(f"{label}: {problem}")
                elif expected is None:
                    self.cold[f"{phase_tag}-{label}"] = (
                        request["spec"], response["results"])

        def run_client(index: int) -> None:
            try:
                client = self.client()
            except Exception as exc:
                with lock:
                    phase.attempted += 1
                    phase.fail(f"client {index}: {exc!r}")
                barrier.abort()
                return
            with client:
                try:
                    while True:
                        barrier.wait()
                        if state["stop"]:
                            return
                        round_no = state["round"]
                        shared = f"shared-{phase_tag}-{round_no}"
                        one(client, "cold", {"spec": self.cold_spec(shared)},
                            None, f"{shared}-c{index}")
                        for slot in range(self.WARM_PER_ROUND):
                            pick = (round_no * self.WARM_PER_ROUND + slot
                                    + index) % len(self.WARM)
                            scenario, panel = self.WARM[pick]
                            one(client, "warm",
                                {"scenario": scenario, "panel": panel},
                                [self.expected[(scenario, panel)]],
                                f"warm-{round_no}-{slot}-c{index}")
                        own = f"own-{phase_tag}-{round_no}-c{index}"
                        one(client, "cold", {"spec": self.cold_spec(own)},
                            None, own)
                except threading.BrokenBarrierError:
                    return
                except Exception as exc:  # counted, so the run fails
                    with lock:
                        phase.attempted += 1
                        phase.fail(f"client {index}: {exc!r}")
                    barrier.abort()

        threads = [threading.Thread(target=run_client, args=(index,),
                                    name=f"client-{index}", daemon=True)
                   for index in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 300)
            if thread.is_alive():
                barrier.abort()
                raise RuntimeError("served-mixed: a client did not finish")
        if barrier.broken and not phase.failed:
            phase.attempted += 1
            phase.fail("a client's loop was cut short")
        marks, probes = state["marks"], state["probes"]
        phase.probes = list(probes)
        phase.units = [marks[i][0] - marks[i - 1][1]
                       for i in range(1, len(marks))]
        phase.elapsed = sum(phase.units) if phase.units else \
            perf_counter() - started
        return phase

    # -- tracing ------------------------------------------------------------
    def start_trace(self, tracer) -> None:
        self.start_server(trace_path=self.workdir / "server-trace.json")
        with self.client() as client:
            self._stats_before = client.stats()

    def finish_trace(self, tracer) -> Dict[str, object]:
        with self.client() as client:
            after = client.stats()
        for key in ("result_reuses", "coalesced_cells", "bytes_streamed",
                    "errors", "simulated_cells"):
            tracer.count(f"service.{key}",
                         after[key] - self._stats_before[key])
        path = self.trace_path
        self.stop_server(grace=30.0)  # it writes its spans as it stops
        if path is None or not path.exists():
            raise RuntimeError("served-mixed: the traced server wrote no "
                               "trace")
        return json.loads(path.read_text())

    # -- checks -------------------------------------------------------------
    def verify(self) -> List[str]:
        """Cold served tables against in-process scalar sweeps."""
        failures = []
        references: Dict[str, object] = {}
        for label, (spec, results) in sorted(self.cold.items()):
            key = json.dumps(spec, sort_keys=True)
            if key not in references:
                config = schema_mod.PanelSpec.from_dict(
                    dict(spec, label="inline")).sweep_config(quick=True)
                references[key] = [reference_served(
                    sweep_mod.utilization_sweep(config))]
            if [served_tables(r) for r in results] != references[key]:
                failures.append(f"{label}: cold tables differ from the "
                                "in-process reference")
        return failures

    def child_peak_kb(self) -> int:
        live = peak_rss_kb(self.server.pid) if self.server else 0
        return max(self._peak_kb, live)

    def teardown(self) -> None:
        self.stop_server()


def fig9_shape_failures(tables: Dict[str, object], n_tasks: int
                        ) -> List[str]:
    """The per-panel fig9 reproduction checks (see
    ``repro.experiments.fig9``) on a panel's tables."""
    normalized = tables["normalized"]
    xs, labels = normalized["xs"], normalized["labels"]
    column = {label: [row[i] for row in normalized["rows"]]
              for i, label in enumerate(labels)}
    at = xs.index(0.5)
    la, cc = column["laEDF"][at], column["ccEDF"][at]
    st, rm = column["staticEDF"][at], column["staticRM"][at]
    bound = column["bound"][at]
    checks = [
        (f"{n_tasks} tasks: RT-DVS saves energy at U=0.5", la < 0.9),
        (f"{n_tasks} tasks: laEDF within 15% of the bound at U=0.5",
         la <= bound * 1.15 + 0.02),
        (f"{n_tasks} tasks: laEDF <= ccEDF <= staticEDF at U=0.5",
         la <= cc + 1e-6 and cc <= st + 1e-6),
        (f"{n_tasks} tasks: staticEDF <= staticRM at U=0.5",
         st <= rm + 1e-6),
    ]
    for label in ("laEDF", "ccEDF", "staticEDF", "staticRM", "ccRM"):
        checks.append((f"{n_tasks} tasks: bound never exceeds {label}",
                       all(b <= y + 0.05 for b, y in
                           zip(column["bound"], column[label]))))
    for name, table in tables.items():
        if name.startswith("residency/"):
            worst = max(abs(sum(row) - 1.0) for row in table["rows"])
            checks.append((f"{name} fractions sum to 1", worst < 1e-9))
    return [f"fig9 shape check failed: {name}"
            for name, ok in checks if not ok]


WORKLOADS = {cls.name: cls for cls in
             (PaperPanel, BlockColumn, ServedMixed, DistCold)}

