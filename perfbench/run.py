"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``paper-panel``, ``block-column``, ``served-mixed``
and ``dist-cold`` (see :mod:`workloads`).  The run sets the workload up
(several times, reporting the median), computes a scalar-engine
reference, then measures closed-loop requests for ``S`` seconds with
tracing off and checks every result against the reference.  With
``--trace 1`` it then installs the layer probes (:mod:`probes`),
measures again for ``S`` seconds, and reports the per-layer metrics
instead of the end-to-end ones.

Times are reported at the host's reference speed (:mod:`speed`): the
timed units, and the set-up steps, are timed between runs of fixed
reference work (a loop; a fresh interpreter's imports for the steps that
start processes), and scaled by how much slower or faster than usual
that work ran over the run.  dist-cold's phase is reported as measured.
The measured times are printed and kept in the report too.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (metric details, the machine fingerprint,
and for traced runs every stored span) is written under
``perfbench/out/``.  The exit code is 0 only if every request succeeded
and matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import probes
import speed
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("paper-panel", "block-column", "served-mixed",
                  "dist-cold")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: What ``setup_s`` counts as the program's imports, timed in a fresh
#: interpreter (the run's own imports are already cached).
IMPORTS = "import repro.analysis.sweep, repro.catalog, repro.service"

#: End-to-end metrics: (name, unit, better).  A *request* is one sweep
#: call (paper-panel, block-column, dist-cold) or one HTTP sweep request,
#: timed from send to ``done`` at the client (served-mixed).  A *unit*
#: is one sweep, or one round of the served mix.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


#: ``request_p90_ms`` is the 90th percentile only when at least ten
#: requests lie beyond it; a run with fewer requests (a few sweeps) has
#: no measurable tail, and reports its median there instead.
MIN_TAIL_SAMPLES = 100


def import_program(src: Path) -> None:
    """Import the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)


def timed_between(step, probe, probes) -> float:
    """Seconds ``step()`` takes; ``probe`` runs after it, and before it
    unless ``probes`` already ends with the one taken just before."""
    if not probes:
        probes.append(probe())
    started = perf_counter()
    step()
    seconds = perf_counter() - started
    probes.append(probe())
    return seconds


def fingerprint() -> dict:
    """The machine and software a result was measured on."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.sim.batch_kernels import numpy_backend
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # never look above the checkout
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() \
                else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_used": numpy_backend() is not None,
        "RTDVS_NO_NUMPY": os.environ.get("RTDVS_NO_NUMPY"),
        "git_commit": commit,
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values) -> dict:
    return {"median": percentile(values, 50), "p90": percentile(values, 90),
            "n": len(values)}


def end_to_end(setup_s, phase, factor, latency_kind, peak_mb) -> dict:
    """Every end-to-end metric with its median, p90 and sample count.

    Phase times are multiplied by ``factor`` (:func:`speed.factor`, or 1
    for a workload reported as measured); the measured unit times are
    kept next to them.  The request latency metrics are taken over the
    requests of ``latency_kind``.
    """
    latencies = summary([seconds * factor for kind, seconds
                         in phase.requests if kind == latency_kind])
    details = {
        "setup_s": setup_s,
        "wall_s": dict(summary([s * factor for s in phase.units]),
                       raw_median=percentile(phase.units, 50),
                       raw_samples=phase.units, speed_factor=factor),
        "requests_per_s": {"value": len(phase.requests)
                           / (phase.elapsed * factor)
                           if phase.elapsed else 0.0,
                           "n": len(phase.requests)},
        "request_p50_ms": {"value": latencies["median"] * 1e3,
                           "n": latencies["n"]},
        "request_p90_ms": {"value": (latencies["p90"] if latencies["n"]
                                     >= MIN_TAIL_SAMPLES
                                     else latencies["median"]) * 1e3,
                           "n": latencies["n"]},
        "peak_rss_mb": {"value": peak_mb},
        "failed_frac": {"value": phase.failed / phase.attempted
                        if phase.attempted else 1.0,
                        "n": phase.attempted},
    }
    details["wall_s"]["value"] = details["wall_s"]["median"]
    details["wall_s"]["samples"] = [s * factor for s in phase.units]
    for kind in sorted({kind for kind, _ in phase.requests}):
        stats = summary([s * factor * 1e3 for k, s in phase.requests
                         if k == kind])
        details[f"{kind}_request_ms"] = dict(stats, value=stats["median"])
    return details


def trace_summary(tracer, child_dumps, traced, plain, adjusted) -> dict:
    """Per-layer metrics of the traced phase, plus coverage/overhead."""
    totals = {name: list(values) for name, values in tracer.totals().items()}
    counters = dict(tracer.counters)
    for dump in child_dumps:
        for name, values in dump["totals"].items():
            entry = totals.setdefault(name, [0.0, 0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    roots = [name for name in totals if name.endswith(".request")]
    root_wall = sum(counters.get(name + ".wall_s", 0.0) for name in roots)
    root_self = sum(totals[name][0] for name in roots)
    counters["trace.coverage_frac"] = 1.0 - root_self / root_wall \
        if root_wall else 0.0

    def per_request(phase):
        factor = speed.factor(phase.probes) if adjusted else 1.0
        return phase.elapsed * factor / max(1, len(phase.requests))

    per_plain, per_traced = per_request(plain), per_request(traced)
    counters["trace.overhead_frac"] = per_traced / per_plain - 1.0 \
        if per_plain else 0.0
    return probes.layer_metrics(totals, counters, len(traced.requests))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for reports and scratch state")
    args = parser.parse_args(argv)

    # Stopped from outside: unwind through the ``finally`` below, which
    # stops the server and worker processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    workdir = args.out / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    failures = []
    tracer = None
    child_dumps = []
    traced = None
    try:
        # Importing and the repeated set-up (server or worker start) start
        # processes, so they are scaled by the import probe; the one-time
        # prepare (the served pre-warm sweeps) by the loop.
        import_probes, loop_probes = [], []
        imports = [timed_between(lambda: import_program(src),
                                 speed.import_probe, import_probes)
                   for _ in range(SETUP_REPEATS)]
        prepare_s = timed_between(workload.prepare, speed.probe,
                                  loop_probes)
        setups = [timed_between(workload.setup, speed.import_probe,
                                import_probes)
                  for _ in range(SETUP_REPEATS)]
        setup_raw_s = percentile(imports, 50) + prepare_s \
            + percentile(setups, 50)
        workload.reference()
        plain = workload.measure(args.seconds)
        if args.trace:
            tracer = Tracer()
            probes.install(tracer)
            try:
                workload.start_trace(tracer)
                traced = workload.measure(args.seconds, tracer)
            finally:
                tracer.uninstall()
            dump = workload.finish_trace(tracer)
            if dump:
                child_dumps.append(dump)
        failures.extend(workload.verify())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            + workload.child_peak_kb()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = plain.attempted + (traced.attempted if traced else 0)
    failed = plain.failed + (traced.failed if traced else 0) + len(failures)
    errors = plain.errors + (traced.errors if traced else []) + failures
    # Set-up is reported at the reference speed on every workload.
    import_factor = speed.factor(import_probes, speed.IMPORT_REFERENCE_S)
    loop_factor = speed.factor(loop_probes)
    setup_s = (percentile(imports, 50) + percentile(setups, 50)) \
        * import_factor + prepare_s * loop_factor
    details = end_to_end(
        {"value": setup_s, "raw": setup_raw_s,
         "import_s": percentile(imports, 50), "prepare_s": prepare_s,
         "setup_runs": setups, "speed_factor": import_factor,
         "loop_factor": loop_factor},
        plain, speed.factor(plain.probes) if workload.speed_adjusted
        else 1.0, workload.latency_kind, peak_kb / 1024.0)
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "end_to_end": details,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for name, entry in details.items():
        unit = units.get(name, "ms" if name.endswith("_ms") else "ratio")
        extra = "".join(f" {key}={entry[key]:.6g}" for key in
                        ("p90", "raw", "raw_median", "speed_factor")
                        if key in entry)
        count = f" n={entry['n']}" if "n" in entry else ""
        print(f"  {name:<24} {entry['value']:.6g} {unit}{extra}{count}")
    if args.trace:
        layers = trace_summary(tracer, child_dumps, traced, plain,
                               workload.speed_adjusted)
        report["per_layer"] = layers
        report["spans"] = {"load": tracer.dump(), "children": child_dumps}
        for name, unit, _ in probes.PER_LAYER:
            print(f"  {name:<34} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in probes.PER_LAYER}
    else:
        metrics = {name: {"value": details[name]["value"], "unit": unit}
                   for name, unit, _ in END_TO_END}
    for error in errors:
        print(f"  FAILED: {error}")
    report_path = args.out / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"  report: {report_path}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
