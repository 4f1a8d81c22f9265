"""Command-line front-end: ``rtdvs`` (or ``python -m repro``).

Subcommands
-----------
``list``
    Show available experiments, policies, and machine presets.
``run <experiment> [--full] [--workers N] [--csv DIR] [--no-charts]``
    Run one experiment (``table1``, ``table4``, ``traces``, ``fig9`` ...)
    and print its report.
``run-all [--full] [--workers N] [--out DIR]``
    Run every experiment; write per-experiment reports/CSVs to DIR.
``simulate --tasks "C:P,C:P,..." --policy NAME [options]``
    Simulate an ad-hoc task set and print the energy summary.
``workloads [NAME] [--policy NAME]``
    List the named embedded workloads, or simulate one.
``validate --tasks ... --policy NAME [options]``
    Simulate, then run the independent schedule validator on the trace.
``obs summarize FILE [--csv PATH] [--residency-csv PATH]``
    Render a metrics JSON-lines archive (written by ``simulate
    --metrics``) as a text report; optionally re-export as CSV.
``cache [info|clean] [--dir PATH] [--max-bytes N] [--max-age S]``
    Inspect or trim the content-addressed sweep cell cache.  ``info``
    reports entry count, total bytes and the entry-age spread (for
    sizing eviction bounds); ``clean`` with ``--max-bytes``/``--max-age``
    runs one LRU eviction sweep instead of emptying everything.
``serve [--port N] [--workers N] [--dist-port N] [--max-bytes N] ...``
    Run the sweep service: an HTTP/JSON server answering declarative
    sweep requests cache-first, with single-flight dedup of concurrent
    identical cells and per-tenant admission quotas (429 + Retry-After).
    ``--dist-port`` additionally opens a distributed work queue; cold
    cells are then simulated by ``rtdvs worker`` processes instead of
    in-process workers.
``worker --connect HOST:PORT [--reconnect N]``
    Run one sweep worker: pull leased cell batches from a coordinator
    (``serve --dist-port`` or a :class:`repro.dist.RemoteCellExecutor`),
    simulate them, stream outcomes back.
``submit [SCENARIO] [--spec JSON] [--request-id ID | --resume ID] ...``
    Submit one sweep request to a running service and stream its NDJSON
    events (``--json``) or a human summary.  ``--request-id`` journals
    the run durably under the server's cache dir; ``--resume`` re-submits
    a journaled request, skipping every already-completed cell.
``catalog [list|show|run|audit]``
    The declarative scenario catalog: list the named entries, show one
    entry's canonical JSON, run the experiment a scenario describes
    (identical to ``run`` — the drivers resolve their parameters from
    the catalog), or audit entries by replaying cells with traces and
    re-deriving energies/counters/aggregates independently.

Sweep-driven commands accept ``--workers auto`` (CPU-count derived), show
per-sweep progress/ETA lines with ``--progress``, and reuse cached cell
results by default (disable with ``--no-cache``, redirect with
``--cache-dir``) — an interrupted ``run-all --full`` resumes instead of
restarting.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.cellcache import CellCache, default_cache_dir
from repro.analysis.executor import resolve_workers
from repro.core import available_policies, make_policy
from repro.experiments.runall import (ALL_EXPERIMENTS, run_all,
                                      run_experiment, summary_table)
from repro.hw.machine import MACHINE_PRESETS
from repro.model.task import Task, TaskSet
from repro.sim.engine import simulate


def _workers_arg(text: str):
    """argparse type for ``--workers``: a positive integer or ``auto``."""
    try:
        return resolve_workers(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every sweep-driving command."""
    parser.add_argument("--workers", type=_workers_arg, default=1,
                        metavar="N|auto",
                        help="parallel worker processes for sweeps "
                             "('auto' = CPU count)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=default_cache_dir(),
                        help="content-addressed cell-result cache "
                             "(default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cell-result cache")
    parser.add_argument("--progress", action="store_true",
                        help="print per-sweep progress/ETA lines to stderr")


def _cache_dir_from(args: argparse.Namespace):
    return None if args.no_cache else args.cache_dir


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output was piped into something like `head`; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtdvs",
        description="RT-DVS reproduction (Pillai & Shin, SOSP 2001)")
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list experiments and policies")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", choices=sorted(ALL_EXPERIMENTS))
    p_run.add_argument("--full", action="store_true",
                       help="paper-scale parameters (slow)")
    _add_sweep_options(p_run)
    p_run.add_argument("--csv", metavar="DIR",
                       help="also export the data tables as CSV")
    p_run.add_argument("--no-charts", action="store_true",
                       help="omit ASCII charts from the report")
    p_run.set_defaults(handler=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--full", action="store_true")
    _add_sweep_options(p_all)
    p_all.add_argument("--out", metavar="DIR",
                       help="write reports and CSVs into DIR")
    p_all.add_argument("--audit", action="store_true",
                       help="after the experiments, audit the whole "
                            "scenario catalog (small-N replay profile); "
                            "non-zero exit on any violation; with --out, "
                            "writes audit-report.json there")
    p_all.set_defaults(handler=_cmd_run_all)

    p_sim = sub.add_parser("simulate", help="simulate an ad-hoc task set")
    p_sim.add_argument("--tasks", required=True,
                       help="comma-separated C:P pairs, e.g. '3:8,3:10,1:14'")
    p_sim.add_argument("--policy", default="laEDF",
                       help=f"one of {available_policies()}")
    p_sim.add_argument("--machine", default="machine0",
                       choices=sorted(MACHINE_PRESETS))
    p_sim.add_argument("--demand", default="worst",
                       help="'worst', 'uniform', or a fraction like 0.9")
    p_sim.add_argument("--duration", type=float, default=None)
    p_sim.add_argument("--trace", action="store_true",
                       help="print the execution trace")
    p_sim.add_argument("--metrics", metavar="FILE", default=None,
                       help="collect run metrics (repro.obs) and append "
                            "them to FILE as JSON-lines; '-' prints the "
                            "summary instead")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_work = sub.add_parser("workloads",
                            help="list or simulate named workloads")
    p_work.add_argument("name", nargs="?",
                        help="workload to simulate (omit to list)")
    p_work.add_argument("--policy", default="laEDF")
    p_work.add_argument("--machine", default="machine0",
                        choices=sorted(MACHINE_PRESETS))
    p_work.set_defaults(handler=_cmd_workloads)

    p_val = sub.add_parser(
        "validate",
        help="simulate and independently validate the schedule")
    p_val.add_argument("--tasks", required=True,
                       help="comma-separated C:P pairs")
    p_val.add_argument("--policy", default="laEDF")
    p_val.add_argument("--machine", default="machine0",
                       choices=sorted(MACHINE_PRESETS))
    p_val.add_argument("--demand", default="worst")
    p_val.add_argument("--duration", type=float, default=None)
    p_val.set_defaults(handler=_cmd_validate)

    p_cmp = sub.add_parser(
        "compare", help="compare policies on one workload")
    group = p_cmp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tasks", help="comma-separated C:P pairs")
    group.add_argument("--workload", help="a named workload")
    p_cmp.add_argument("--policies", default=None,
                       help="comma-separated policy names "
                            "(default: the paper's six)")
    p_cmp.add_argument("--machine", default="machine0",
                       choices=sorted(MACHINE_PRESETS))
    p_cmp.add_argument("--demand", default="worst")
    p_cmp.add_argument("--duration", type=float, default=None)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (metrics archives)")
    obs_sub = p_obs.add_subparsers(dest="obs_command")
    p_obs.set_defaults(handler=_cmd_obs_help, obs_parser=p_obs)
    p_obs_sum = obs_sub.add_parser(
        "summarize", help="render a metrics JSON-lines archive")
    p_obs_sum.add_argument("file", help="metrics .jsonl file "
                                        "(from simulate --metrics)")
    p_obs_sum.add_argument("--csv", metavar="PATH", default=None,
                           help="also export flat per-run CSV to PATH")
    p_obs_sum.add_argument("--residency-csv", metavar="PATH", default=None,
                           help="also export per-frequency residency "
                                "rows to PATH")
    p_obs_sum.set_defaults(handler=_cmd_obs_summarize)

    p_cache = sub.add_parser(
        "cache", help="inspect or empty the sweep cell cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command")
    p_cache.set_defaults(handler=_cmd_cache_help, cache_parser=p_cache)
    for name, help_text, handler in (
            ("info", "show cache location, entry count, size and ages",
             _cmd_cache_info),
            ("clean", "remove cached cell results (all of them, or an "
                      "LRU sweep with --max-bytes/--max-age)",
             _cmd_cache_clean)):
        p_sub = cache_sub.add_parser(name, help=help_text)
        p_sub.add_argument("--dir", metavar="DIR", dest="cache_dir",
                           default=default_cache_dir(),
                           help="cache directory (default: %(default)s)")
        if name == "clean":
            p_sub.add_argument("--max-bytes", type=int, default=None,
                               metavar="N",
                               help="evict least-recently-used entries "
                                    "until the cache fits in N bytes")
            p_sub.add_argument("--max-age", type=float, default=None,
                               metavar="SECONDS",
                               help="evict entries unused for more than "
                                    "SECONDS")
        p_sub.set_defaults(handler=handler)

    p_serve = sub.add_parser(
        "serve", help="run the sweep service (HTTP/JSON, NDJSON streams)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="listen port; 0 binds an ephemeral port "
                              "(default: %(default)s)")
    p_serve.add_argument("--workers", type=_workers_arg, default="auto",
                         metavar="N|auto",
                         help="cell executor workers (default: auto = "
                              "effective CPUs)")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         default=default_cache_dir(),
                         help="cell cache directory (default: %(default)s)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the warm path (every cell "
                              "simulates)")
    p_serve.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="bound the cache to N bytes (LRU eviction)")
    p_serve.add_argument("--max-age", type=float, default=None,
                         metavar="SECONDS",
                         help="evict cache entries unused for SECONDS")
    p_serve.add_argument("--sweep-interval", type=float, default=300.0,
                         metavar="SECONDS",
                         help="period of the background eviction sweep "
                              "when bounds are set (default: %(default)s)")
    p_serve.add_argument("--tenant-inflight", type=int, default=4,
                         metavar="N",
                         help="per-tenant concurrent request budget "
                              "(default: %(default)s)")
    p_serve.add_argument("--retry-after", type=float, default=1.0,
                         metavar="SECONDS",
                         help="back-off hint sent with HTTP 429 "
                              "(default: %(default)s)")
    p_serve.add_argument("--dist-port", type=int, default=None, metavar="N",
                         help="also open a distributed work queue on this "
                              "port (0 = ephemeral) and serve cold cells "
                              "off connected 'rtdvs worker' processes "
                              "instead of in-process workers")
    p_serve.add_argument("--lease-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="distributed lease deadline; a worker that "
                              "misses heartbeats this long loses its cells "
                              "back to the queue (default: %(default)s)")
    p_serve.set_defaults(handler=_cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="run one distributed sweep worker")
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator work-queue endpoint (the "
                               "dist_port of 'rtdvs serve --dist-port')")
    p_worker.add_argument("--reconnect", type=int, default=0, metavar="N",
                          help="re-dial up to N times after a dropped "
                               "connection (an orderly shutdown never "
                               "re-dials; default: %(default)s)")
    p_worker.add_argument("--reconnect-delay", type=float, default=0.5,
                          metavar="SECONDS",
                          help="base pause between re-dials; it doubles "
                               "per re-dial (with jitter) up to 2 s "
                               "(default: %(default)s)")
    p_worker.add_argument("--max-leases", type=int, default=None,
                          metavar="N",
                          help="exit after simulating N leases "
                               "(default: run until shutdown)")
    p_worker.add_argument("--quiet", action="store_true",
                          help="suppress per-connection log lines")
    p_worker.set_defaults(handler=_cmd_worker)

    p_submit = sub.add_parser(
        "submit", help="submit a sweep request to a running service")
    p_submit.add_argument("scenario", nargs="?",
                          help="catalog scenario name (or use --spec)")
    p_submit.add_argument("--spec", metavar="JSON",
                          help="inline panel-shaped sweep spec as a JSON "
                               "object ('@FILE' reads it from FILE)")
    p_submit.add_argument("--panel", metavar="NAME",
                          help="restrict a scenario to one panel "
                               "(default: all panels)")
    p_submit.add_argument("--full", action="store_true",
                          help="paper-scale parameters (slow)")
    p_submit.add_argument("--tenant", default="default",
                          help="tenant identity for quota accounting")
    p_submit.add_argument("--stream-every", type=int, default=0,
                          metavar="N",
                          help="request a partial aggregate event every "
                               "N completed cells (0 = none)")
    p_submit.add_argument("--request-id", metavar="ID", default=None,
                          help="journal this request durably under the "
                               "server's cache dir so it can be resumed "
                               "with --resume after an interruption")
    p_submit.add_argument("--resume", metavar="ID", default=None,
                          help="resume a journaled request: the sweep "
                               "target comes from the journal; cells "
                               "already completed are not re-simulated")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8787)
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          metavar="SECONDS")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw NDJSON events instead of a "
                               "summary")
    p_submit.set_defaults(handler=_cmd_submit)

    p_cat = sub.add_parser(
        "catalog", help="list, show, run, or audit catalog scenarios")
    cat_sub = p_cat.add_subparsers(dest="catalog_command")
    p_cat.set_defaults(handler=_cmd_catalog_help, catalog_parser=p_cat)
    p_cat_list = cat_sub.add_parser(
        "list", help="list the named scenario entries")
    p_cat_list.set_defaults(handler=_cmd_catalog_list)
    p_cat_show = cat_sub.add_parser(
        "show", help="print one scenario's canonical JSON + fingerprint")
    p_cat_show.add_argument("scenario")
    p_cat_show.set_defaults(handler=_cmd_catalog_show)
    p_cat_run = cat_sub.add_parser(
        "run", help="run the experiment a scenario describes")
    p_cat_run.add_argument("scenario")
    p_cat_run.add_argument("--full", action="store_true",
                           help="paper-scale parameters (slow)")
    _add_sweep_options(p_cat_run)
    p_cat_run.add_argument("--no-charts", action="store_true",
                           help="omit ASCII charts from the report")
    p_cat_run.set_defaults(handler=_cmd_catalog_run)
    p_cat_audit = cat_sub.add_parser(
        "audit", help="replay scenarios with traces and audit the "
                      "results against their declared invariants")
    p_cat_audit.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                             help="entries to audit (default: all)")
    _add_sweep_options(p_cat_audit)
    p_cat_audit.add_argument("--sets", type=int, default=2, metavar="N",
                             help="task sets per utilization point "
                                  "(default: %(default)s)")
    p_cat_audit.add_argument("--points", type=int, default=4, metavar="N",
                             help="utilization points per panel "
                                  "(default: %(default)s)")
    p_cat_audit.add_argument("--audit-duration", type=float, default=300.0,
                             metavar="MS",
                             help="replay horizon in ms "
                                  "(default: %(default)s)")
    p_cat_audit.add_argument("--report", metavar="FILE",
                             help="also write the JSON audit report here")
    p_cat_audit.set_defaults(handler=_cmd_catalog_audit)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for experiment_id in ALL_EXPERIMENTS:
        print(f"  {experiment_id}")
    print("policies:")
    for name in available_policies():
        print(f"  {name}")
    print("machines:")
    for name in sorted(MACHINE_PRESETS):
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment, quick=not args.full,
                            workers=args.workers,
                            cache_dir=_cache_dir_from(args),
                            progress=args.progress)
    print(result.render(charts=not args.no_charts))
    if args.csv:
        for path in result.write_csvs(args.csv):
            print(f"wrote {path}")
    return 0 if result.all_checks_pass else 1


def _cmd_run_all(args: argparse.Namespace) -> int:
    results = run_all(quick=not args.full, workers=args.workers,
                      output_dir=args.out,
                      cache_dir=_cache_dir_from(args),
                      progress=args.progress)
    print(summary_table(results))
    code = 0 if all(r.all_checks_pass for r in results) else 1
    if args.audit:
        from repro.catalog import (audit_catalog, render_reports,
                                   reports_to_json)
        reports = audit_catalog(cache_dir=_cache_dir_from(args),
                                workers=args.workers)
        print(render_reports(reports))
        if args.out:
            import os
            path = os.path.join(args.out, "audit-report.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(reports_to_json(reports))
            print(f"wrote {path}")
        if not all(r.ok for r in reports):
            code = 1
    return code


def _cmd_simulate(args: argparse.Namespace) -> int:
    tasks = []
    for index, chunk in enumerate(args.tasks.split(",")):
        try:
            wcet_text, period_text = chunk.split(":")
            tasks.append(Task(wcet=float(wcet_text),
                              period=float(period_text)))
        except (ValueError, TypeError):
            print(f"bad task spec {chunk!r}; expected C:P", file=sys.stderr)
            return 2
    taskset = TaskSet(tasks)
    machine = MACHINE_PRESETS[args.machine]()
    demand = args.demand
    try:
        demand = float(demand)
    except ValueError:
        pass
    collector = None
    if args.metrics is not None:
        from repro.obs import MetricsCollector
        collector = MetricsCollector()
    result = simulate(taskset, machine, make_policy(args.policy),
                      demand=demand, duration=args.duration,
                      record_trace=args.trace, on_miss="drop",
                      instrument=collector)
    print(result.summary())
    if args.trace and result.trace is not None:
        from repro.sim.trace import render_trace
        print(render_trace(result.trace))
    if collector is not None:
        from repro.obs import format_metrics, metrics_to_jsonl
        if args.metrics == "-":
            print(format_metrics(collector.metrics))
        else:
            metrics_to_jsonl(collector, path=args.metrics)
            print(f"appended metrics to {args.metrics}")
    return 0 if result.met_all_deadlines else 1


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import WORKLOADS, load

    if args.name is None:
        print("available workloads:")
        for name in sorted(WORKLOADS):
            taskset, _ = load(name)
            print(f"  {name:<12} {len(taskset)} tasks, "
                  f"U={taskset.utilization:.2f}")
        return 0
    try:
        taskset, demand = load(args.name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    machine = MACHINE_PRESETS[args.machine]()
    duration = 4.0 * max(t.period for t in taskset)
    result = simulate(taskset, machine, make_policy(args.policy),
                      demand=demand, duration=duration, on_miss="drop")
    print(result.summary())
    return 0 if result.met_all_deadlines else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.sim.validation import validate_schedule

    tasks = []
    for chunk in args.tasks.split(","):
        try:
            wcet_text, period_text = chunk.split(":")
            tasks.append(Task(wcet=float(wcet_text),
                              period=float(period_text)))
        except (ValueError, TypeError):
            print(f"bad task spec {chunk!r}; expected C:P", file=sys.stderr)
            return 2
    taskset = TaskSet(tasks)
    machine = MACHINE_PRESETS[args.machine]()
    demand = args.demand
    try:
        demand = float(demand)
    except ValueError:
        pass
    result = simulate(taskset, machine, make_policy(args.policy),
                      demand=demand, duration=args.duration,
                      record_trace=True, on_miss="drop")
    print(result.summary())
    violations = validate_schedule(result)
    if violations:
        print(f"{len(violations)} violation(s):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print("schedule validated: priority, work-conservation, budget and "
          "energy conformance all hold")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_policies, comparison_table
    from repro.core import PAPER_POLICIES

    if args.workload:
        from repro.workloads import load
        try:
            taskset, workload_demand = load(args.workload)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        demand = workload_demand if args.demand == "worst" else args.demand
    else:
        tasks = []
        for chunk in args.tasks.split(","):
            try:
                wcet_text, period_text = chunk.split(":")
                tasks.append(Task(wcet=float(wcet_text),
                                  period=float(period_text)))
            except (ValueError, TypeError):
                print(f"bad task spec {chunk!r}; expected C:P",
                      file=sys.stderr)
                return 2
        taskset = TaskSet(tasks)
        demand = args.demand
    if isinstance(demand, str):
        try:
            demand = float(demand)
        except ValueError:
            pass
    policies = (tuple(p.strip() for p in args.policies.split(","))
                if args.policies else PAPER_POLICIES)
    machine = MACHINE_PRESETS[args.machine]()
    rows = compare_policies(taskset, machine, policies=policies,
                            demand=demand, duration=args.duration)
    print(comparison_table(rows))
    return 0


def _cmd_obs_help(args: argparse.Namespace) -> int:
    args.obs_parser.print_help()
    return 2


def _cmd_catalog_help(args: argparse.Namespace) -> int:
    args.catalog_parser.print_help()
    return 2


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    from repro.catalog import catalog_summary
    print(catalog_summary())
    return 0


def _cmd_catalog_show(args: argparse.Namespace) -> int:
    from repro.catalog import get_scenario
    scenario = get_scenario(args.scenario)
    print(scenario.to_json(indent=2))
    print(f"fingerprint: {scenario.fingerprint()}")
    return 0


def _cmd_catalog_run(args: argparse.Namespace) -> int:
    from repro.catalog import run_scenario
    result = run_scenario(args.scenario, quick=not args.full,
                          workers=args.workers,
                          cache_dir=_cache_dir_from(args),
                          progress=args.progress)
    print(result.render(charts=not args.no_charts))
    return 0 if result.all_checks_pass else 1


def _cmd_catalog_audit(args: argparse.Namespace) -> int:
    from repro.catalog import (AuditProfile, audit_catalog,
                               render_reports, reports_to_json)
    profile = AuditProfile(n_sets=args.sets, max_points=args.points,
                           duration=args.audit_duration)
    reports = audit_catalog(args.scenarios or None, profile=profile,
                            cache_dir=_cache_dir_from(args),
                            workers=args.workers)
    print(render_reports(reports))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(reports_to_json(reports, profile=profile))
        print(f"wrote {args.report}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_cache_help(args: argparse.Namespace) -> int:
    args.cache_parser.print_help()
    return 2


def _format_age(seconds: float) -> str:
    if seconds >= 86400:
        return f"{seconds / 86400:.1f}d"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _cmd_cache_info(args: argparse.Namespace) -> int:
    cache = CellCache(args.cache_dir)
    summary = cache.age_summary()
    print(f"cell cache: {cache.root}")
    if summary is None:
        print("entries:    0")
        print("size:       0 bytes")
    else:
        entries, total_bytes, newest_age, oldest_age = summary
        print(f"entries:    {entries}")
        print(f"size:       {total_bytes} bytes "
              f"({total_bytes / 1024.0:.1f} KiB)")
        print(f"entry age:  newest {_format_age(newest_age)}, "
              f"oldest {_format_age(oldest_age)} (since last use)")
    swallowed = cache.swallowed_log_lines()
    print(f"swallowed:  {len(swallowed)} unexpected error(s) recorded")
    if swallowed:
        print(f"  last: {swallowed[-1]}")
        print("  (cache operations hit unexpected errors; see "
              f"{cache.root / cache.SWALLOWED_LOG})")
    return 0


def _cmd_cache_clean(args: argparse.Namespace) -> int:
    cache = CellCache(args.cache_dir)
    if args.max_bytes is not None or args.max_age is not None:
        stats = cache.sweep(max_bytes=args.max_bytes, max_age=args.max_age)
        print(f"swept {cache.root}: scanned {stats.scanned}, "
              f"expired {stats.expired}, evicted {stats.evicted}, "
              f"reclaimed {stats.reclaimed_bytes} bytes")
        print(f"remaining: {stats.remaining_entries} entr(ies), "
              f"{stats.remaining_bytes} bytes")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached cell result(s) from {cache.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.service import SweepService, TenantQuotas

    cache = None
    if not args.no_cache:
        cache = CellCache(args.cache_dir, max_bytes=args.max_bytes,
                          max_age=args.max_age)
    executor = None
    if args.dist_port is not None:
        from repro.dist import RemoteCellExecutor
        executor = RemoteCellExecutor(host=args.host, port=args.dist_port,
                                      lease_timeout=args.lease_timeout)
    service = SweepService(
        cache=cache,
        executor=executor,
        workers=args.workers,
        quotas=TenantQuotas(max_inflight=args.tenant_inflight,
                            retry_after=args.retry_after),
        host=args.host, port=args.port,
        sweep_interval=args.sweep_interval)

    async def _main() -> None:
        await service.start()
        # SIGTERM cancels the serving task, so the finally blocks below
        # stop the service and shut its worker pool down instead of
        # leaving the pool's processes behind as orphans.
        with contextlib.suppress(NotImplementedError):  # e.g. Windows
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel)
        # Machine-parseable ready line (the smoke harness reads the
        # ephemeral port from it).
        ready = f"rtdvs-serve ready host={service.host} port={service.port}"
        if executor is not None:
            ready += f" dist_port={executor.port}"
        print(ready, flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        if executor is not None:
            executor.shutdown()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import WorkerError, parse_connect, run_worker

    try:
        host, port = parse_connect(args.connect)
        stats = run_worker(host, port, max_leases=args.max_leases,
                           reconnect=args.reconnect,
                           reconnect_delay=args.reconnect_delay,
                           log=None if args.quiet else sys.stderr)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    print(f"worker done: {stats['leases']} lease(s), "
          f"{stats['cells']} cell(s), {stats['bytes_out']} bytes out, "
          f"{stats['reconnects']} reconnect(s), "
          f"{stats['errors']} error(s), "
          f"simulate_s={stats['simulate_s']:.3f}, "
          f"wait_s={stats['wait_s']:.3f}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceError, SweepServiceClient

    if args.resume is not None:
        if args.scenario is not None or args.spec is not None \
                or args.panel or args.request_id is not None:
            print("--resume takes no sweep target (the journal has it); "
                  "drop SCENARIO/--spec/--panel/--request-id",
                  file=sys.stderr)
            return 2
        request: dict = {"resume": True, "request_id": args.resume}
        return _submit_request(args, request)
    if (args.scenario is None) == (args.spec is None):
        print("submit needs exactly one of SCENARIO, --spec, or --resume",
              file=sys.stderr)
        return 2
    request = {"quick": not args.full}
    if args.spec is not None:
        text = args.spec
        if text.startswith("@"):
            try:
                with open(text[1:], "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(exc, file=sys.stderr)
                return 2
        try:
            request["spec"] = json.loads(text)
        except ValueError as exc:
            print(f"bad --spec JSON: {exc}", file=sys.stderr)
            return 2
    else:
        request["scenario"] = args.scenario
        if args.panel:
            request["panel"] = args.panel
    if args.tenant != "default":
        request["tenant"] = args.tenant
    if args.stream_every:
        request["stream_every"] = args.stream_every
    if args.request_id is not None:
        request["request_id"] = args.request_id
    return _submit_request(args, request)


def _submit_request(args: argparse.Namespace, request: dict) -> int:
    import json

    from repro.service import ServiceError, SweepServiceClient

    client = SweepServiceClient(host=args.host, port=args.port,
                                timeout=args.timeout)
    saw_done = False
    try:
        for event in client.submit(request):
            if args.json:
                print(json.dumps(event), flush=True)
                if event.get("event") == "done":
                    saw_done = True
                continue
            kind = event.get("event")
            if kind == "started":
                print(f"accepted: {event['total_cells']} cell(s) across "
                      f"{len(event['jobs'])} panel(s)")
            elif kind == "job":
                print(f"[{event['scenario']}/{event['panel']}] "
                      f"{event['warm']}/{event['cells']} warm")
            elif kind == "partial":
                print(f"[{event['scenario']}/{event['panel']}] "
                      f"{event['done']}/{event['total']} cells",
                      flush=True)
            elif kind == "result":
                print(f"[{event['scenario']}/{event['panel']}] result: "
                      f"cache_hits={event['cache_hits']} "
                      f"simulated={event['simulated_cells']} "
                      f"coalesced={event['coalesced_cells']}")
            elif kind == "done":
                saw_done = True
                line = (f"done in {event['elapsed_s']:.2f}s: "
                        f"cache_hits={event['cache_hits']} "
                        f"simulated={event['simulated_cells']} "
                        f"coalesced={event['coalesced_cells']}")
                if "request_id" in event:
                    line += (f" journal={event['request_id']} "
                             f"(done={event['journal_done']}, "
                             f"skipped={event['journal_skipped']})")
                print(line)
    except ServiceError as exc:
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0 if saw_done else 1


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, summarize_records
    from repro.obs.metrics import RunMetrics

    try:
        records = load_jsonl(args.file)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not records:
        print(f"{args.file}: no metrics records")
        return 1
    print(summarize_records(records))
    if args.csv or args.residency_csv:
        from repro.obs import metrics_to_csv, residency_to_csv
        metrics = [RunMetrics.from_dict(r) for r in records]
        if args.csv:
            metrics_to_csv(metrics, path=args.csv)
            print(f"wrote {args.csv}")
        if args.residency_csv:
            residency_to_csv(metrics, path=args.residency_csv)
            print(f"wrote {args.residency_csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
