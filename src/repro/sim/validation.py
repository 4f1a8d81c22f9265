"""Independent post-hoc validation of recorded schedules.

Given a :class:`~repro.sim.results.SimResult` that recorded a trace, the
validator re-derives — without trusting the engine — that:

* **priority conformance**: whenever a task executes, no ready,
  higher-priority job was waiting (EDF: earlier absolute deadline; RM:
  shorter period);
* **work conservation**: the processor never idles while any job is
  ready;
* **budget conformance**: each job executes exactly its demand (when it
  completes) and never more;
* **energy conformance**: re-pricing every segment (cycles × V², idle at
  idle-level) reproduces the reported total energy;
* **timing sanity**: segments tile ``[0, duration]`` without overlap and
  cycles are consistent with segment length × frequency.

Any violation is returned as a human-readable finding; an empty list
means the schedule is valid.  The property-test suite runs this checker
over randomized workloads for every policy, which guards the *engine*
(not just the policies) against regressions.

The module also exposes :func:`rederive_counters`, which recomputes the
bookkeeping the instrumentation layer (:mod:`repro.obs`) counts at run
time — context switches, preemptions, deadline misses, operating-point
transitions — from nothing but the trace and the job list, so collector
output can be cross-checked against an independent derivation.

Tolerances are *relative* wherever the compared quantity accumulates
with simulated time or demand (cycles, energy): a flat epsilon that is
comfortable at ``duration=100`` drowns in representation error at
``duration=1e6``, and conversely over-tightens on large per-job demands.
``_EPS`` is therefore scaled by ``max(1.0, magnitude)`` in those checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hw.energy import EnergyModel
from repro.model.job import Job, JobOutcome
from repro.sim.results import SimResult
from repro.sim.trace import Segment

_EPS = 1e-6

#: All available checks, in execution order.  The segment-linear trio
#: (tiling, cycles, energy) is one pass over the trace; budget and
#: priority cross-reference the job list per segment and therefore scale
#: with segments × jobs — select checks on very long traces accordingly.
ALL_CHECKS = ("tiling", "cycles", "budget", "priority", "energy")


@dataclass(frozen=True)
class Violation:
    """One validation finding."""

    kind: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.time:g}: {self.detail}"


def validate_schedule(result: SimResult,
                      energy_model: Optional[EnergyModel] = None,
                      work_conserving: bool = True,
                      checks=ALL_CHECKS) -> List[Violation]:
    """Run the selected checks; returns the list of violations (empty =
    valid).

    Parameters
    ----------
    result:
        A run with ``record_trace=True``.
    energy_model:
        The model the run used (defaults to a perfect-halt model); needed
        to re-price the energy.
    work_conserving:
        Check that the processor never idles with ready work.  True for
        every policy in this library (EDF/RM are work-conserving); turn
        off for policies that deliberately insert idle time.
    checks:
        Which checks to run (default: all of :data:`ALL_CHECKS`).
    """
    if result.trace is None:
        raise SimulationError(
            "validate_schedule needs a run with record_trace=True")
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise SimulationError(
            f"unknown validation checks {sorted(unknown)}; "
            f"available: {ALL_CHECKS}")
    violations: List[Violation] = []
    if "tiling" in checks:
        violations.extend(_check_tiling(result))
    if "cycles" in checks:
        violations.extend(_check_cycle_rates(result))
    if "budget" in checks:
        violations.extend(_check_budgets(result))
    if "priority" in checks:
        violations.extend(_check_priorities(result, work_conserving))
    if "energy" in checks:
        violations.extend(_check_energy(result,
                                        energy_model or EnergyModel()))
    return violations


# ---------------------------------------------------------------------------

def _check_tiling(result: SimResult) -> List[Violation]:
    if len(result.trace) == 0:
        return [Violation("tiling", 0.0, "empty trace")]
    out = []
    segments = result.trace.segments
    if abs(segments[0].start) > _EPS:
        out.append(Violation("tiling", segments[0].start,
                             "trace does not start at 0"))
    for prev, cur in zip(segments, segments[1:]):
        if abs(cur.start - prev.end) > _EPS:
            out.append(Violation(
                "tiling", cur.start,
                f"gap/overlap: previous segment ends at {prev.end:g}"))
    if abs(segments[-1].end - result.duration) > 1e-3:
        out.append(Violation(
            "tiling", segments[-1].end,
            f"trace ends at {segments[-1].end:g}, duration is "
            f"{result.duration:g}"))
    return out


def _check_cycle_rates(result: SimResult) -> List[Violation]:
    out = []
    for segment in result.trace:
        if segment.kind != "run":
            if segment.cycles != 0.0:
                out.append(Violation(
                    "cycles", segment.start,
                    f"{segment.kind} segment reports {segment.cycles:g} "
                    "executed cycles"))
            continue
        expected = segment.duration * segment.point.frequency
        if abs(segment.cycles - expected) > _EPS * max(1.0, expected):
            out.append(Violation(
                "cycles", segment.start,
                f"segment of {segment.duration:g} at f="
                f"{segment.point.frequency:g} reports {segment.cycles:g} "
                f"cycles (expected {expected:g})"))
    return out


def _check_budgets(result: SimResult) -> List[Violation]:
    out = []
    executed: Dict[Tuple[str, int], float] = {}
    # Re-accumulate per-job execution by walking segments against the
    # job release/completion windows.
    jobs = sorted(result.jobs, key=lambda j: j.release_time)
    for segment in result.trace.run_segments():
        job = _job_running(jobs, segment.task, segment.start)
        if job is None:
            out.append(Violation(
                "budget", segment.start,
                f"task {segment.task!r} executes with no released, "
                "incomplete job"))
            continue
        key = (job.task.name, job.index)
        executed[key] = executed.get(key, 0.0) + segment.cycles
    for job in jobs:
        key = (job.task.name, job.index)
        done = executed.get(key, 0.0)
        # Relative tolerance: segment cycles are re-derived from segment
        # bounds, whose representation error grows with the time scale and
        # the per-job demand; a flat _EPS misfires on long runs.
        tol = _EPS * max(1.0, job.demand)
        if done > job.demand + tol:
            out.append(Violation(
                "budget", job.release_time,
                f"{job.task.name}#{job.index} executed {done:g} cycles, "
                f"demand was {job.demand:g}"))
        if job.is_complete and abs(done - job.demand) > tol \
                and job.demand > _EPS:
            out.append(Violation(
                "budget", job.completion_time or 0.0,
                f"{job.task.name}#{job.index} marked complete after "
                f"{done:g} of {job.demand:g} cycles"))
    return out


def _job_running(jobs: List[Job], task_name: str, time: float
                 ) -> Optional[Job]:
    """The job of ``task_name`` that could be executing at ``time``."""
    candidate = None
    for job in jobs:
        if job.task.name != task_name:
            continue
        if job.release_time <= time + _EPS:
            end = job.completion_time if job.completion_time is not None \
                else float("inf")
            if time < end + _EPS:
                candidate = job
    return candidate


def _ready_jobs(jobs: List[Job], time: float) -> List[Job]:
    ready = []
    for job in jobs:
        if job.release_time > time + _EPS:
            continue
        if job.demand <= _EPS:
            continue
        end = job.completion_time if job.completion_time is not None \
            else float("inf")
        if time < end - _EPS:
            ready.append(job)
    return ready


def _check_priorities(result: SimResult,
                      work_conserving: bool) -> List[Violation]:
    out = []
    rm = result.scheduler_name == "rm"
    jobs = sorted(result.jobs, key=lambda j: j.release_time)
    for segment in result.trace:
        probe = segment.start + min(segment.duration / 2.0, 1e-4)
        ready = _ready_jobs(jobs, probe)
        if segment.kind == "idle":
            if work_conserving and ready:
                out.append(Violation(
                    "work-conservation", segment.start,
                    f"idle while {len(ready)} job(s) ready "
                    f"(e.g. {ready[0].task.name}#{ready[0].index})"))
            continue
        if segment.kind != "run":
            continue
        running = [j for j in ready if j.task.name == segment.task]
        if not running:
            continue  # budget check already flags this
        current = min(running, key=lambda j: j.index)
        for other in ready:
            if other.task.name == segment.task:
                continue
            if rm:
                higher = other.task.period < current.task.period - _EPS
            else:
                higher = (other.absolute_deadline
                          < current.absolute_deadline - _EPS)
            if higher:
                out.append(Violation(
                    "priority", segment.start,
                    f"{segment.task} runs while higher-priority "
                    f"{other.task.name}#{other.index} is ready"))
                break
    return out


def _check_energy(result: SimResult,
                  energy_model: EnergyModel) -> List[Violation]:
    total = 0.0
    for segment in result.trace:
        if segment.kind == "run":
            total += energy_model.execution_energy(segment.point,
                                                   segment.cycles)
        else:
            total += energy_model.idle_energy(segment.point,
                                              segment.duration)
    if abs(total - result.total_energy) > 1e-6 * max(1.0, total):
        return [Violation(
            "energy", 0.0,
            f"re-priced energy {total:g} != reported "
            f"{result.total_energy:g}")]
    return []


# ---------------------------------------------------------------------------
# independent counter re-derivation (cross-checks repro.obs collectors)
# ---------------------------------------------------------------------------

def rederive_counters(result: SimResult) -> Dict[str, int]:
    """Recompute the run's bookkeeping counters from trace + jobs alone.

    Returns a dict with ``context_switches``, ``preemptions``,
    ``deadline_misses`` and ``frequency_transitions``, derived without
    trusting any counter the engine or an attached
    :class:`~repro.obs.Instrumentation` maintained:

    * a **context switch** every time the executing *job* changes (the
      first dispatch counts, resuming the same job after idle does not) —
      the same convention :class:`~repro.obs.MetricsCollector` records;
    * a **preemption** when the displaced job had not completed by the
      instant the next job took over;
    * **deadline misses** from per-job outcomes
      (:meth:`~repro.model.job.Job.outcome`), independently of
      ``result.misses``;
    * **frequency transitions** as operating-point changes *visible
      between consecutive trace segments* — a lower bound on
      ``result.switches``, since back-to-back changes at a single instant
      leave no segment behind.

    Job attribution inside merged segments assumes at most one live job
    per task at any instant, which holds for every deadline-meeting
    schedule and for overruns under ``on_miss="drop"`` (a missed job stops
    at its deadline).  ``on_miss="continue"`` overload schedules, where
    two jobs of one task stay live together, are outside its scope.
    """
    if result.trace is None:
        raise SimulationError(
            "rederive_counters needs a run with record_trace=True")
    by_task: Dict[str, List[Job]] = {}
    for job in sorted(result.jobs, key=lambda j: j.release_time):
        if job.demand > 1e-9:  # zero-demand jobs complete without running
            by_task.setdefault(job.task.name, []).append(job)

    cursors: Dict[str, _TaskDispatchCursor] = {}
    dispatches: List[Tuple[Job, float]] = []  # (job, time it took over)
    for segment in result.trace.run_segments():
        cursor = cursors.get(segment.task)
        if cursor is None:
            cursor = cursors[segment.task] = _TaskDispatchCursor(
                by_task.get(segment.task, []), result.duration)
        for job, when in cursor.executed_in(segment):
            if not dispatches or dispatches[-1][0] is not job:
                dispatches.append((job, when))

    preemptions = 0
    for (prev, _), (_cur, when) in zip(dispatches, dispatches[1:]):
        if prev.completion_time is None or prev.completion_time > when:
            preemptions += 1

    transitions = 0
    previous = None
    for segment in result.trace:
        if previous is not None and segment.point != previous:
            transitions += 1
        previous = segment.point

    misses = sum(1 for job in result.jobs
                 if job.outcome(result.duration) is JobOutcome.MISSED)
    return {
        "context_switches": len(dispatches),
        "preemptions": preemptions,
        "deadline_misses": misses,
        "frequency_transitions": transitions,
    }


def _life_end(job: Job, duration: float) -> float:
    """When the job stopped being eligible to execute (drop semantics)."""
    if job.completion_time is not None:
        return job.completion_time
    if job.absolute_deadline <= duration + 1e-9:
        return job.absolute_deadline  # dropped (or stopped) at its deadline
    return float("inf")


class _TaskDispatchCursor:
    """Amortized-O(1)-per-segment job attribution for one task's segments.

    Computes exactly what :func:`_jobs_executed_in` computes, but exploits
    that :func:`rederive_counters` feeds it one task's run segments in
    increasing time order: completions in ``(start, end]`` come from a
    bisect over the completion-time-sorted job list, and the linear scan
    for the still-running job keeps its position between calls.  Skipping
    a job is permanent — both skip conditions (completed by ``end``, life
    ended before ``end``) only become *more* true as ``end`` grows — so
    the cursor never rewinds and every job is visited O(1) times total.
    """

    def __init__(self, jobs: List[Job], duration: float):
        self._jobs = jobs  # sorted by release time
        self._duration = duration
        self._completed = sorted(
            (job for job in jobs if job.completion_time is not None),
            key=lambda j: j.completion_time)
        self._completion_times = [job.completion_time
                                  for job in self._completed]
        self._scan = 0  # persistent index into self._jobs

    def executed_in(self, segment: Segment) -> List[Tuple[Job, float]]:
        lo = bisect_right(self._completion_times, segment.start)
        hi = bisect_right(self._completion_times, segment.end)
        completed = self._completed[lo:hi]
        running = None
        jobs = self._jobs
        index = self._scan
        while index < len(jobs):
            job = jobs[index]
            if job.release_time >= segment.end:
                break  # not released yet; revisit when windows grow
            completion = job.completion_time
            if completion is not None and completion <= segment.end:
                index += 1  # finished inside or before the window
                continue
            if _life_end(job, self._duration) >= segment.end:
                running = job  # may still be running next window: stay put
                break
            index += 1
        self._scan = index
        sequence = completed + ([running] if running is not None else [])
        out = []
        start = segment.start
        for job in sequence:
            out.append((job, start))
            if job.completion_time is not None:
                start = job.completion_time
        return out


def _jobs_executed_in(jobs: List[Job], segment: Segment, duration: float
                      ) -> List[Tuple[Job, float]]:
    """The jobs that ran inside one (possibly merged) run segment.

    Trace segments coalesce back-to-back jobs of the same task, so one
    segment may span several completions.  Execution order within the
    window is completion order, then the job still running at the end.
    Returns ``(job, dispatch_time)`` pairs.

    Reference implementation: rescans the job list per segment, making no
    assumption about segment ordering.  :func:`rederive_counters` uses the
    equivalent :class:`_TaskDispatchCursor` instead, which is amortized
    O(1) per segment when segments arrive in time order; the test suite
    pins their agreement.
    """
    completed = [j for j in jobs
                 if j.completion_time is not None
                 and segment.start < j.completion_time <= segment.end]
    completed.sort(key=lambda j: j.completion_time)
    running = None
    for job in jobs:  # sorted by release
        if job.release_time >= segment.end:
            break
        if job.completion_time is not None \
                and job.completion_time <= segment.end:
            continue  # finished inside or before the window
        if _life_end(job, duration) >= segment.end:
            # Live through the whole window — including a job dropped at
            # its deadline exactly when the segment ends.
            running = job
            break
    sequence = completed + ([running] if running is not None else [])
    out = []
    start = segment.start
    for job in sequence:
        out.append((job, start))
        if job.completion_time is not None:
            start = job.completion_time
    return out
