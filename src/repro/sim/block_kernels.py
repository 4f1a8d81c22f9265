"""Cross-cell vectorized lane simulator (the ``--engine block`` tier).

:mod:`repro.sim.batch_kernels` made one *cell* cheap: a flat-array event
loop that still advances a single simulation at a time, driving the real
policy object hook by hook.  This module makes the *column* cheap: every
policy run of every cell in a sweep column becomes one **lane**, and all
lanes advance together in lockstep array passes over the lane axis.

A lane is one ``(cell, policy, on_miss)`` simulation flattened to plain
numbers: task periods/WCETs, the materialized demand table, the initial
operating-point index the policy's real ``setup`` chose, and a handful of
behavior flags (RM vs EDF priority, ccEDF's running-utilization selection,
drop-vs-raise miss handling).  :func:`run_lanes` holds per-lane state as
``(lane, task)`` arrays — next release, current deadline, remaining work,
running utilization, frequency index — and repeats a two-step cycle:

* **release step** — fire every due release across all lanes at once
  (due mask, demand gather, WCET clamp, deadline/queue updates), apply the
  vectorized ccEDF selection, and open the next execution window;
* **execution step** — one segment per lane: pick each lane's
  earliest-deadline (or smallest-period) ready task with a masked argmin,
  then complete it, run it to the window edge, or idle — accumulating
  energy into per-``(lane, operating point)`` slots in first-use order.

Bit identity with :class:`~repro.sim.batch_kernels.CellKernel` (and hence
the engine) is the design invariant, not an aspiration: every arithmetic
expression here is the kernel's own, evaluated elementwise in the same
order (IEEE-754 float64 ops are value-identical whether numpy or CPython
executes them), per-lane event order is untouched because lanes never
interact, and anything the array program cannot replicate exactly — a
deadline miss in ``raise`` mode, a demand-trace underflow, a same-instant
release catch-up, an over-unity utilization — *abandons the lane*, whose
run then falls back to the per-cell kernel and reproduces the exact scalar
behavior, exceptions included.

The simulator is numpy-only by construction (a pure-Python lockstep pass
would just be a slower :class:`CellKernel`): when
:func:`~repro.sim.batch_kernels.numpy_backend` is unavailable or disabled,
:func:`run_lanes` returns ``None`` and the caller's fallback ladder
(:mod:`repro.analysis.batch`) routes every lane through the per-cell
kernel instead — the pure-Python path of the block engine *is* that
per-cell kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine
from repro.sim.batch_kernels import numpy_backend

#: Same event tolerance as the engine and the per-cell kernel.
_EPS = 1e-9

#: Lane phases (the per-lane position in the release/execute cycle).
_PH_RELEASE = 0
_PH_EXEC = 1
_PH_DONE = 2

#: The lane-versus-kernel cost model :func:`lane_cut` minimises, in
#: seconds.  A lockstep pass runs about two iterations per release of its
#: densest lane, each costing a fixed numpy overhead ``a`` plus ``b`` per
#: lane still running; :class:`~repro.sim.batch_kernels.CellKernel` costs
#: ``c`` per release.  So a pass over the lanes with release counts
#: ``r_i <= R`` costs ``2*a*R + 2*b*sum(r_i)`` and the kernel runs the
#: rest for ``c*sum(r_i)``.  Fitted by least squares (lanes: ``R`` and
#: ``sum(r_i)``; kernel: ``sum(r_i)``) over 24 sweep shapes of EDF,
#: staticEDF, staticRM and ccEDF (3/8/10 tasks, 200/1000 ms, 8/24 sets,
#: one 0.7 column or 0.3 and 0.9; lanes as planned and copied 4x) on a
#: 2-CPU x86_64 host, CPython 3 with numpy 2.4.  Single predictions there
#: are within about 30%; only the ratios decide the cut.  ``c`` was
#: re-measured on the same shapes after the kernel stopped building a
#: ``Job`` per release (heap-ordered queues, shared demand rows): the fit
#: fell to 0.46x of the old kernel's on one host, so it is scaled by that.
LANE_ITERATION_S = 190e-6
LANE_RELEASE_S = 0.27e-6
KERNEL_RELEASE_S = 2.0e-6

#: A cut for :func:`lane_cut`'s callers that keeps every lane on the
#: lane pass (the catalog audit's engine-parity replay uses it so lanes
#: stay audited whatever the model would pick).
ALL_LANES = math.inf

#: How often (in lockstep iterations) the pass considers compacting the
#: working set down to still-running lanes.  Lanes finish at wildly
#: different event counts (a lane's iterations track its release count),
#: so without compaction the densest lane makes every finished lane keep
#: paying full-width array costs; with it the arrays shrink as the tail
#: thins.  Exposed for tests to tighten.
COMPACT_INTERVAL = 32


@dataclass
class LaneSpec:
    """One policy run of one cell, reduced to plain numbers.

    The planner (:mod:`repro.analysis.batch`) builds these after running
    the real policy's ``setup`` — ``initial_point`` is the operating-point
    index that setup returned, so static policies are fully decided before
    the lane starts and dynamic ones (ccEDF) start from the exact state
    the scalar run would.
    """

    periods: Sequence[float]
    wcets: Sequence[float]
    #: Per-task invocation demand tables (materialized trace rows).
    demand_values: Sequence[Sequence[float]]
    demand_repeat: bool
    duration: float
    #: Operating-point index the policy's ``setup`` selected.
    initial_point: int
    #: Smallest-period priority (RM) instead of earliest-deadline.
    rm_priority: bool = False
    #: ccEDF: re-select the frequency from running utilization on every
    #: release/completion/idle, exactly like the scalar policy hooks.
    dynamic: bool = False
    #: ``on_miss="drop"`` semantics; ``False`` means ``"raise"``, where
    #: any deadline miss abandons the lane (the fallback rerun raises
    #: the genuine :class:`~repro.errors.DeadlineMissError`).
    drop_on_miss: bool = False
    #: Track per-job executed cycles (the EDF reference lane needs the
    #: jobs-log sum for the bound).
    need_cycles: bool = False


@dataclass
class LaneResult:
    """Outcome of one lane.

    ``abandoned`` is ``None`` for a clean run, else the reason the lane
    left the vectorized envelope; abandoned lanes carry no figures and
    must be re-run on the per-cell path.
    """

    abandoned: Optional[str] = None
    total_energy: float = 0.0
    executed_cycles: Optional[float] = None


def run_lanes(machine: Machine, energy_model: EnergyModel,
              lanes: Sequence[LaneSpec]) -> Optional[List[LaneResult]]:
    """Advance every lane to its horizon in lockstep array passes.

    Returns one :class:`LaneResult` per lane (same order), or ``None``
    when numpy is unavailable/disabled — the caller falls back to the
    per-cell kernels.
    """
    np = numpy_backend()
    if np is None or not lanes:
        return None

    n_lanes = len(lanes)
    n_tasks = max(len(lane.periods) for lane in lanes)
    freqs = np.asarray(machine.frequencies, dtype=np.float64)
    epcs = np.asarray([p.energy_per_cycle for p in machine.points],
                      dtype=np.float64)
    n_points = len(freqs)
    top = n_points - 1
    scale = energy_model.cycle_energy_scale
    idle_coeff = scale * energy_model.idle_level

    # -- static per-lane/task tables (padded tasks: period=inf, wcet=0) --
    period = np.full((n_lanes, n_tasks), np.inf, dtype=np.float64)
    wcet = np.zeros((n_lanes, n_tasks), dtype=np.float64)
    dem_off = np.zeros((n_lanes, n_tasks), dtype=np.int64)
    dem_len = np.zeros((n_lanes, n_tasks), dtype=np.int64)
    flat: List[float] = []
    for row, lane in enumerate(lanes):
        n = len(lane.periods)
        period[row, :n] = lane.periods
        wcet[row, :n] = lane.wcets
        for k, values in enumerate(lane.demand_values):
            dem_off[row, k] = len(flat)
            dem_len[row, k] = len(values)
            flat.extend(values)
    dem_flat = np.asarray(flat if flat else [0.0], dtype=np.float64)
    finite = np.isfinite(period)
    with np.errstate(divide="ignore"):
        worst_util = np.where(finite, wcet / period, 0.0)

    duration = np.asarray([lane.duration for lane in lanes],
                          dtype=np.float64)
    edge = duration - _EPS
    repeat = np.asarray([lane.demand_repeat for lane in lanes], dtype=bool)
    rm_key = np.asarray([lane.rm_priority for lane in lanes], dtype=bool)
    dyn = np.asarray([lane.dynamic for lane in lanes], dtype=bool)
    drop = np.asarray([lane.drop_on_miss for lane in lanes], dtype=bool)
    point = np.asarray([lane.initial_point for lane in lanes],
                       dtype=np.int64)

    # -- dynamic per-lane state --
    time = np.zeros(n_lanes, dtype=np.float64)
    phase = np.zeros(n_lanes, dtype=np.int8)
    horizon = np.zeros(n_lanes, dtype=np.float64)
    horizon_raw = np.zeros(n_lanes, dtype=np.float64)
    idle_energy = np.zeros(n_lanes, dtype=np.float64)
    abandoned = np.zeros(n_lanes, dtype=bool)
    # ``reasons`` (and the other Python-side stores below) stay indexed by
    # the ORIGINAL lane row for the whole run; compaction renumbers only
    # the hot arrays, with ``orig`` mapping working rows back.
    reasons: List[Optional[str]] = [None] * n_lanes
    orig = np.arange(n_lanes)

    next_release = np.where(finite, 0.0, np.inf)
    deadline = np.full((n_lanes, n_tasks), np.inf, dtype=np.float64)
    invocation = np.zeros((n_lanes, n_tasks), dtype=np.int64)
    live = np.zeros((n_lanes, n_tasks), dtype=bool)
    # The dispatch key (period under RM, deadline under EDF; inf when the
    # slot has no ready job — so the key doubles as the ready mask),
    # maintained incrementally at release and completion instead of being
    # rebuilt from the job state every pass: the values written are
    # exactly what a rebuild would produce, only cheaper.
    masked_key = np.full((n_lanes, n_tasks), np.inf, dtype=np.float64)
    executed = np.zeros((n_lanes, n_tasks), dtype=np.float64)
    demand = np.zeros((n_lanes, n_tasks), dtype=np.float64)
    # ccEDF setup seeds running utilization at worst case.
    util = worst_util.copy()

    # -- energy accumulation: per-(lane, point) slots, first-use order --
    slot_acc = np.zeros((n_lanes, n_points), dtype=np.float64)
    slot_seen = np.zeros((n_lanes, n_points), dtype=bool)
    slot_order: List[List[int]] = [[] for _ in range(n_lanes)]

    # -- per-job executed cycles (EDF reference lanes only) --
    total_releases = np.where(
        finite, np.ceil(duration[:, None] / period) + 1.0, 0.0
    ).sum(axis=1)
    cyc_rows = np.full(n_lanes, -1, dtype=np.int64)
    cyc_lanes = [row for row, lane in enumerate(lanes) if lane.need_cycles]
    jobs_exec = None
    job_of = None
    job_count = np.zeros(n_lanes, dtype=np.int64)
    if cyc_lanes:
        for slot, row in enumerate(cyc_lanes):
            cyc_rows[row] = slot
        width = int(max(total_releases[row] for row in cyc_lanes))
        jobs_exec = np.zeros((len(cyc_lanes), width + n_tasks + 8),
                             dtype=np.float64)
        job_of = np.zeros((n_lanes, n_tasks), dtype=np.int64)
    # Static original-row -> jobs_exec slot map for the finalize pass
    # (``cyc_rows`` itself is renumbered by compaction, never mutated).
    cyc_rows_full = cyc_rows

    # -- final per-original-lane stores, filled as lanes leave the pass --
    final_idle = np.zeros(n_lanes, dtype=np.float64)
    final_job_count = np.zeros(n_lanes, dtype=np.int64)
    final_slot_acc = np.zeros((n_lanes, n_points), dtype=np.float64)

    def abandon(rows, reason: str) -> None:
        for row in np.atleast_1d(rows).tolist():
            if not abandoned[row]:
                abandoned[row] = True
                full = int(orig[row])
                if reasons[full] is None:
                    reasons[full] = reason

    def final_check(rows) -> None:
        """Raise-mode deadline sweep for lanes that reached their horizon.

        An incomplete job whose deadline fell inside the run makes the
        kernel raise; abandon so the fallback rerun raises the genuine
        error.  Finished lanes freeze their state, so checking at
        compaction time equals checking at the end.
        """
        if rows.size == 0:
            return
        miss = ((live[rows] & (deadline[rows]
                               <= duration[rows, None] + _EPS))
                .any(axis=1) & ~drop[rows])
        if miss.any():
            abandon(rows[miss], "deadline-miss")

    def flush(rows) -> None:
        """Copy finished lanes' accumulators to the per-original stores."""
        if rows.size == 0:
            return
        full = orig[rows]
        final_idle[full] = idle_energy[rows]
        final_job_count[full] = job_count[rows]
        final_slot_acc[full] = slot_acc[rows]

    # A release always lands at ``time <= next_release`` (the window
    # horizon is the minimum pending release), so a freshly released
    # job's next instance (``release + period``) can only be due at the
    # same instant when its period is below the event tolerance.  The
    # kernel handles that with a catch-up loop; abandon such lanes up
    # front so the loop body never needs a same-instant re-release check.
    catchup = ((period <= _EPS) & finite).any(axis=1)
    if catchup.any():
        abandon(np.nonzero(catchup)[0], "release-catch-up")

    # All-repeating demand tables (the common materialized-trace shape)
    # can never underflow, so the release step skips the bounds checks.
    all_repeat = bool(repeat.all())

    # Flat raveled views over the hot ``(lane, task)`` / ``(lane, point)``
    # tables.  The pair sites below fire every pass, and one flat fancy
    # index (``row * n_tasks + task``) costs a fraction of the equivalent
    # 2-D pair index.  Each view aliases its table (all tables here are
    # C-contiguous), so flat writes land in the 2-D array; compaction
    # re-derives the views because its ``arr[idx]`` gathers allocate
    # fresh arrays.
    def _views():
        return tuple(
            arr.ravel() if arr is not None else None
            for arr in (period, wcet, dem_off, dem_len, worst_util,
                        next_release, deadline, invocation, live, executed,
                        demand, util, masked_key, slot_acc, slot_seen,
                        job_of))

    (period_f, wcet_f, dem_off_f, dem_len_f, worst_util_f, next_release_f,
     deadline_f, invocation_f, live_f, executed_f, demand_f, util_f,
     masked_key_f, slot_acc_f, slot_seen_f, job_of_f) = _views()

    arange_scratch = np.arange(n_lanes)
    empty_rows = arange_scratch[:0]

    # Each iteration advances every active lane by at most one release
    # instant and one execution segment; segments per lane are bounded by
    # completions (<= releases) plus window edges (<= releases), so 2R
    # plus slack bounds the loop.  Overrun abandons, never corrupts.
    max_iter = int(2.0 * float(total_releases.max())) + 8 * n_tasks + 64

    for iteration in range(max_iter):
        active = ~abandoned & (phase != _PH_DONE)
        if not np.count_nonzero(active):
            break

        # Periodically shed finished/abandoned lanes: settle their final
        # deadline sweep, flush their accumulators to the per-original
        # stores, and renumber every hot array down to the survivors.
        # Per-lane arithmetic is row-local, so renumbering cannot change
        # any lane's values — it only stops finished lanes from paying
        # full-width array costs until the densest lane ends.
        if iteration and iteration % COMPACT_INTERVAL == 0:
            kept = int(np.count_nonzero(active))
            if kept * 8 <= 7 * active.size:
                removed = np.nonzero(~active)[0]
                final_check(removed[~abandoned[removed]])
                flush(removed[~abandoned[removed]])
                idx = np.nonzero(active)[0]
                orig = orig[idx]
                period = period[idx]
                wcet = wcet[idx]
                dem_off = dem_off[idx]
                dem_len = dem_len[idx]
                worst_util = worst_util[idx]
                duration = duration[idx]
                edge = edge[idx]
                repeat = repeat[idx]
                rm_key = rm_key[idx]
                dyn = dyn[idx]
                drop = drop[idx]
                point = point[idx]
                time = time[idx]
                phase = phase[idx]
                horizon = horizon[idx]
                horizon_raw = horizon_raw[idx]
                idle_energy = idle_energy[idx]
                next_release = next_release[idx]
                deadline = deadline[idx]
                invocation = invocation[idx]
                live = live[idx]
                executed = executed[idx]
                demand = demand[idx]
                util = util[idx]
                masked_key = masked_key[idx]
                slot_acc = slot_acc[idx]
                slot_seen = slot_seen[idx]
                cyc_rows = cyc_rows[idx]
                job_count = job_count[idx]
                if job_of is not None:
                    job_of = job_of[idx]
                (period_f, wcet_f, dem_off_f, dem_len_f, worst_util_f,
                 next_release_f, deadline_f, invocation_f, live_f,
                 executed_f, demand_f, util_f, masked_key_f, slot_acc_f,
                 slot_seen_f, job_of_f) = _views()
                abandoned = np.zeros(idx.size, dtype=bool)
                active = np.ones(idx.size, dtype=bool)

        # ================= release step =================
        # All mask algebra below runs on the releasing-row subset (the
        # ``rrows`` gather): roughly half the working set is in the
        # execution phase at any instant, and full-width passes over it
        # here would be pure waste.
        releasing = active & (phase == _PH_RELEASE)
        if np.count_nonzero(releasing):
            limit = time + _EPS
            rrows = releasing.nonzero()[0]
            sub_nr = next_release[rrows]
            due_sub = ((sub_nr <= limit[rrows, None])
                       & (sub_nr < edge[rrows, None]))
            miss = due_sub & live[rrows]
            if np.count_nonzero(miss):
                miss_lane = miss.any(axis=1) & ~drop[rrows]
                if np.count_nonzero(miss_lane):
                    abandon(rrows[miss_lane], "deadline-miss")
                    due_sub[miss_lane] = False
                # Drop-mode lanes: the kernel records the miss and clears
                # the old job from the ready slot; the replacement job
                # lands in the same slot right below, so the overwrite is
                # the same state transition (misses carry no energy).
            sub_lane, pair_task = due_sub.nonzero()
            pair_lane = rrows[sub_lane]
            pidx = pair_lane * n_tasks + pair_task
            if pair_lane.size:
                inv = invocation_f[pidx]
                lens = dem_len_f[pidx]
                if all_repeat:
                    # Due tasks are real (padded slots never release), so
                    # lens >= 1 and the modulo needs no floor.
                    value_idx = inv % lens
                else:
                    rep = repeat[pair_lane]
                    value_idx = np.where(rep, inv % np.maximum(lens, 1),
                                         inv)
                    out_of_trace = ~rep & (inv >= lens)
                    if np.count_nonzero(out_of_trace):
                        bad = np.unique(sub_lane[out_of_trace])
                        abandon(rrows[bad], "demand-underflow")
                        due_sub[bad] = False
                        keep = ~np.isin(sub_lane, bad)
                        sub_lane = sub_lane[keep]
                        pair_lane = pair_lane[keep]
                        pair_task = pair_task[keep]
                        pidx = pidx[keep]
                        inv = inv[keep]
                        value_idx = value_idx[keep]
            if pair_lane.size:
                release_time = next_release_f[pidx]
                fperiod = period_f[pidx]
                raw = dem_flat[dem_off_f[pidx] + value_idx]
                capped = np.minimum(raw, wcet_f[pidx])
                new_deadline = release_time + fperiod
                deadline_f[pidx] = new_deadline
                invocation_f[pidx] = inv + 1
                next_release_f[pidx] = new_deadline
                demand_f[pidx] = capped
                executed_f[pidx] = 0.0
                nonzero = capped > _EPS
                live_f[pidx] = nonzero
                masked_key_f[pidx] = np.where(
                    nonzero,
                    np.where(rm_key[pair_lane], fperiod, new_deadline),
                    np.inf)
                if jobs_exec is not None:
                    # Job bookkeeping only matters on tracked (need-
                    # cycles) lanes; rank the release order on those rows
                    # alone.
                    tracked_pair = cyc_rows[pair_lane] >= 0
                    if np.count_nonzero(tracked_pair):
                        # ``sub_lane`` comes from a row-major nonzero, so
                        # it is sorted; run-boundary dedup beats a full
                        # ``np.unique`` sort.
                        t_sl = sub_lane[tracked_pair]
                        head = np.empty(t_sl.size, dtype=bool)
                        head[0] = True
                        np.not_equal(t_sl[1:], t_sl[:-1], out=head[1:])
                        tsub = t_sl[head]
                        rank_sub = due_sub[tsub].cumsum(axis=1)
                        pos = tsub.searchsorted(t_sl)
                        t_lane = pair_lane[tracked_pair]
                        t_task = pair_task[tracked_pair]
                        job_of_f[pidx[tracked_pair]] = \
                            job_count[t_lane] \
                            + rank_sub.ravel()[pos * n_tasks + t_task] - 1
                        job_count[rrows[tsub]] += rank_sub[:, -1]
                # ccEDF on_release restores worst case; the zero-demand
                # completion immediately re-zeroes (0.0 / period == +0.0).
                util_f[pidx] = np.where(
                    nonzero, worst_util_f[pidx], 0.0)
            # Released-lane mask rebuilt from the (filtered) pair rows by
            # scatter — cheaper than an axis reduction over ``due_sub``.
            due_lane = np.zeros(rrows.size, dtype=bool)
            due_lane[sub_lane] = True
            select = due_lane & dyn[rrows] & ~abandoned[rrows]
            if np.count_nonzero(select):
                drows = rrows[select]
                # Scratch-order utilization sum: sequential over the task
                # axis, matching sum(dict.values()) in task order (+0.0
                # padding terms are bitwise no-ops on nonnegative sums,
                # so folding from column 0 matches folding from 0.0).
                usub = util[drows]
                total = usub[:, 0]
                for k in range(1, n_tasks):
                    total = total + usub[:, k]
                over = total > 1.0 + _EPS
                if np.count_nonzero(over):
                    abandon(drows[over], "over-unity")
                    under = ~over
                    drows = drows[under]
                    total = total[under]
                speed = np.minimum(total, 1.0)
                point[drows] = np.minimum(
                    freqs.searchsorted(speed - _EPS, side="left"), top)
            alive = ~abandoned[rrows]
            fin_sub = alive & (time[rrows] >= edge[rrows])
            phase[rrows[fin_sub]] = _PH_DONE
            open_sub = alive & ~fin_sub
            if np.count_nonzero(open_sub):
                orows = rrows[open_sub]
                # Explicit minimum fold over the (few) task columns: the
                # values are exactly what an axis reduction would pick,
                # without the reduce machinery's per-call overhead.
                nr_sub = next_release[orows]
                raw_min = nr_sub[:, 0]
                for k in range(1, n_tasks):
                    raw_min = np.minimum(raw_min, nr_sub[:, k])
                clipped = np.minimum(raw_min, duration[orows])
                stalled = clipped <= limit[orows]
                if np.count_nonzero(stalled):
                    abandon(orows[stalled], "stalled")
                    still = ~stalled
                    orows = orows[still]
                    raw_min = raw_min[still]
                    clipped = clipped[still]
                horizon_raw[orows] = raw_min
                horizon[orows] = clipped
                phase[orows] = _PH_EXEC

        # ================= execution step =================
        executing = ~abandoned & (phase == _PH_EXEC)
        if not np.count_nonzero(executing):
            continue
        # One segment per lane per iteration: completions that leave time
        # inside the window keep phase ``_PH_EXEC`` and rejoin the next
        # iteration's pass, batched with every other executing lane —
        # small per-window drain passes would be numpy-overhead-bound.
        exec_rows = executing.nonzero()[0]
        if exec_rows.size:
            ekeys = masked_key[exec_rows]
            ebest = ekeys.argmin(axis=1)
            # A lane has a ready job iff its smallest key is finite (the
            # key is inf exactly on empty slots); gathering the winner is
            # far cheaper than a second axis reduction.
            ehas = ekeys.ravel()[arange_scratch[:exec_rows.size]
                                 * n_tasks + ebest] < np.inf

            rows = exec_rows[~ehas]
            if rows.size:
                # ccEDF on_idle: drop to the slowest point before the
                # idle-energy computation, exactly like the hook.
                retune = rows[dyn[rows]]
                if retune.size:
                    point[retune] = 0
                points_now = point[rows]
                f = freqs[points_now]
                epc = epcs[points_now]
                cycles = (horizon[rows] - time[rows]) * f
                energy = (idle_coeff * cycles) * epc
                idle_energy[rows] += energy
                time[rows] = horizon[rows]
                phase[rows] = _PH_RELEASE

            rows = exec_rows[ehas]
            exec_rows = empty_rows
            if rows.size:
                task = ebest[ehas]
                ridx = rows * n_tasks + task
                remaining = demand_f[ridx] - executed_f[ridx]
                remaining = np.maximum(remaining, 0.0)
                points_now = point[rows]
                f = freqs[points_now]
                epc = epcs[points_now]
                finish = time[rows] + remaining / f
                completes = finish <= horizon[rows] + _EPS

                crows = rows[completes]
                if crows.size:
                    cidx = ridx[completes]
                    cpoints = points_now[completes]
                    energy = (scale * remaining[completes]) * epc[completes]
                    sidx = crows * n_points + cpoints
                    slot_acc_f[sidx] += energy
                    fresh = ~slot_seen_f[sidx]
                    if np.count_nonzero(fresh):
                        slot_seen_f[sidx] = True
                        for row, op_idx in zip(orig[crows[fresh]].tolist(),
                                               cpoints[fresh].tolist()):
                            slot_order[row].append(op_idx)
                    done_demand = demand_f[cidx]
                    # Completion absorbs float residue: executed = demand.
                    executed_f[cidx] = done_demand
                    live_f[cidx] = False
                    masked_key_f[cidx] = np.inf
                    if jobs_exec is not None:
                        tracked = cyc_rows[crows] >= 0
                        if np.count_nonzero(tracked):
                            jobs_exec[cyc_rows[crows][tracked],
                                      job_of_f[cidx[tracked]]] = \
                                done_demand[tracked]
                    time[crows] = finish[completes]
                    dsel = dyn[crows]
                    if np.count_nonzero(dsel):
                        drows = crows[dsel]
                        didx = cidx[dsel]
                        # ccEDF on_completion: actual/period, then re-select.
                        util_f[didx] = demand_f[didx] / period_f[didx]
                        usub = util[drows]
                        total = usub[:, 0]
                        for k in range(1, n_tasks):
                            total = total + usub[:, k]
                        over = total > 1.0 + _EPS
                        if np.count_nonzero(over):
                            abandon(np.unique(drows[over]), "over-unity")
                        speed = np.minimum(total, 1.0)
                        point[drows] = np.minimum(
                            freqs.searchsorted(speed - _EPS, side="left"),
                            top)
                    stay = (~(horizon_raw[crows] <= time[crows] + _EPS)
                            & ~(time[crows] >= edge[crows]))
                    phase[crows] = np.where(stay, _PH_EXEC, _PH_RELEASE)

                prows = rows[~completes]
                if prows.size:
                    partial_idx = ridx[~completes]
                    ppoints = points_now[~completes]
                    cycles = (horizon[prows] - time[prows]) * f[~completes]
                    energy = (scale * cycles) * epc[~completes]
                    sidx = prows * n_points + ppoints
                    slot_acc_f[sidx] += energy
                    fresh = ~slot_seen_f[sidx]
                    if np.count_nonzero(fresh):
                        slot_seen_f[sidx] = True
                        for row, op_idx in zip(orig[prows[fresh]].tolist(),
                                               ppoints[fresh].tolist()):
                            slot_order[row].append(op_idx)
                    executed_f[partial_idx] += cycles
                    if jobs_exec is not None:
                        tracked = cyc_rows[prows] >= 0
                        if np.count_nonzero(tracked):
                            jobs_exec[cyc_rows[prows][tracked],
                                      job_of_f[partial_idx[tracked]]] += \
                                cycles[tracked]
                    time[prows] = horizon[prows]
                    phase[prows] = _PH_RELEASE

    leftover = ~abandoned & (phase != _PH_DONE)
    if leftover.any():  # pragma: no cover - bound is generous
        abandon(np.nonzero(leftover)[0], "iteration-limit")

    # Lanes still in the working set get the same send-off compaction
    # gave the early finishers: the raise-mode deadline sweep, then an
    # accumulator flush to the per-original stores.
    final_check(np.nonzero(~abandoned)[0])
    flush(np.nonzero(~abandoned)[0])

    slot_rows = final_slot_acc.tolist()
    idle_list = final_idle.tolist()
    results: List[LaneResult] = []
    for row, lane in enumerate(lanes):
        if reasons[row] is not None:
            results.append(LaneResult(abandoned=reasons[row]))
            continue
        # Execution total in slot first-use order — the insertion order of
        # the kernel's breakdown dict — then idle, then (zero) switch.
        exec_total = 0.0
        acc = slot_rows[row]
        for op_idx in slot_order[row]:
            exec_total += acc[op_idx]
        total_energy = exec_total + idle_list[row] + 0.0
        cycles_total: Optional[float] = None
        if lane.need_cycles:
            job_row = jobs_exec[cyc_rows_full[row]]
            count = int(final_job_count[row])
            cycles_total = 0
            for value in job_row[:count].tolist():
                cycles_total += value
        results.append(LaneResult(
            abandoned=None,
            total_energy=total_energy,
            executed_cycles=cycles_total))
    return results


def lane_segment_bound(periods: Sequence[float], duration: float) -> int:
    """Upper bound on the jobs one lane can release (the release count
    :func:`lane_cut` weighs)."""
    total = 0
    for period_value in periods:
        if math.isfinite(period_value) and period_value > 0.0:
            total += int(math.ceil(duration / period_value)) + 1
    return total


def lane_cut(release_counts: Sequence[int]) -> int:
    """The release-count cut ``R`` that minimises a pass's predicted cost.

    Lanes with ``release_counts[i] <= R`` run in the lockstep pass; the
    rest run on the per-cell kernel.  ``R`` is ``0`` (every lane on the
    kernel) or one of the counts (the largest one: every lane on the
    pass); ties go to the smaller cut.  A cut between the two sheds the
    few dense lanes that would set a wide pass's iteration count (as on
    full-profile catalog columns).  See :data:`LANE_ITERATION_S` for the
    model.
    """
    counts = sorted(release_counts)
    remaining = sum(counts)
    best_cut, best_cost = 0, KERNEL_RELEASE_S * remaining
    laned = 0
    for count in counts:
        laned += count
        remaining -= count
        cost = (2.0 * LANE_ITERATION_S * count + 2.0 * LANE_RELEASE_S * laned
                + KERNEL_RELEASE_S * remaining)
        if cost < best_cost:
            best_cut, best_cost = count, cost
    return best_cut
