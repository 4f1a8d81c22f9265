"""The sweep engines and the one place that picks between them.

A sweep cell runs on one of :data:`ENGINES`:

* ``"scalar"`` hands every cell to :func:`repro.analysis.sweep.run_cell`,
  one policy run at a time on the per-cell simulator
  (:func:`repro.sim.batch_kernels.batch_simulate`: the flat-array
  :class:`~repro.sim.batch_kernels.CellKernel` inside its envelope, the
  discrete-event engine outside it).  This is the default.
* ``"block"`` walks the sweep's cell stream *column by column* — a column
  being the run of consecutive cells that share one task-set recipe
  ``(utilization, gen_seed, n_tasks, bands, demand)`` — materializes each
  column once into a structure-of-arrays :class:`ColumnBlock`, and turns
  every *policy run* of every cell into one lane of the cross-cell
  vectorized simulator (:mod:`repro.sim.block_kernels`); the whole cell
  stream advances in lockstep array passes over the lane axis.  The
  planner runs each policy's real ``setup`` to seed the lane, and hands
  every run the lanes cannot replicate exactly (unsupported policies,
  instrumented runs, abandoned lanes, no numpy) to the scalar engine's
  per-cell simulator: block lane → ``CellKernel`` → event engine.
  Per-run fallback reasons and per-stage timings are reported through
  :class:`BlockStats` so silent degradation is visible in sweep results.

:func:`iter_cells` and :func:`encode_cells` are the engine→runner
decision every executor shares (the in-process pool, the inline path,
the distributed worker), and :func:`fan_out_units` says how a parallel
executor splits a sweep into worker tasks.

Two invariants anchor the design:

* **Bit identity.**  A block cell produces the *same outcome dict* as the
  scalar path: every cell is assembled by
  :func:`repro.analysis.sweep.run_cell` itself, parameterized with a
  lane-serving simulation entry point, so the RM fallback logic, the
  bound and residency instrumentation compose identically.  Both
  engines are held to the discrete-event engine (``run_cell(...,
  simulate_fn=repro.sim.engine.simulate)``) by the differential tests
  and the catalog audit's ``engine-parity`` check.
* **Lazy loading.**  Importing this module, :mod:`repro.analysis.sweep`
  or :mod:`repro.service` loads no kernel module: ``run_cell`` imports
  the per-cell kernel when a cell first runs, and the block modules load
  only on the block path.  numpy only ever loads through
  :func:`repro.sim.batch_kernels.numpy_backend`, which only block code
  calls, so a scalar sweep keeps ``numpy`` out of ``sys.modules``
  entirely (asserted by :mod:`benchmarks.numpy_guard`; the one sanctioned
  importer outside the block path is the vectorized RTA in
  :mod:`repro.model.schedulability`, which only static-RM admission
  reaches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from time import perf_counter
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.analysis.sweep import (REFERENCE_POLICY, CellSpec, SweepContext,
                                  materialize_cell, run_cell)
from repro.analysis.transport import encode_cell
from repro.core import make_policy
from repro.core.cycle_conserving import CycleConservingEDF
from repro.core.no_dvs import NoDVS
from repro.core.static_scaling import StaticEDF, StaticRM
from repro.errors import MachineError, ReproError, SchedulabilityError
from repro.model.demand import TraceDemand
from repro.model.task import TaskSet

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.block_kernels import LaneResult, LaneSpec

#: Engine names accepted by every entry point: ``SweepConfig.engine``,
#: ``rtdvs run``/``run-all``/``submit --engine``, the service protocol,
#: and (with ``"auto"``) ``rtdvs worker --engine``.
ENGINES = ("scalar", "block")


def unknown_engine(engine: object) -> str:
    """The message every entry point rejects a bad engine name with."""
    return (f"unknown engine {engine!r}; expected one of "
            f"{', '.join(repr(name) for name in ENGINES)}")


# ---------------------------------------------------------------------------
# the engine dispatcher
# ---------------------------------------------------------------------------

def iter_cells(context: SweepContext, specs: Sequence[CellSpec],
               engine: str = "scalar", stats: Optional["BlockStats"] = None,
               ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order.

    ``"scalar"`` runs each cell through
    :func:`~repro.analysis.sweep.run_cell`; ``"block"`` runs them all
    through :func:`iter_cells_block`, which fills ``stats``.  Any other
    name raises :class:`~repro.errors.ReproError` before a cell runs.
    """
    if engine == "block":
        return iter_cells_block(context, specs, stats=stats)
    if engine == "scalar":
        return ((index, run_cell(context, spec))
                for index, spec in enumerate(specs))
    raise ReproError(unknown_engine(engine))


def encode_cells(context: SweepContext, specs: Sequence[CellSpec],
                 engine: str = "scalar",
                 ) -> Tuple[List[bytes], Optional[Dict[str, object]]]:
    """Run ``specs`` on ``engine``; return their CTR1 payloads.

    The payloads (:func:`~repro.analysis.transport.encode_cell`) come in
    spec order, next to the block engine's :class:`BlockStats` as a plain
    dict (``None`` on the scalar engine).  Stats ride *beside* the
    payloads, never inside them, because the cell wire format and the
    shared cell cache are engine-agnostic.
    """
    stats = BlockStats() if engine == "block" else None
    encoded = [encode_cell(outcome) for _, outcome
               in iter_cells(context, specs, engine, stats)]
    return encoded, None if stats is None else stats.to_dict()


def fan_out_units(specs: Sequence[CellSpec],
                  engine: str) -> List[List[CellSpec]]:
    """Split ``specs`` into the units a parallel executor ships.

    The block engine's unit of useful work is the column (its lanes
    amortize across it), so it ships whole columns; the scalar engine
    ships single cells.  Units concatenate back to ``specs`` in order.
    """
    if engine == "block":
        return _columns(specs)
    return [[spec] for spec in specs]


# ---------------------------------------------------------------------------
# column blocks
# ---------------------------------------------------------------------------

def _column_key(spec: CellSpec) -> tuple:
    """The task-set recipe a sweep column shares.

    Cells with equal keys draw from the same seeded generator stream, so
    one materialization pass serves the whole run of them.
    """
    return (spec.utilization, spec.gen_seed, spec.n_tasks, spec.bands,
            spec.demand)


def _columns(specs: Sequence[CellSpec]) -> List[List[CellSpec]]:
    """``specs`` cut into its runs of consecutive same-recipe cells."""
    return [list(group) for _, group in groupby(specs, key=_column_key)]


@dataclass
class ColumnBlock:
    """One sweep column, materialized as structure-of-arrays state.

    Every array is laid out with the **cell index as the leading axis**:
    ``periods[c][i]`` is task ``i`` of cell ``c``.  The block carries the
    release/deadline state seed (flattened task parameters consumed by
    :class:`~repro.sim.batch_kernels.CellKernel`) and the per-cell initial
    frequency-selection state (the operating-point index a
    utilization-proportional policy starts from, computed with the
    vectorized ``lowest_at_least`` kernel — diagnostic block stats, never
    result-bearing).
    """

    context: SweepContext
    specs: List[CellSpec]
    tasksets: List[TaskSet]
    demands: List[TraceDemand]
    periods: List[List[float]]
    wcets: List[List[float]]
    initial_point_index: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)


def build_column_block(context: SweepContext,
                       specs: Sequence[CellSpec]) -> ColumnBlock:
    """Materialize one column of cells into a :class:`ColumnBlock`."""
    from repro.sim.batch_kernels import lowest_at_least_indices
    tasksets: List[TaskSet] = []
    demands: List[TraceDemand] = []
    periods: List[List[float]] = []
    wcets: List[List[float]] = []
    utilizations: List[float] = []
    for spec in specs:
        taskset, demand = materialize_cell(context, spec)
        tasksets.append(taskset)
        demands.append(demand)
        periods.append([t.period for t in taskset])
        wcets.append([t.wcet for t in taskset])
        total = 0.0
        for task in taskset:
            total += task.wcet / task.period
        utilizations.append(total if total <= 1.0 else 1.0)
    initial = lowest_at_least_indices(context.machine, utilizations)
    return ColumnBlock(context=context, specs=list(specs),
                       tasksets=tasksets, demands=demands,
                       periods=periods, wcets=wcets,
                       initial_point_index=initial)


# ---------------------------------------------------------------------------
# the block engine (cross-cell vectorized lanes)
# ---------------------------------------------------------------------------

@dataclass
class BlockStats:
    """Eligibility and timing accounting for one block-engine run.

    ``block_cells`` counts cells where at least one policy run was served
    straight from a vectorized lane; ``fallbacks`` maps a reason to the
    number of simulation calls routed down the per-cell fallback ladder
    instead.
    """

    block_cells: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds spent materializing columns and planning lanes.
    build_seconds: float = 0.0
    #: Wall seconds spent inside the vectorized lane simulator.
    kernel_seconds: float = 0.0

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {"block_cells": self.block_cells,
                "fallbacks": dict(self.fallbacks),
                "build_seconds": self.build_seconds,
                "kernel_seconds": self.kernel_seconds}

    def merge_dict(self, other: Dict[str, object]) -> None:
        self.block_cells += other.get("block_cells", 0)
        for reason, count in other.get("fallbacks", {}).items():
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count
        self.build_seconds += other.get("build_seconds", 0.0)
        self.kernel_seconds += other.get("kernel_seconds", 0.0)


class _SetupView:
    """The slice of :class:`~repro.sim.engine.SchedulerView` a supported
    policy's ``setup`` reads (task set, machine, the zero start time)."""

    __slots__ = ("taskset", "machine", "time")

    def __init__(self, taskset: TaskSet, machine) -> None:
        self.taskset = taskset
        self.machine = machine
        self.time = 0.0


def _lane_traits(policy) -> Optional[Tuple[bool, bool]]:
    """``(rm_priority, dynamic)`` for a block-supported policy, ``None``
    outside the envelope.

    Exact-type checks: the lane simulator hard-codes each policy's
    frequency-selection rule, so a subclass with overridden hooks must
    not silently inherit its parent's lane.
    """
    kind = type(policy)
    if kind is NoDVS:
        return policy.scheduler == "rm", False
    if kind is StaticEDF:
        return False, False
    if kind is StaticRM:
        return True, False
    if kind is CycleConservingEDF:
        return False, True
    return None


@dataclass
class _PlannedLane:
    """One planned lane and (after the kernel pass) its result."""

    lane: LaneSpec
    result: Optional[LaneResult] = None


class _LaneOutcome:
    """The ``SimResult`` slice the sweep cell actually consumes."""

    __slots__ = ("total_energy", "executed_cycles")

    def __init__(self, total_energy: float,
                 executed_cycles: Optional[float]) -> None:
        self.total_energy = total_energy
        self.executed_cycles = executed_cycles


def _plan_cell(block: ColumnBlock, index: int,
               lane_specs: List[LaneSpec],
               planned_lanes: List[_PlannedLane]) -> Dict[tuple, object]:
    """Plan every policy run of one cell as a lane (or a rejection).

    Returns ``(policy_name, on_miss) -> _PlannedLane | reason-string``.
    Runs each policy's real ``setup`` so the lane starts from the exact
    state the scalar run would — a setup-time
    :class:`~repro.errors.SchedulabilityError` plans no lane (the
    fallback rerun raises the genuine error for ``run_cell`` to catch)
    and instead plans the full-speed-RM lane that ``run_cell`` retries
    with.
    """
    from repro.sim.block_kernels import LaneSpec
    context = block.context
    taskset = block.tasksets[index]
    demand = block.demands[index]
    machine = context.machine
    plans: Dict[tuple, object] = {}

    values_by_task: List[Sequence[float]] = []
    demand_ok = type(demand) is TraceDemand
    if demand_ok:
        for task in taskset:
            values = demand.trace.get(task.name)
            if not values:
                # An uncovered task draws the fallback fraction *and*
                # bumps ``fallback_draws``; only the real model does that
                # bookkeeping, so the whole cell leaves the envelope.
                demand_ok = False
                break
            values_by_task.append(values)

    def add_lane(key: tuple, policy, rm_priority: bool, dynamic: bool,
                 drop_on_miss: bool, need_cycles: bool) -> None:
        if key in plans:
            return
        try:
            initial = policy.setup(_SetupView(taskset, machine))
        except SchedulabilityError:
            plans[key] = "schedulability"
            if not drop_on_miss:
                # run_cell's footnote-3 retry: full-speed RM, drop mode.
                add_lane(("RM", "drop"), NoDVS(scheduler="rm"),
                         rm_priority=True, dynamic=False,
                         drop_on_miss=True, need_cycles=False)
            return
        try:
            point_index = machine.index_of(
                machine.fastest if initial is None else initial)
        except MachineError:
            plans[key] = "unsupported-policy"
            return
        lane = LaneSpec(
            periods=block.periods[index],
            wcets=block.wcets[index],
            demand_values=values_by_task,
            demand_repeat=demand.repeat,
            duration=context.duration,
            initial_point=point_index,
            rm_priority=rm_priority,
            dynamic=dynamic,
            drop_on_miss=drop_on_miss,
            need_cycles=need_cycles)
        planned = _PlannedLane(lane=lane)
        plans[key] = planned
        lane_specs.append(lane)
        planned_lanes.append(planned)

    for name in context.policies:
        policy = make_policy(name)
        key = (getattr(policy, "name", name), "raise")
        if not demand_ok:
            plans[key] = "demand-shape"
            continue
        if name in context.residency_policies:
            plans[key] = "instrumented"
            continue
        traits = _lane_traits(policy)
        if traits is None:
            plans[key] = "unsupported-policy"
            continue
        rm_priority, dynamic = traits
        add_lane(key, policy, rm_priority, dynamic,
                 drop_on_miss=False,
                 need_cycles=(name == REFERENCE_POLICY))
    return plans


def _block_simulate_fn(block: ColumnBlock, index: int,
                       plans: Dict[tuple, object],
                       stats: BlockStats, flags: Dict[str, bool]):
    """A ``simulate``-shaped callable serving one cell from its lanes.

    Calls that match a clean planned lane return its precomputed
    full-horizon totals; everything else — rejected policies, abandoned
    lanes, instrumented or unexpected call shapes — is counted in
    ``stats`` and delegated to
    :func:`~repro.sim.batch_kernels.batch_simulate` — the scalar engine's
    own per-cell simulator — so the outcome is the scalar one, exceptions
    included.
    """
    params = (block.periods[index], block.wcets[index])

    from repro.sim.batch_kernels import batch_simulate

    def sim(ts, mach, policy, demand=None, duration=None,
            energy_model=None, on_miss="raise", instrument=None,
            record_trace=False, **kwargs):
        reason: Optional[str] = None
        planned = plans.get((getattr(policy, "name", None), on_miss))
        if instrument is not None:
            reason = "instrumented"
        elif kwargs:
            reason = "unsupported-call"
        elif isinstance(planned, str):
            reason = planned
        elif planned is None:
            reason = "unplanned-run"
        elif planned.result is None:
            reason = "kernel-unavailable"
        elif planned.result.abandoned is not None:
            reason = planned.result.abandoned
        elif not record_trace and duration == planned.lane.duration:
            flags["hit"] = True
            result = planned.result
            return _LaneOutcome(result.total_energy, result.executed_cycles)
        else:
            # A lane holds totals only; it cannot serve a trace request.
            reason = "call-shape"
        stats.fallback(reason)
        return batch_simulate(ts, mach, policy, params=params,
                              demand=demand, duration=duration,
                              energy_model=energy_model, on_miss=on_miss,
                              instrument=instrument,
                              record_trace=record_trace, **kwargs)

    return sim


def _run_planned_cell(block: ColumnBlock, index: int,
                      plans: Dict[tuple, object],
                      stats: BlockStats) -> Dict[str, object]:
    """Run one planned cell through the scalar ``run_cell`` driver."""
    flags = {"hit": False}
    outcome = run_cell(
        block.context, block.specs[index],
        simulate_fn=_block_simulate_fn(block, index, plans, stats, flags),
        materialized=(block.tasksets[index], block.demands[index]))
    if flags["hit"]:
        stats.block_cells += 1
    return outcome


def _plan_and_execute(cells: List[Tuple[ColumnBlock, int]],
                      stats: BlockStats) -> List[Dict[tuple, object]]:
    """Plan lanes for every cell, run one vectorized mega-pass over all
    of them, and attach the results (or a shared fallback reason)."""
    from repro.sim import block_kernels
    from repro.sim.batch_kernels import numpy_backend
    context = cells[0][0].context if cells else None
    lane_specs: List[LaneSpec] = []
    planned_lanes: List[_PlannedLane] = []
    started = perf_counter()
    plans = [_plan_cell(block, index, lane_specs, planned_lanes)
             for block, index in cells]
    stats.build_seconds += perf_counter() - started

    results = None
    if lane_specs and len(lane_specs) >= block_kernels.BLOCK_MIN_LANES:
        started = perf_counter()
        results = block_kernels.run_lanes(context.machine, context.energy_model(),
                            lane_specs)
        stats.kernel_seconds += perf_counter() - started
    if results is not None:
        for planned, result in zip(planned_lanes, results):
            planned.result = result
    elif planned_lanes:
        reason = ("no-numpy" if numpy_backend() is None
                  else "small-block" if lane_specs
                  and len(lane_specs) < block_kernels.BLOCK_MIN_LANES
                  else "kernel-unavailable")
        for cell_plans in plans:
            for key, planned in list(cell_plans.items()):
                if isinstance(planned, _PlannedLane):
                    cell_plans[key] = reason
    return plans


def iter_cells_block(context: SweepContext, specs: Sequence[CellSpec],
                     stats: Optional[BlockStats] = None,
                     ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order.

    The inline block path: all columns are materialized and planned up
    front, one mega-pass advances the lanes of the *entire* sweep
    simultaneously (the lane axis concatenates columns; lanes pad to the
    widest task count), and outcomes are then assembled per cell.
    """
    stats = BlockStats() if stats is None else stats
    cells: List[Tuple[ColumnBlock, int]] = []
    for column in _columns(specs):
        block = build_column_block(context, column)
        cells.extend((block, index) for index in range(len(column)))
    plans = _plan_and_execute(cells, stats)
    for position, ((block, index), cell_plans) in \
            enumerate(zip(cells, plans)):
        yield position, _run_planned_cell(block, index, cell_plans, stats)
