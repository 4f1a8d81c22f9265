"""Utilization sweeps: the experiment shape behind Figs. 9-13 and 16-17.

For each target worst-case utilization, generate ``n_sets`` random task
sets (paper methodology, Sec. 3.1), simulate every policy on each set with
identical per-invocation demands, and average raw and EDF-normalized energy
across the sets.  The theoretical lower bound is computed per set from the
cycles the plain-EDF reference actually executed.

Demands are *materialized* (pre-drawn into a trace) per task set so every
policy sees byte-identical invocation demands — otherwise random demand
models could de-synchronize across policies and corrupt the comparison.

Execution model
---------------
A sweep is a flat bag of independent *cells* — one per
``(utilization, set_index)`` pair.  Each cell is described by a compact,
seed-level :class:`CellSpec`; workers regenerate the task set and demand
trace locally from the seeds instead of unpickling megabytes of
materialized traces.  Cells stream through a barrier-free
:class:`~repro.analysis.executor.CellExecutor` (``submit`` +
``as_completed`` across the *whole* sweep, not per utilization point), and
outcomes can be cached on disk content-addressed by their full description
(:mod:`repro.analysis.cellcache`), so interrupted runs resume and repeated
figures that share cells skip re-simulation entirely.

Cell identity is pinned to the historical seed derivation: one
``TaskSetGenerator`` per utilization point draws ``n_sets`` task sets
*sequentially*, so a worker reproducing set ``k`` fast-forwards the
generator ``k`` draws (cheap — drawing a task set is microseconds against
a multi-second simulation; a per-process generator memo makes consecutive
cells O(1)).  This keeps every curve bit-identical across ``workers=1``,
``workers=N``, cold cache, and warm cache.

Every cell runs through :func:`run_cell` on the per-cell kernel
(:func:`repro.sim.batch_kernels.batch_simulate`); executors only decide
where it runs.

RM-based policies occasionally meet task sets that are EDF- but not
RM-schedulable (the paper's footnote 3).  Those cells fall back to
full-speed RM with misses tolerated, and the fallback count is reported in
the result, so the curves stay defined across the whole utilization range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.aggregate import mean, sample_std
from repro.analysis.cellcache import cell_key, open_cache
from repro.analysis.executor import CellExecutor, SweepProgress
from repro.analysis.series import Series, SweepTable
from repro.core import PAPER_POLICIES, make_policy
from repro.core.no_dvs import NoDVS
from repro.errors import ReproError, SchedulabilityError
from repro.hw.energy import EnergyModel
from repro.hw.machine import Machine, machine0
from repro.model.demand import DemandModel, TraceDemand, demand_from_spec
from repro.model.generator import DEFAULT_BANDS, PeriodBand, TaskSetGenerator
from repro.model.task import TaskSet
from repro.obs.metrics import MetricsCollector
from repro.sim.bound import minimum_energy_for_cycles
# Re-exported as the reference simulator: ``run_cell(..., simulate_fn=
# simulate)`` replays a cell on the discrete-event engine, which the
# differential tests and the catalog audit hold the per-cell kernel to
# (perfbench's probes also look the name up here).
from repro.sim.engine import simulate  # noqa: F401

#: Label used for the theoretical lower bound pseudo-policy.
BOUND_LABEL = "bound"

#: The reference policy every sweep runs for normalization.
REFERENCE_POLICY = "EDF"

DEFAULT_UTILIZATIONS: Tuple[float, ...] = tuple(
    round(0.1 * k, 1) for k in range(1, 11))

#: Matches the engine's horizon tolerance: releases within this of the
#: duration are suppressed (see ``repro.sim.engine`` module docs).
_HORIZON_EPS = 1e-9


def materialize_demand(model: DemandModel, taskset: TaskSet,
                       duration: float) -> TraceDemand:
    """Pre-draw every invocation's demand over ``[0, duration)``.

    Returns a :class:`TraceDemand` that replays the draws identically for
    every policy simulated on this task set.

    The draw count per task covers every release the engine can fire under
    the pinned duration-coincident convention (a release landing within
    ``_EPS`` of the horizon is suppressed): ``ceil(duration/period)``
    entries suffice because release ``k = ceil(d/p)`` satisfies
    ``k*p >= d`` in exact arithmetic.  A defensive top-up guards the one
    way that argument can fail — ``k*p`` rounding *below* ``d - _EPS`` in
    floating point — so a worker-side regeneration can never run out of
    trace entries and silently fall back to worst-case demand.
    """
    trace: Dict[str, List[float]] = {}
    for task in taskset:
        count = max(1, math.ceil(duration / task.period))
        while count * task.period < duration - _HORIZON_EPS:
            count += 1  # pragma: no cover - float pathology guard
        trace[task.name] = [model.demand(task, k) for k in range(count)]
    return TraceDemand(trace, repeat=False, fallback_fraction=1.0)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one utilization sweep.

    Defaults follow the paper: 8 tasks, machine 0, perfect idle, worst-case
    demand, utilizations 0.1 ... 1.0.  ``n_sets`` defaults to a laptop-scale
    20 (the paper averages "hundreds"; raise it for publication-grade
    smoothness).

    ``workers`` accepts an integer or ``"auto"`` (CPU-count derived).
    ``cache_dir`` points at a content-addressed cell-result cache
    (:mod:`repro.analysis.cellcache`); ``None`` disables caching.
    """

    policies: Tuple[str, ...] = PAPER_POLICIES
    utilizations: Tuple[float, ...] = DEFAULT_UTILIZATIONS
    n_tasks: int = 8
    n_sets: int = 20
    machine: Machine = field(default_factory=machine0)
    demand: Union[str, float, DemandModel] = "worst"
    idle_level: float = 0.0
    duration: float = 2000.0
    seed: int = 1
    workers: Union[int, str] = 1
    cycle_energy_scale: float = 1.0
    #: Policies to additionally instrument with a
    #: :class:`~repro.obs.MetricsCollector`; their mean per-frequency
    #: residency fractions land in :attr:`SweepResult.residency`.
    residency_policies: Tuple[str, ...] = ()
    cache_dir: Optional[str] = None
    #: Custom period bands ``((low, high), ...)`` for the task-set
    #: generator; ``None`` keeps the paper's 1-10/10-100/100-1000 ms
    #: defaults.  Result-determining: non-default bands enter the cell key.
    period_bands: Optional[Tuple[Tuple[float, float], ...]] = None
    #: ``"scalar"`` or ``"block"``, checked here and read nowhere:
    #: every cell runs on the per-cell kernel.  Not part of the cell
    #: identity.  Kept only because the repository benchmark
    #: (``perfbench/workloads.py``) sets it; it can go once that stops.
    engine: str = "scalar"

    def __post_init__(self) -> None:
        if self.engine not in ("scalar", "block"):
            raise ReproError(f"sweep config: unknown engine "
                             f"{self.engine!r}; expected one of "
                             "'scalar', 'block'")

    def energy_model(self) -> EnergyModel:
        return EnergyModel(idle_level=self.idle_level,
                           cycle_energy_scale=self.cycle_energy_scale)


@dataclass
class SweepResult:
    """Aggregated output of :func:`utilization_sweep`."""

    config: SweepConfig
    raw: SweepTable
    normalized: SweepTable
    std: Dict[str, Tuple[float, ...]]
    rm_fallbacks: int
    #: policy -> residency table (one series per operating-point frequency,
    #: mean fraction of the run spent there).  Filled only for
    #: :attr:`SweepConfig.residency_policies`.
    residency: Dict[str, SweepTable] = field(default_factory=dict)
    #: Cells answered straight from the on-disk cell cache.
    cache_hits: int = 0
    #: Cells actually simulated in this invocation.
    simulated_cells: int = 0
    #: Resolved worker count the sweep ran with.
    workers_used: int = 1
    #: Cells re-leased after a lost/expired distributed lease (always 0
    #: on in-process executors; see :mod:`repro.dist`).
    retries: int = 0
    #: Always 0 and ``{}``: the lane tier they counted is gone.  Kept
    #: only because the repository benchmark's traced runs
    #: (``perfbench/workloads.py``) read them; they can go once that stops.
    block_cells: int = 0
    block_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds per pipeline stage (``"aggregate"``).
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def series(self, label: str, normalized: bool = True) -> Series:
        table = self.normalized if normalized else self.raw
        return table.get(label)

    def std_table(self) -> SweepTable:
        """Per-point sample standard deviations of the *raw* energies.

        Exposes the across-task-set spread the mean curves average away;
        exported alongside the means for error bars in external plots.
        """
        table = SweepTable(
            title=self.raw.title + " — sample std across task sets",
            x_label=self.raw.x_label,
            y_label="energy std")
        xs = self.raw.xs
        for label in self.raw.labels():
            table.add(Series(label, xs, self.std[label]))
        return table


# ---------------------------------------------------------------------------
# cell descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepContext:
    """Everything a cell needs that is *shared* across the whole sweep.

    Shipped to worker processes once (via the pool initializer or, on a
    shared pool, memoized on first sight) and addressed by content digest
    thereafter — cells themselves only carry seeds.
    """

    machine: Machine
    policies: Tuple[str, ...]
    duration: float
    idle_level: float
    cycle_energy_scale: float
    residency_policies: Tuple[str, ...] = ()

    def description(self) -> Dict[str, object]:
        """JSON-safe canonical description (cache-key material)."""
        return {
            "machine": [[p.frequency, p.voltage]
                        for p in self.machine.points],
            "policies": list(self.policies),
            "duration": self.duration,
            "idle_level": self.idle_level,
            "cycle_energy_scale": self.cycle_energy_scale,
            "residency_policies": list(self.residency_policies),
            # Former option, now constant: keeps existing caches addressable.
            "steady_fast_path": False,
        }

    def digest(self) -> str:
        return cell_key(self.description())

    def energy_model(self) -> EnergyModel:
        return EnergyModel(idle_level=self.idle_level,
                           cycle_energy_scale=self.cycle_energy_scale)


@dataclass(frozen=True)
class CellSpec:
    """One (task set, all policies) work unit, at seed level.

    ``gen_seed`` seeds the per-utilization-point :class:`TaskSetGenerator`;
    ``set_index`` says how many sets to fast-forward past (sets are drawn
    sequentially from one generator — the historical derivation, kept so
    curves stay bit-identical to serial in-process sweeps).  ``demand`` is
    the compact spec (``"worst"``, ``"uniform"``, or a fraction); only
    when the sweep was configured with a live :class:`DemandModel`
    *instance* does ``trace`` carry a parent-materialized trace instead
    (such models may be stateful, so worker-side regeneration could not
    reproduce the sequential draw order).
    """

    utilization: float
    set_index: int
    n_tasks: int
    gen_seed: int
    demand_seed: int
    demand: Union[str, float, None]
    trace: Optional[TraceDemand] = None
    #: Custom generator period bands (affects the drawn task set, so it is
    #: part of the cell identity); ``None`` = paper defaults.
    bands: Optional[Tuple[Tuple[float, float], ...]] = None

    @property
    def cacheable(self) -> bool:
        """Only seed-described cells are content-addressable."""
        return self.trace is None

    def description(self) -> Dict[str, object]:
        """JSON-safe cell-local description (cache-key material)."""
        description: Dict[str, object] = {
            "utilization": self.utilization,
            "set_index": self.set_index,
            "n_tasks": self.n_tasks,
            "gen_seed": self.gen_seed,
            "demand_seed": self.demand_seed,
            "demand": self.demand,
        }
        if self.bands is not None:
            # Only non-default bands enter the key, so every pre-existing
            # default-band cell key is unchanged.
            description["bands"] = [list(band) for band in self.bands]
        return description


def cell_cache_key(context: SweepContext, spec: CellSpec) -> str:
    """Content hash addressing one cell's outcome on disk."""
    description = context.description()
    description["cell"] = spec.description()
    return cell_key(description)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

def utilization_sweep(config: SweepConfig,
                      executor: Optional[CellExecutor] = None,
                      progress: Union[bool, SweepProgress, None] = None,
                      ) -> SweepResult:
    """Run the sweep described by ``config``.

    ``executor`` lets callers (notably ``run-all``) share one worker pool
    across many sweeps; when omitted, the sweep manages its own pool sized
    by ``config.workers``.  ``progress`` enables per-sweep throughput/ETA
    lines on stderr (or pass a :class:`SweepProgress` to customize).
    """
    context = sweep_context(config)
    specs = _build_cell_specs(config)
    cache = open_cache(config.cache_dir)

    outcomes: List[Optional[Dict[str, object]]] = [None] * len(specs)
    keys: List[Optional[str]] = [None] * len(specs)
    pending: List[int] = []
    cache_hits = 0
    for index, spec in enumerate(specs):
        if cache is not None and spec.cacheable:
            keys[index] = cell_cache_key(context, spec)
            cached = cache.get(keys[index])
            if cached is not None:
                outcomes[index] = cached
                cache_hits += 1
                continue
        pending.append(index)

    if isinstance(progress, SweepProgress):
        meter: Optional[SweepProgress] = progress
    elif progress:
        meter = SweepProgress(total=len(specs),
                              label=f"sweep seed={config.seed}")
    else:
        meter = None
    if meter is not None:
        for _ in range(cache_hits):
            meter.advance(cache_hit=True)

    own_executor = executor is None
    runner = executor if executor is not None \
        else CellExecutor(config.workers)
    # Shared executors (run-all, the service) accumulate lease retries
    # across sweeps; snapshot so this result reports its own delta.
    retries_before = getattr(runner, "retries", 0)
    try:
        pending_specs = [specs[index] for index in pending]

        def store(sub_index: int, outcome: Dict[str, object]) -> None:
            index = pending[sub_index]
            outcomes[index] = outcome
            if cache is not None and keys[index] is not None:
                cache.put(keys[index], outcome)

        # Drain the barrier-free stream; `store` fills `outcomes`.
        for _ in runner.run_cells(context, pending_specs, progress=meter,
                                  on_result=store):
            pass
        workers_used = runner.workers
    finally:
        if own_executor:
            runner.shutdown()

    started = perf_counter()
    result = _aggregate(config, _result_labels(config), outcomes)
    result.stage_seconds["aggregate"] = perf_counter() - started
    result.cache_hits = cache_hits
    result.simulated_cells = len(pending)
    result.workers_used = workers_used
    result.retries = getattr(runner, "retries", 0) - retries_before
    return result


# ---------------------------------------------------------------------------
# cell construction (driver side)
# ---------------------------------------------------------------------------

def sweep_context(config: SweepConfig) -> SweepContext:
    """The shared :class:`SweepContext` a sweep run derives from its
    config, including the EDF-reference label insertion.  It is the one
    definition: :func:`utilization_sweep` builds its context here, and
    the catalog audit replays cells under the same call."""
    labels = _result_labels(config)
    return SweepContext(
        machine=config.machine,
        policies=tuple(labels[:-1]),
        duration=config.duration,
        idle_level=config.idle_level,
        cycle_energy_scale=config.cycle_energy_scale,
        residency_policies=tuple(config.residency_policies))


def sweep_cell_specs(config: SweepConfig) -> List[CellSpec]:
    """Every cell of the sweep ``config`` describes, in result order.

    Public alias of the internal builder so the audit layer can replay
    the same cells the sweep ran, from the same seed derivation.
    """
    return _build_cell_specs(config)


def sweep_result_labels(config: SweepConfig) -> List[str]:
    """Result-order labels for ``config``: configured policies with the
    EDF reference inserted, plus the lower-bound curve — exactly the
    labels :func:`utilization_sweep` aggregates."""
    return _result_labels(config)


def aggregate_outcomes(config: SweepConfig,
                       outcomes: List[Dict[str, object]]) -> SweepResult:
    """Fold a complete, ordered outcome list into a :class:`SweepResult`.

    ``outcomes`` must be in :func:`sweep_cell_specs` order (one entry per
    cell, ``(u_index, set_index)``-major).  This is the exact aggregation
    :func:`utilization_sweep` applies to its own cells, exposed so
    out-of-process executors (the service tier) produce bit-identical
    tables from the same outcome dicts by construction.
    """
    return _aggregate(config, _result_labels(config), outcomes)


def _build_cell_specs(config: SweepConfig) -> List[CellSpec]:
    """All cells of the sweep, ordered ``(u_index, set_index)``.

    Reproduces the historical seed derivation exactly: per utilization
    point, one root RNG yields the generator seed and then one demand seed
    per set, interleaved with the (RNG-independent) sequential task-set
    draws.
    """
    demand_is_model = isinstance(config.demand, DemandModel)
    bands = config.period_bands
    specs: List[CellSpec] = []
    for u_index, utilization in enumerate(config.utilizations):
        seed_root = random.Random(f"{config.seed}/{u_index}")
        gen_seed = seed_root.randrange(2 ** 63)
        generator = TaskSetGenerator(
            n_tasks=config.n_tasks, utilization=utilization,
            bands=_period_bands(bands), seed=gen_seed) \
            if demand_is_model else None
        for set_index in range(config.n_sets):
            demand_seed = seed_root.randrange(2 ** 63)
            trace = None
            if demand_is_model:
                # Stateful model instances must be drawn sequentially in
                # the parent; ship the materialized trace for this cell.
                taskset = generator.generate()
                trace = materialize_demand(config.demand, taskset,
                                           config.duration)
            specs.append(CellSpec(
                utilization=utilization,
                set_index=set_index,
                n_tasks=config.n_tasks,
                gen_seed=gen_seed,
                demand_seed=demand_seed,
                demand=None if demand_is_model else config.demand,
                trace=trace,
                bands=bands))
    return specs


def _period_bands(bands: Optional[Tuple[Tuple[float, float], ...]]):
    """Resolve a config/spec band tuple to generator bands (or default)."""
    if bands is None:
        return DEFAULT_BANDS
    return tuple(PeriodBand(low, high) for low, high in bands)


# ---------------------------------------------------------------------------
# cell execution (worker side)
# ---------------------------------------------------------------------------

#: Per-process task-set generator memo: (gen_seed, n_tasks, utilization,
#: bands) -> (generator, sets already drawn).  Streamed cells arrive in
#: roughly increasing set_index per utilization point, so regeneration is
#: amortized O(1) per cell.
_GENERATOR_MEMO: Dict[tuple, Tuple[TaskSetGenerator, int]] = {}

_GENERATOR_MEMO_LIMIT = 256


def _taskset_for(spec: CellSpec) -> TaskSet:
    """Regenerate cell ``spec``'s task set from its seeds."""
    memo_key = (spec.gen_seed, spec.n_tasks, spec.utilization, spec.bands)
    generator, produced = _GENERATOR_MEMO.get(memo_key, (None, 0))
    if generator is None or produced > spec.set_index:
        generator = TaskSetGenerator(
            n_tasks=spec.n_tasks, utilization=spec.utilization,
            bands=_period_bands(spec.bands), seed=spec.gen_seed)
        produced = 0
    taskset = None
    while produced <= spec.set_index:
        taskset = generator.generate()
        produced += 1
    if len(_GENERATOR_MEMO) >= _GENERATOR_MEMO_LIMIT:
        _GENERATOR_MEMO.clear()
    _GENERATOR_MEMO[memo_key] = (generator, produced)
    return taskset


def materialize_cell(context: SweepContext,
                     spec: CellSpec) -> Tuple[TaskSet, TraceDemand]:
    """Rebuild a cell's task set and demand trace from its description."""
    taskset = _taskset_for(spec)
    if spec.trace is not None:
        return taskset, spec.trace
    model = demand_from_spec(spec.demand, seed=spec.demand_seed)
    return taskset, materialize_demand(model, taskset, context.duration)


def run_cell(context: SweepContext, spec: CellSpec,
             simulate_fn=None,
             materialized: Optional[Tuple[TaskSet, TraceDemand]] = None,
             ) -> Dict[str, object]:
    """Simulate every policy on one cell; returns label -> energy
    (plus ``_rm_fallbacks`` and, when requested, ``_residency``).

    Every run goes through ``simulate_fn``.  The default is
    :func:`repro.sim.batch_kernels.batch_simulate` (the flat-array
    ``CellKernel``, residency collectors included, with the event engine
    outside its envelope), and ``simulate_fn=repro.sim.engine.simulate``
    replays the cell on the event engine, the reference the kernel must
    match bit for bit.  Any replacement must be drop-in compatible with
    :func:`repro.sim.engine.simulate`.  ``materialized`` supplies a
    pre-built ``(taskset, demand)`` pair in place of
    :func:`materialize_cell`'s (tests use it to inject a demand trace);
    cache keys are derived from the spec alone.
    """
    taskset, demand = materialized if materialized is not None \
        else materialize_cell(context, spec)
    if simulate_fn is None:
        # Imported here so that importing this module (service start-up,
        # worker processes) does not load the kernel module.
        from repro.sim.batch_kernels import batch_simulate, cell_params
        # One flattened parameter row per cell, demand rows included,
        # shared by every policy run below (the RM fallback too), which
        # also share the release stream the first run builds.
        simulate_fn = partial(batch_simulate,
                              params=cell_params(taskset, demand))
    energy_model = context.energy_model()
    out: Dict[str, object] = {"_rm_fallbacks": 0}
    residency: Dict[str, Dict[float, float]] = {}
    reference_cycles: Optional[float] = None

    def run_one(policy, on_miss, collector):
        result = simulate_fn(taskset, context.machine, policy,
                             demand=demand, duration=context.duration,
                             energy_model=energy_model, on_miss=on_miss,
                             instrument=collector)
        return result.total_energy, result.executed_cycles

    for name in context.policies:
        collector = None
        if name in context.residency_policies:
            collector = MetricsCollector()
        try:
            energy, cycles = run_one(make_policy(name), "raise", collector)
        except SchedulabilityError:
            # EDF-schedulable but not RM-schedulable (paper footnote 3):
            # fall back to full-speed RM and tolerate the misses.
            energy, cycles = run_one(NoDVS(scheduler="rm"), "drop",
                                     collector)
            out["_rm_fallbacks"] += 1
        if collector is not None:
            seconds_at, span = collector.last_residency()
            span = span or 1.0
            residency[name] = {f: seconds / span for f, seconds in
                               seconds_at.items()}
        out[name] = energy
        if name == REFERENCE_POLICY:
            reference_cycles = cycles
    if reference_cycles is None:  # pragma: no cover - labels always add EDF
        raise ReproError("sweep cell ran without the EDF reference")
    if demand.fallback_draws:
        # The materialized trace must cover every fired release; a
        # fallback draw means regeneration and engine disagree about the
        # horizon — corrupt data, never average it into a curve.
        raise ReproError(
            f"materialized demand trace underflowed ({demand.fallback_draws}"
            f" fallback draws) for cell u={spec.utilization} "
            f"set={spec.set_index}")
    out[BOUND_LABEL] = context.cycle_energy_scale * minimum_energy_for_cycles(
        context.machine, reference_cycles, context.duration)
    if residency:
        out["_residency"] = residency
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _aggregate(config: SweepConfig, labels: List[str],
               outcomes: List[Dict[str, object]]) -> SweepResult:
    """Fold per-cell outcomes (ordered by (u_index, set_index)) into the
    mean/std/residency tables."""
    per_label: Dict[str, List[List[float]]] = {label: [] for label in labels}
    frequencies = tuple(sorted(p.frequency for p in config.machine.points))
    res_acc: Dict[str, Dict[float, List[List[float]]]] = {
        policy: {f: [] for f in frequencies}
        for policy in config.residency_policies}
    rm_fallbacks = 0
    for u_index in range(len(config.utilizations)):
        row = outcomes[u_index * config.n_sets:(u_index + 1) * config.n_sets]
        for label in labels:
            per_label[label].append([o[label] for o in row])
        rm_fallbacks += sum(o["_rm_fallbacks"] for o in row)
        for policy, per_freq in res_acc.items():
            for f in frequencies:
                per_freq[f].append(
                    [o.get("_residency", {}).get(policy, {}).get(f, 0.0)
                     for o in row])

    raw = SweepTable(title=_title(config, normalized=False),
                     x_label="worst-case utilization", y_label="energy")
    normalized = SweepTable(title=_title(config, normalized=True),
                            x_label="worst-case utilization",
                            y_label="energy (normalized to EDF)")
    std: Dict[str, Tuple[float, ...]] = {}
    xs = tuple(config.utilizations)
    for label in labels:
        raw_means = tuple(mean(v) for v in per_label[label])
        raw.add(Series(label, xs, raw_means))
        norm_values = [
            [v / ref for v, ref in zip(values, references)]
            for values, references in zip(per_label[label],
                                          per_label[REFERENCE_POLICY])]
        normalized.add(Series(
            label, xs, tuple(mean(v) for v in norm_values)))
        std[label] = tuple(sample_std(v) for v in per_label[label])
    residency: Dict[str, SweepTable] = {}
    for policy, per_freq in res_acc.items():
        table = SweepTable(
            title=(f"frequency residency vs utilization — {policy}, "
                   f"{config.machine.name}"),
            x_label="worst-case utilization",
            y_label="mean fraction of run")
        for f in frequencies:
            table.add(Series(f"f={f:g}", xs,
                             tuple(mean(v) for v in per_freq[f])))
        residency[policy] = table
    return SweepResult(config=config, raw=raw, normalized=normalized,
                       std=std, rm_fallbacks=rm_fallbacks,
                       residency=residency)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _result_labels(config: SweepConfig) -> List[str]:
    labels = list(config.policies)
    if REFERENCE_POLICY not in labels:
        labels.insert(0, REFERENCE_POLICY)
    labels.append(BOUND_LABEL)
    return labels


def _title(config: SweepConfig, normalized: bool) -> str:
    kind = "normalized energy" if normalized else "energy"
    return (f"{kind} vs utilization — {config.n_tasks} tasks, "
            f"{config.machine.name}, demand={config.demand}, "
            f"idle={config.idle_level}")
