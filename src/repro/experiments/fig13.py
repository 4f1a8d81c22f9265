"""Fig. 13 — per-invocation demand uniformly distributed in [0, C_i].

8 tasks, machine 0, idle level 0.  The paper's observation: "Despite the
randomness introduced, the results appear identical to setting computation
to a constant one half of the specified value" — i.e. for the dynamic
mechanisms the *average* utilization determines relative energy, while the
static ones depend only on the worst case (and ccRM mostly does too).
"""

from __future__ import annotations

from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult

N_TASKS = 8


def sweep_uniform(quick: bool, workers=1, executor=None, cache_dir=None,
                  progress=False) -> SweepResult:
    """The Fig. 13 sweep (catalog panel ``fig13/uniform``)."""
    return utilization_sweep(panel_sweep_config(
        "fig13", "uniform", quick=quick, workers=workers,
        cache_dir=cache_dir),
        executor=executor, progress=progress)


def sweep_half(quick: bool, workers=1, executor=None, cache_dir=None,
               progress=False) -> SweepResult:
    """The comparison sweep at constant c = 0.5, same task sets
    (catalog panel ``fig13/half``)."""
    return utilization_sweep(panel_sweep_config(
        "fig13", "half", quick=quick, workers=workers,
        cache_dir=cache_dir),
        executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False) -> ExperimentResult:
    """Reproduce Fig. 13 plus its comparison against c = 0.5."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="Normalized energy with uniform demand distribution",
        description=__doc__ or "",
        quick=quick,
    )
    uniform = sweep_uniform(quick, workers, executor, cache_dir,
                            progress)
    half = sweep_half(quick, workers, executor, cache_dir, progress)
    uniform.normalized.title = "Fig. 13: uniform demand (normalized energy)"
    half.normalized.title = "comparison: constant c = 0.5 (normalized energy)"
    result.tables.append(uniform.normalized)
    result.tables.append(half.normalized)

    for label in ("ccEDF", "laEDF"):
        uniform_ys = uniform.normalized.get(label).ys
        half_ys = half.normalized.get(label).ys
        gap = max(abs(a - b) for a, b in zip(uniform_ys, half_ys))
        result.check(
            f"{label}: uniform demand ~= constant 0.5 demand "
            f"(max gap {gap:.3f})", gap < 0.12)
    for label in ("staticEDF", "staticRM"):
        uniform_ys = uniform.normalized.get(label).ys
        half_ys = half.normalized.get(label).ys
        gap = max(abs(a - b) for a, b in zip(uniform_ys, half_ys))
        result.check(
            f"{label}: static curves depend only on the worst case "
            f"(max gap {gap:.4f}, tail effects only)", gap < 0.01)
    return result
