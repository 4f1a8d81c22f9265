"""Fig. 12 — demands fixed at 90 %, 70 % and 50 % of the worst case.

8 tasks, machine 0, idle level 0.  Paper findings encoded as checks:

* the statically-scaled mechanisms do not move (they only look at the
  specified worst case);
* ccRM barely moves — it "does not do a very good job of adapting to tasks
  that use less than their specified worst-case computation times";
* ccEDF and laEDF improve substantially as the actual computation drops.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult

FRACTIONS: Tuple[float, ...] = (0.9, 0.7, 0.5)
N_TASKS = 8


def sweep_for(fraction: float, quick: bool, workers=1, executor=None,
              cache_dir=None, progress=False) -> SweepResult:
    """The Fig. 12 sweep for one demand fraction (catalog panel
    ``fig12/c-<fraction>``)."""
    return utilization_sweep(panel_sweep_config(
        "fig12", f"c-{fraction}", quick=quick, workers=workers,
        cache_dir=cache_dir),
        executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False) -> ExperimentResult:
    """Reproduce Fig. 12 (three panels, one per fraction)."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="Normalized energy with demand = 90/70/50 % of worst case",
        description=__doc__ or "",
        quick=quick,
    )
    sweeps: Dict[float, SweepResult] = {}
    for fraction in FRACTIONS:
        sweep = sweep_for(fraction, quick, workers, executor, cache_dir,
                          progress)
        sweeps[fraction] = sweep
        table = sweep.normalized
        table.title = f"Fig. 12 panel: c = {fraction} (normalized energy)"
        result.tables.append(table)

    def curve_mean(fraction: float, label: str) -> float:
        ys = sweeps[fraction].normalized.get(label).ys
        return sum(ys) / len(ys)

    # Static mechanisms unchanged across fractions (same seed => same sets;
    # only end-of-run tail effects perturb the normalized ratio).
    for label in ("staticEDF", "staticRM"):
        spread = max(curve_mean(f, label) for f in FRACTIONS) \
            - min(curve_mean(f, label) for f in FRACTIONS)
        result.check(
            f"{label} unaffected by the actual computation "
            f"(mean-curve spread {spread:.4f})", spread < 0.01)

    # ccRM adapts poorly; ccEDF/laEDF adapt well.
    ccrm_gain = curve_mean(0.9, "ccRM") - curve_mean(0.5, "ccRM")
    ccedf_gain = curve_mean(0.9, "ccEDF") - curve_mean(0.5, "ccEDF")
    laedf_gain = curve_mean(0.9, "laEDF") - curve_mean(0.5, "laEDF")
    result.check(
        f"ccEDF improves a lot as c drops 0.9->0.5 (gain {ccedf_gain:.3f})",
        ccedf_gain > 0.08)
    result.check(
        f"laEDF improves a lot as c drops 0.9->0.5 (gain {laedf_gain:.3f})",
        laedf_gain > 0.08)
    result.check(
        f"ccRM adapts much less than ccEDF (ccRM gain {ccrm_gain:.3f} < "
        f"ccEDF gain {ccedf_gain:.3f})", ccrm_gain < ccedf_gain)
    return result
