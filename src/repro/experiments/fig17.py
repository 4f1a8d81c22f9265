"""Fig. 17 — simulation with parameters identical to the Fig. 16 setup.

Same 5-task, c = 0.9, two-voltage K6-2+ specification, but reporting only
the processor's energy, in arbitrary units — the paper's validation that
"except for the addition of constant overheads in the actual measurements,
the results are nearly identical".

The decisive shape check here *is* that claim: the Fig. 16 system-power
curves minus the constant board overhead must coincide (up to calibration
scale) with these CPU-only curves.
"""

from __future__ import annotations

from repro.analysis.series import SweepTable
from repro.analysis.sweep import SweepResult, utilization_sweep
from repro.catalog import panel_sweep_config
from repro.experiments.common import ExperimentResult
from repro.experiments.fig16 import DEMAND, N_TASKS, POLICIES, sweep_platform
from repro.hw.machine import k6_2_plus
from repro.measure.laptop import LaptopPowerModel


def sweep_simulated(quick: bool, workers=1, executor=None, cache_dir=None,
                    progress=False) -> SweepResult:
    """The pure-simulation sweep, unit energy scale (catalog panel
    ``fig17/k6-simulated``; shares fig16's seed, so the task sets and
    demands are identical)."""
    return utilization_sweep(panel_sweep_config(
        "fig17", "k6-simulated", quick=quick, workers=workers,
        cache_dir=cache_dir),
        executor=executor, progress=progress)


def run(quick: bool = True, workers=1, executor=None, cache_dir=None,
        progress=False) -> ExperimentResult:
    """Reproduce Fig. 17 and validate it against the Fig. 16 emulation."""
    result = ExperimentResult(
        experiment_id="fig17",
        title="Simulated CPU power vs utilization (Fig. 16's parameters)",
        description=__doc__ or "",
        quick=quick,
    )
    sim = sweep_simulated(quick, workers, executor, cache_dir, progress)
    duration = sim.config.duration
    table = SweepTable(
        title="Fig. 17: simulated CPU power (arbitrary units)",
        x_label="worst-case utilization",
        y_label="power (arbitrary unit)")
    for label in POLICIES:
        table.add(sim.raw.get(label).scaled(1.0 / duration))
    result.tables.append(table)

    # The validation claim: measured == simulated + constant overhead.
    laptop = LaptopPowerModel()
    # Identical parameters to fig16's sweep — with a shared cache this
    # re-validation costs zero simulations after fig16 has run.
    measured = sweep_platform(quick, workers, laptop, executor, cache_dir,
                              progress)
    scale = laptop.cycle_energy_scale_for(k6_2_plus())
    worst_gap = 0.0
    for label in POLICIES:
        measured_watts = [y / duration for y in measured.raw.get(label).ys]
        simulated_watts = [y * scale for y in table.get(label).ys]
        for mw, sw in zip(measured_watts, simulated_watts):
            worst_gap = max(worst_gap, abs(mw - sw))
    result.check(
        "measured (minus overhead) and simulated curves are identical "
        f"(max gap {worst_gap:.3g} W)", worst_gap < 1e-6)

    la = table.get("laEDF")
    edf = table.get("EDF")
    result.check(
        "CPU-only relative savings exceed the whole-system savings "
        "(no irreducible overhead here)",
        1.0 - la.y_at(0.6) / edf.y_at(0.6) > 0.25)
    return result
