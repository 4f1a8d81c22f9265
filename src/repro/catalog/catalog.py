"""The scenario catalog: named, versioned entries for every experiment.

Entries live as one canonical-JSON file per scenario under
``src/repro/catalog/data/`` and are validated through
:class:`~repro.catalog.schema.Scenario` on load — a catalog file with an
unknown key, a bad schema version, or an unresolvable machine/policy name
fails at :func:`load_catalog` time, not mid-sweep.

The catalog is the single source of truth for experiment parameters: the
per-figure drivers in :mod:`repro.experiments` resolve their
:class:`~repro.analysis.sweep.SweepConfig` objects from it
(:func:`panel_sweep_config`), so ``rtdvs catalog run fig9`` and
``rtdvs run fig9`` are the same computation by construction, and the
conformance suite (``tests/catalog/test_conformance.py``) pins the
catalog-resolved configs to the historical driver parameters cell by
cell.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.sweep import SweepConfig
from repro.catalog.schema import CatalogError, Scenario

#: Directory of one ``<name>.json`` file per scenario.
DATA_DIR = Path(__file__).parent / "data"

_CACHE: Optional[Dict[str, Scenario]] = None


def load_catalog(refresh: bool = False) -> Dict[str, Scenario]:
    """All scenarios, keyed by name, in stable (sorted-filename) order.

    Loaded once per process; ``refresh=True`` re-reads the data
    directory (tests use it to point the loader at fixtures).
    """
    global _CACHE
    if _CACHE is not None and not refresh:
        return _CACHE
    catalog: Dict[str, Scenario] = {}
    if not DATA_DIR.is_dir():
        raise CatalogError(f"catalog data directory missing: {DATA_DIR}")
    for path in sorted(DATA_DIR.glob("*.json")):
        scenario = Scenario.from_json(path.read_text(encoding="utf-8"))
        if scenario.name != path.stem:
            raise CatalogError(
                f"catalog file {path.name} declares name "
                f"{scenario.name!r}; file name and scenario name must "
                "match")
        if scenario.name in catalog:  # pragma: no cover - fs prevents it
            raise CatalogError(f"duplicate scenario {scenario.name!r}")
        catalog[scenario.name] = scenario
    _CACHE = catalog
    return catalog


def scenario_names() -> List[str]:
    """Every catalog entry name, sorted."""
    return sorted(load_catalog())


def get_scenario(name: str) -> Scenario:
    """Look one scenario up by name."""
    catalog = load_catalog()
    try:
        return catalog[name]
    except KeyError:
        raise CatalogError(
            f"unknown scenario {name!r}; available: "
            f"{sorted(catalog)}") from None


def panel_sweep_config(scenario_name: str, panel_label: str,
                       quick: bool = True, **execution) -> SweepConfig:
    """Resolve one catalog panel to a runnable :class:`SweepConfig`.

    ``execution`` keywords (``workers``, ``cache_dir``)
    select *how* the sweep runs; the catalog entry determines everything
    that affects its results.  This is the entry point the per-figure
    drivers use.
    """
    scenario = get_scenario(scenario_name)
    return scenario.panel(panel_label).sweep_config(quick=quick,
                                                    **execution)


def run_scenario(name: str, quick: bool = True, **kwargs):
    """Run the experiment a scenario describes; returns its
    :class:`~repro.experiments.common.ExperimentResult`.

    Delegates to the scenario's registered driver — which itself draws
    its sweep parameters from this catalog — so the output is identical
    to ``rtdvs run <experiment>``.
    """
    # Imported lazily: the drivers import this module for their configs.
    from repro.experiments.runall import run_experiment

    scenario = get_scenario(name)
    return run_experiment(scenario.experiment_id, quick=quick, **kwargs)


def catalog_summary() -> str:
    """Plain-text table of the catalog (``rtdvs catalog list``)."""
    lines = []
    for name in scenario_names():
        scenario = get_scenario(name)
        panels = ", ".join(p.label for p in scenario.panels) or "-"
        invariants = len(scenario.invariants)
        lines.append(f"{name:<14} {scenario.figure:<16} "
                     f"panels: {panels}  invariants: {invariants}")
    return "\n".join(lines)


def catalog_markdown_table() -> str:
    """The EXPERIMENTS.md catalog table (name -> figure -> invariants)."""
    lines = ["| scenario | figure | panels | declared invariants |",
             "|---|---|---|---|"]
    for name in scenario_names():
        scenario = get_scenario(name)
        panels = ", ".join(p.label for p in scenario.panels) or "—"
        invariants = ", ".join(f"`{i.name}`" for i in scenario.invariants)
        lines.append(f"| `{name}` | {scenario.figure} | {panels} | "
                     f"{invariants} |")
    return "\n".join(lines)


def write_scenario(scenario: Scenario,
                   directory: Optional[Path] = None) -> Path:
    """Serialize one scenario to its canonical catalog file.

    Used by maintainers (and tests) to regenerate ``data/`` entries; the
    file content is the indented canonical JSON, so diffs stay readable
    while the fingerprint ignores the formatting.
    """
    directory = Path(directory) if directory is not None else DATA_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{scenario.name}.json"
    # Round-trip before writing: a scenario that cannot be re-read must
    # never land in the catalog.
    Scenario.from_json(scenario.to_json())
    path.write_text(scenario.to_json(indent=2) + "\n", encoding="utf-8")
    return path


# Convenience for `python -m repro.catalog.catalog` style debugging.
if __name__ == "__main__":  # pragma: no cover
    print(json.dumps({name: s.fingerprint()
                      for name, s in load_catalog().items()}, indent=2))
