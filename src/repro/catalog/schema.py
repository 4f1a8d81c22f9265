"""Versioned, validated scenario schema for the experiment catalog.

A :class:`Scenario` is the declarative description of one reproduction
experiment: which paper figure/table it regenerates, the sweep panels it
runs (machine, workload generator parameters, policies, sweep axes), and
the *invariants* its results must satisfy — each with an explicit
tolerance — that the audit engine (:mod:`repro.catalog.audit`)
independently re-derives from traces.

Design rules
------------
* **Canonical JSON.**  ``to_json`` always emits sorted keys with compact
  separators, so a scenario's :meth:`~Scenario.fingerprint` is stable
  under key reordering and whitespace — the same canonicalization the
  cell cache uses (:func:`repro.analysis.cellcache.cell_key`).
* **Strict parsing.**  ``from_dict``/``from_json`` reject unknown keys at
  every nesting level and reject any ``schema`` other than
  :data:`CATALOG_SCHEMA`; a catalog entry that silently ignored a typoed
  key (``n_taks``) would audit something other than what it declares.
* **Names over objects.**  Machines are preset names
  (:data:`repro.hw.machine.MACHINE_PRESETS`), energy calibrations are
  named (:data:`NAMED_ENERGY_SCALES`), policies are registry labels —
  everything in a scenario is data, resolvable to today's
  :class:`~repro.analysis.sweep.SweepConfig` machinery without executing
  catalog-supplied code.
* **Execution ≠ identity.**  Worker counts, cache directories, the
  block engine, and the steady fast path change how a scenario runs, not
  what it computes (they are required to be bit-identical); they are
  runtime options of :meth:`PanelSpec.sweep_config`, never scenario
  fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple, Union

from repro.analysis.sweep import DEFAULT_UTILIZATIONS, SweepConfig
from repro.core import PAPER_POLICIES, canonical_policy_name
from repro.errors import ReproError
from repro.hw.machine import MACHINE_PRESETS

#: Version tag of the scenario schema.  Bump when a field is added,
#: removed, or changes meaning; ``from_dict`` rejects every other value,
#: so stored catalogs can never be silently misread across revisions.
CATALOG_SCHEMA = 1


class CatalogError(ReproError):
    """A scenario failed schema validation or catalog resolution."""


#: Invariant name -> one-line description.  ``Invariant`` rejects names
#: outside this registry so a typo cannot silently declare a check that
#: the audit engine never runs.
KNOWN_INVARIANTS: Dict[str, str] = {
    "reference-normalized-unity":
        "the EDF reference's normalized-energy curve equals 1.0 exactly "
        "(the NoDVS/EDF normalization anchor)",
    "utilization-monotone-energy":
        "the reference policy's mean raw energy is non-decreasing in "
        "worst-case utilization",
    "zero-misses-schedulable-edf":
        "EDF cells (always schedulable at U <= 1) replay with zero "
        "deadline misses, re-derived from traces",
    "bound-not-above-policies":
        "every replayed run's energy is at least the Sec. 3.2 LP lower "
        "bound for the cycles it actually executed",
    "residency-conservation":
        "per-policy frequency-residency fractions sum to 1 on every cell",
    "engine-parity":
        "scalar engine and one block-engine pass over sampled cells "
        "produce identical outcome dicts",
    "fast-path-parity":
        "the hyperperiod short-circuit matches full simulation on "
        "sampled cells (within its verified tolerance)",
    "shape-checks":
        "the experiment driver's own shape checks all pass",
}

#: Named energy calibrations resolvable without executing catalog code.
#: ``"k6-laptop"`` is the Fig. 16 calibration: cycle energy scaled so
#: full-speed execution on the K6-2+ table draws the Table 1 CPU delta.
NAMED_ENERGY_SCALES = ("k6-laptop",)


def resolve_energy_scale(scale: Union[float, str]) -> float:
    """Resolve a panel's ``cycle_energy_scale`` field to a float."""
    if isinstance(scale, str):
        if scale == "k6-laptop":
            from repro.hw.machine import k6_2_plus
            from repro.measure.laptop import LaptopPowerModel
            return LaptopPowerModel().cycle_energy_scale_for(k6_2_plus())
        raise CatalogError(
            f"unknown named energy scale {scale!r}; "
            f"known: {NAMED_ENERGY_SCALES}")
    return float(scale)


def resolve_machine(name: str):
    """Resolve a machine preset name to a :class:`~repro.hw.machine.Machine`."""
    try:
        factory = MACHINE_PRESETS[name]
    except KeyError:
        raise CatalogError(
            f"unknown machine preset {name!r}; "
            f"available: {sorted(MACHINE_PRESETS)}") from None
    return factory()


@dataclass(frozen=True)
class Invariant:
    """One declared result property, with its audit tolerance.

    ``tolerance`` is interpreted by the corresponding audit check
    (relative for energy comparisons, absolute for fractions); ``0.0``
    means exact.
    """

    name: str
    tolerance: float = 0.0

    def __post_init__(self):
        if self.name not in KNOWN_INVARIANTS:
            raise CatalogError(
                f"unknown invariant {self.name!r}; "
                f"known: {sorted(KNOWN_INVARIANTS)}")
        if self.tolerance < 0:
            raise CatalogError(
                f"invariant {self.name!r}: tolerance must be >= 0, "
                f"got {self.tolerance}")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "tolerance": self.tolerance}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Invariant":
        payload = _take(dict(data), "invariant", required=("name",),
                        optional=("tolerance",))
        return cls(**payload)


@dataclass(frozen=True)
class PanelSpec:
    """One sweep of a scenario, at declaration level.

    Carries everything that determines a sweep's *results* (the
    :class:`~repro.analysis.sweep.SweepConfig` identity fields), with the
    quick/full scale split made explicit so ``--full`` is a declared
    property of the catalog entry rather than driver-local arithmetic.
    """

    label: str
    n_tasks: int = 8
    seed: int = 1
    demand: Union[str, float] = "worst"
    idle_level: float = 0.0
    machine: str = "machine0"
    #: ``None`` = the paper's default 0.1 ... 1.0 grid.
    utilizations: Optional[Tuple[float, ...]] = None
    #: ``None`` = the paper's six policies (:data:`PAPER_POLICIES`).
    policies: Optional[Tuple[str, ...]] = None
    residency_policies: Tuple[str, ...] = ()
    #: A float, or a named calibration from :data:`NAMED_ENERGY_SCALES`.
    cycle_energy_scale: Union[float, str] = 1.0
    period_bands: Optional[Tuple[Tuple[float, float], ...]] = None
    n_sets_quick: int = 8
    n_sets_full: int = 100
    duration_quick: float = 1000.0
    duration_full: float = 2000.0

    def __post_init__(self):
        if not self.label:
            raise CatalogError("panel label must be non-empty")
        if self.machine not in MACHINE_PRESETS:
            raise CatalogError(
                f"panel {self.label!r}: unknown machine {self.machine!r}; "
                f"available: {sorted(MACHINE_PRESETS)}")
        for policy in (self.policies or ()) + self.residency_policies:
            try:
                canonical_policy_name(policy)
            except ValueError as exc:
                raise CatalogError(
                    f"panel {self.label!r}: {exc}") from None
        if isinstance(self.cycle_energy_scale, str) \
                and self.cycle_energy_scale not in NAMED_ENERGY_SCALES:
            raise CatalogError(
                f"panel {self.label!r}: unknown energy scale "
                f"{self.cycle_energy_scale!r}")
        if not isinstance(self.demand, str) \
                and not (0.0 < float(self.demand) <= 1.0):
            raise CatalogError(
                f"panel {self.label!r}: fractional demand must be in "
                f"(0, 1], got {self.demand}")

    def sweep_config(self, quick: bool = True, *, workers=1,
                     cache_dir: Optional[str] = None,
                     steady_fast_path: bool = False,
                     engine: str = "scalar") -> SweepConfig:
        """Resolve this panel to a runnable :class:`SweepConfig`.

        Keyword arguments are execution options only; every
        result-determining field comes from the panel declaration.
        """
        return SweepConfig(
            policies=(tuple(self.policies) if self.policies is not None
                      else PAPER_POLICIES),
            utilizations=(tuple(self.utilizations)
                          if self.utilizations is not None
                          else DEFAULT_UTILIZATIONS),
            n_tasks=self.n_tasks,
            n_sets=self.n_sets_quick if quick else self.n_sets_full,
            machine=resolve_machine(self.machine),
            demand=self.demand,
            idle_level=self.idle_level,
            duration=self.duration_quick if quick else self.duration_full,
            seed=self.seed,
            workers=workers,
            cycle_energy_scale=resolve_energy_scale(
                self.cycle_energy_scale),
            residency_policies=tuple(self.residency_policies),
            cache_dir=cache_dir,
            steady_fast_path=steady_fast_path,
            period_bands=self.period_bands,
            engine=engine)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "utilizations":
                value = list(value)
            elif f.name in ("policies", "residency_policies"):
                value = list(value)
            elif f.name == "period_bands":
                value = [list(band) for band in value]
            out[f.name] = value
        if not self.residency_policies:
            out.pop("residency_policies", None)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PanelSpec":
        required = ("label",)
        optional = tuple(f.name for f in fields(cls) if f.name != "label")
        payload = _take(dict(data), "panel", required=required,
                        optional=optional)
        if "utilizations" in payload:
            payload["utilizations"] = tuple(
                float(u) for u in payload["utilizations"])
        for key in ("policies", "residency_policies"):
            if key in payload:
                payload[key] = tuple(payload[key])
        if "period_bands" in payload:
            payload["period_bands"] = tuple(
                (float(low), float(high))
                for low, high in payload["period_bands"])
        return cls(**payload)


@dataclass(frozen=True)
class Scenario:
    """One named catalog entry: a paper figure/table plus its invariants.

    ``experiment_id`` names the driver in
    :data:`repro.experiments.runall.ALL_EXPERIMENTS` that renders the
    entry's report; ``panels`` declare the sweeps that driver runs (empty
    for worked-example and extension entries whose drivers are not
    sweep-shaped — those are audited through their shape checks).
    """

    name: str
    title: str
    figure: str
    description: str
    experiment_id: str
    panels: Tuple[PanelSpec, ...] = ()
    invariants: Tuple[Invariant, ...] = ()
    schema: int = field(default=CATALOG_SCHEMA)

    def __post_init__(self):
        if not self.name:
            raise CatalogError("scenario name must be non-empty")
        if self.schema != CATALOG_SCHEMA:
            raise CatalogError(
                f"scenario {self.name!r} declares schema {self.schema!r}; "
                f"this library reads schema {CATALOG_SCHEMA}")
        labels = [panel.label for panel in self.panels]
        if len(set(labels)) != len(labels):
            raise CatalogError(
                f"scenario {self.name!r} has duplicate panel labels")

    def panel(self, label: str) -> PanelSpec:
        for panel in self.panels:
            if panel.label == label:
                return panel
        raise CatalogError(
            f"scenario {self.name!r} has no panel {label!r}; "
            f"available: {[p.label for p in self.panels]}")

    def invariant(self, name: str) -> Optional[Invariant]:
        for invariant in self.invariants:
            if invariant.name == name:
                return invariant
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "name": self.name,
            "title": self.title,
            "figure": self.figure,
            "description": self.description,
            "experiment_id": self.experiment_id,
            "panels": [panel.to_dict() for panel in self.panels],
            "invariants": [inv.to_dict() for inv in self.invariants],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, no NaN; compact unless ``indent``."""
        separators = (",", ": ") if indent else (",", ":")
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=separators, allow_nan=False)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        payload = _take(
            dict(data), "scenario",
            required=("schema", "name", "title", "figure", "description",
                      "experiment_id"),
            optional=("panels", "invariants"))
        panels = tuple(PanelSpec.from_dict(p)
                       for p in payload.pop("panels", []))
        invariants = tuple(Invariant.from_dict(i)
                           for i in payload.pop("invariants", []))
        return cls(panels=panels, invariants=invariants, **payload)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"scenario is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise CatalogError(
                f"scenario JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON.

        Stable under key order and formatting; changes whenever any
        result-determining field changes — the catalog analogue of a
        cell's cache key.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def _take(data: Dict[str, object], what: str,
          required: Tuple[str, ...] = (),
          optional: Tuple[str, ...] = ()) -> Dict[str, object]:
    """Extract exactly the declared keys from ``data``; reject the rest."""
    payload: Dict[str, object] = {}
    for key in required:
        if key not in data:
            raise CatalogError(f"{what} is missing required key {key!r}")
        payload[key] = data.pop(key)
    for key in optional:
        if key in data:
            payload[key] = data.pop(key)
    if data:
        raise CatalogError(
            f"{what} has unknown key(s) {sorted(data)}; "
            "the scenario schema rejects unrecognized fields")
    return payload
