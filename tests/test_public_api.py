"""Public-API hygiene: exports resolve, and everything public is
documented."""

import inspect
import re
import sys
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def pyproject_version() -> str:
    """``[project] version`` from pyproject.toml."""
    text = PYPROJECT.read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib.loads(text)["project"]["version"]
    section = None
    for line in text.splitlines():
        if re.match(r"\[[^\]]+\]\s*$", line):
            section = line.strip()
        match = re.match(r'version\s*=\s*"([^"]+)"', line)
        if section == "[project]" and match:
            return match.group(1)
    raise AssertionError("no [project] version in pyproject.toml")


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_private_exports(self):
        assert not [n for n in repro.__all__ if n.startswith("_")
                    and n != "__version__"]

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_version_matches_pyproject(self):
        assert pyproject_version() == repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("name", sorted(
        n for n in repro.__all__ if n != "__version__"))
    def test_every_export_documented(self, name):
        obj = getattr(repro, name)
        if isinstance(obj, (tuple, dict, str)):
            return  # data constants (e.g. PAPER_POLICIES)
        assert inspect.getdoc(obj), f"{name} has no docstring"

    def test_all_subpackages_documented(self):
        import importlib
        for module_name in ("repro.model", "repro.hw", "repro.sim",
                            "repro.core", "repro.kernel", "repro.measure",
                            "repro.analysis", "repro.aperiodic",
                            "repro.mp", "repro.experiments",
                            "repro.workloads"):
            module = importlib.import_module(module_name)
            assert inspect.getdoc(module), module_name

    def test_policy_classes_cite_the_paper(self):
        """Policy docstrings must anchor to the paper's sections."""
        from repro.core.cycle_conserving import CycleConservingEDF
        from repro.core.cycle_conserving_rm import CycleConservingRM
        from repro.core.look_ahead import LookAheadEDF
        from repro.core.static_scaling import StaticEDF
        import sys
        for cls in (StaticEDF, CycleConservingEDF, CycleConservingRM,
                    LookAheadEDF):
            module = sys.modules[cls.__module__]
            assert "Sec." in (module.__doc__ or ""), cls.__name__
