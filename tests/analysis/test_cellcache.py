"""Tests for the content-addressed sweep-cell cache."""

import os

import pytest

from repro.analysis.cellcache import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA,
    CellCache,
    cell_key,
    default_cache_dir,
    open_cache,
)
from repro.analysis.sweep import CellSpec, SweepContext, cell_cache_key
from repro.analysis.transport import decode_cell, encode_cell
from repro.hw.machine import machine0

OUTCOME = {
    "EDF": 123.456789012345,
    "laEDF": 98.7,
    "_rm_fallbacks": 1,
    "_residency": {"ccEDF": {0.5: 0.25, 1.0: 0.75}},
}


class TestCellKey:
    def test_stable_across_calls(self):
        description = {"utilization": 0.5, "seed": 42}
        assert cell_key(description) == cell_key(description)

    def test_insensitive_to_dict_order(self):
        assert cell_key({"a": 1, "b": 2}) == cell_key({"b": 2, "a": 1})

    def test_sensitive_to_every_field(self):
        base = {"utilization": 0.5, "seed": 42}
        assert cell_key(base) != cell_key({**base, "utilization": 0.7})
        assert cell_key(base) != cell_key({**base, "seed": 43})
        assert cell_key(base) != cell_key({**base, "extra": None})

    def test_float_precision_preserved(self):
        # Nearby floats must hash apart — keys are built from exact
        # round-trip JSON reprs, not rounded display forms.
        assert cell_key({"u": 0.1 + 0.2}) != cell_key({"u": 0.3})


class TestDefaultKeyPinning:
    """Default-cell cache keys are pinned byte for byte, so removing an
    execution option can never orphan an existing cache."""

    def _context(self):
        return SweepContext(machine=machine0(), policies=("EDF",),
                            duration=400.0, idle_level=0.0,
                            cycle_energy_scale=1.0)

    def test_resolution_never_enters_cache_key(self):
        spec = CellSpec(utilization=0.5, set_index=0, n_tasks=3,
                        gen_seed=11, demand_seed=12, demand="worst")
        assert "steady_resolution" not in self._context().description()
        # The key this cell had while the resolution was a sweep option
        # at its default: folding the option into a constant moved no
        # cached cell.
        assert cell_cache_key(self._context(), spec) == (
            "e87653be5a613b06a7c95939a0a25efe4c493fb44e3f114c693f4f96de6b26b0")


class TestCellCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 1})
        assert cache.get(key) is None
        cache.put(key, OUTCOME)
        assert cache.get(key) == OUTCOME
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 2})
        cache.put(key, OUTCOME)
        path = cache.path_for(key)
        path.write_bytes(b"CTR1 torn mid-write")
        assert cache.get(key) is None
        assert not path.exists()

    def test_corrupt_entry_counts_exactly_once(self, tmp_path):
        """A torn/bit-rotted ``.bin`` payload self-evicts on first sight
        and lands in ``swallowed_errors`` exactly once — the next probe
        is a plain absent-entry miss, not another count."""
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": "corrupt-once"})
        cache.put(key, OUTCOME)
        cache.path_for(key).write_bytes(b"CTR1 torn mid-write")
        assert cache.get(key) is None
        assert cache.swallowed_errors == 1
        assert len(cache.swallowed_log_lines()) == 1
        # Self-evicted: re-probing must not count again.
        assert not cache.path_for(key).exists()
        assert cache.get(key) is None
        assert cache.swallowed_errors == 1

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 3})
        cache.put(key, OUTCOME)
        path = cache.path_for(key)
        outcome, meta = decode_cell(path.read_bytes(), with_meta=True)
        assert meta["schema"] == CACHE_SCHEMA
        path.write_bytes(encode_cell(outcome, meta={**meta, "schema": -1}))
        assert cache.get(key) is None
        assert not path.exists()

    def test_permission_denied_shard_raises(self, tmp_path, monkeypatch):
        """Regression: an unreadable shard means a misconfigured cache
        directory, not a miss — silently resimulating the whole sweep
        was the old (wrong) behavior.  The denial is injected because
        the suite may run as root, where chmod 000 does not deny."""
        from pathlib import Path

        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 6})
        cache.put(key, OUTCOME)
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: (_ for _ in ()).throw(
                                PermissionError(f"denied: {self}")))
        with pytest.raises(PermissionError):
            cache.get(key)
        assert cache.swallowed_errors == 0  # raised, not swallowed

    def test_expected_misses_are_not_counted(self, tmp_path):
        """Absent entries and stale-schema drains are business-as-usual
        misses; only *corrupt* payloads and genuine bugs reach
        ``swallowed_errors``."""
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 7})
        assert cache.get(key) is None  # absent entry
        cache.put(key, OUTCOME)
        path = cache.path_for(key)
        outcome, meta = decode_cell(path.read_bytes(), with_meta=True)
        path.write_bytes(encode_cell(outcome, meta={**meta, "schema": -1}))
        assert cache.get(key) is None  # stale-schema drain
        assert not path.exists()
        assert cache.get(key) is None  # drained: now absent
        assert cache.swallowed_errors == 0
        assert cache.swallowed_log_lines() == []

    def test_unexpected_error_is_counted_and_logged(self, tmp_path,
                                                    monkeypatch):
        """A decode *bug* still reads as a miss (the sweep must finish),
        but it is counted and recorded so ``repro cache info`` surfaces
        it instead of the cache resimulating silently forever."""
        import repro.analysis.cellcache as cellcache_module

        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": 8})
        cache.put(key, OUTCOME)
        monkeypatch.setattr(
            cellcache_module, "decode_cell",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("bug")))
        assert cache.get(key) is None
        assert cache.swallowed_errors == 1
        lines = cache.swallowed_log_lines()
        assert len(lines) == 1 and "RuntimeError: bug" in lines[0]
        # The broken entry was also evicted, so the next run resimulates
        # once instead of tripping on it every sweep.
        assert not cache.path_for(key).exists()

    def test_clear_removes_swallowed_log(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache._swallow("test", RuntimeError("x"))
        assert (tmp_path / CellCache.SWALLOWED_LOG).exists()
        cache.clear()
        assert not (tmp_path / CellCache.SWALLOWED_LOG).exists()

    def test_clear(self, tmp_path):
        cache = CellCache(str(tmp_path))
        for n in range(3):
            cache.put(cell_key({"cell": n}), OUTCOME)
        assert len(cache) == 3
        assert cache.size_bytes() > 0
        cache.clear()
        assert len(cache) == 0

    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")

    def test_open_cache_none_disables_caching(self, tmp_path):
        assert open_cache(None) is None
        assert open_cache(str(tmp_path)).root == tmp_path

    def test_default_dir_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir() == os.path.expanduser(
            "~/.cache/rtdvs-repro/cells")
