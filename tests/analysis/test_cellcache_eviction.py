"""Property tests for the cell cache's bounded LRU eviction.

The sweeper's contract (see ``CellCache.sweep``):

* **Budget respected** — after a size-bounded sweep the surviving bytes
  fit in ``max_bytes``.
* **Minimal eviction** — it never evicts below the high-water mark
  incorrectly: sparing the youngest evicted entry would have left the
  cache over budget.
* **LRU order** — evictions take the oldest-mtime entries; every
  survivor is at least as recent as every evicted entry, and reads
  touch mtimes so recently-used entries are promoted out of harm's way.
* **Reader atomicity** — eviction is whole-file unlink of atomically
  written entries, so a concurrent reader sees a complete outcome or a
  plain miss, never a torn one.
"""

import os
import threading

from hypothesis import given, settings, strategies as st

from repro.analysis.cellcache import CellCache, cell_key

NOW = 1_000_000_000.0

OUTCOME = {"EDF": 1.5, "laEDF": 0.75, "_rm_fallbacks": 0}

entry_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=256),      # size, bytes
              st.floats(min_value=0.0, max_value=5_000.0)),  # age, seconds
    min_size=1, max_size=12)


def _populate(cache, entries):
    """Write raw entries of given (size, age); returns age-ordered
    (mtime, size, path) tuples, oldest first (the sweeper's order)."""
    placed = []
    for index, (size, age) in enumerate(entries):
        key = cell_key({"entry": index})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * size)
        mtime = NOW - age
        os.utime(path, (mtime, mtime))
        placed.append((mtime, size, path))
    placed.sort(key=lambda item: (item[0], str(item[2])))
    return placed


class TestSizeBound:
    @settings(max_examples=60, deadline=None)
    @given(entries=entry_lists, budget=st.integers(0, 1500))
    def test_budget_minimality_and_lru_order(self, tmp_path_factory,
                                             entries, budget):
        cache = CellCache(str(tmp_path_factory.mktemp("cache")))
        placed = _populate(cache, entries)
        stats = cache.sweep(max_bytes=budget, now=NOW)

        survivors = [item for item in placed if item[2].exists()]
        evicted = [item for item in placed if not item[2].exists()]

        # Budget respected, and the accounting agrees with the disk.
        remaining = sum(size for _, size, _ in survivors)
        assert remaining <= budget
        assert stats.remaining_bytes == remaining
        assert stats.remaining_entries == len(survivors)
        assert stats.evicted == len(evicted)
        assert stats.expired == 0
        assert stats.reclaimed_bytes == sum(s for _, s, _ in evicted)

        # LRU order: evictions are exactly the oldest-first prefix.
        assert evicted == placed[:len(evicted)]

        # Minimality: sparing the youngest evicted entry would have
        # left the cache over budget.
        if evicted:
            assert remaining + evicted[-1][1] > budget

    @settings(max_examples=30, deadline=None)
    @given(entries=entry_lists)
    def test_generous_budget_evicts_nothing(self, tmp_path_factory,
                                            entries):
        cache = CellCache(str(tmp_path_factory.mktemp("cache")))
        placed = _populate(cache, entries)
        total = sum(size for _, size, _ in placed)
        stats = cache.sweep(max_bytes=total, now=NOW)
        assert stats.removed == 0
        assert all(path.exists() for _, _, path in placed)


class TestAgeBound:
    @settings(max_examples=60, deadline=None)
    @given(entries=entry_lists,
           max_age=st.floats(min_value=0.0, max_value=6_000.0))
    def test_expiry_is_exactly_the_age_threshold(self, tmp_path_factory,
                                                 entries, max_age):
        cache = CellCache(str(tmp_path_factory.mktemp("cache")))
        placed = _populate(cache, entries)
        stats = cache.sweep(max_age=max_age, now=NOW)
        for mtime, _, path in placed:
            if NOW - mtime > max_age:
                assert not path.exists()
            else:
                assert path.exists()
        assert stats.expired == sum(
            1 for mtime, _, _ in placed if NOW - mtime > max_age)
        assert stats.evicted == 0  # no size bound given


class TestRecencyPromotion:
    def test_read_touch_saves_an_entry_from_eviction(self, tmp_path):
        """mtime-touch on get is what makes mtime order LRU order: the
        oldest-written entry survives a tight sweep if it was just
        read, at the expense of a never-read younger entry."""
        cache = CellCache(str(tmp_path))
        old_key = cell_key({"cell": "old-but-hot"})
        young_key = cell_key({"cell": "young-but-cold"})
        cache.put(old_key, OUTCOME)
        cache.put(young_key, OUTCOME)
        size = cache.path_for(old_key).stat().st_size
        old_path, young_path = cache.path_for(old_key), \
            cache.path_for(young_key)
        os.utime(old_path, (NOW - 1000, NOW - 1000))
        os.utime(young_path, (NOW - 100, NOW - 100))

        assert cache.get(old_key) == OUTCOME  # touches: now newest
        stats = cache.sweep(max_bytes=size)    # room for exactly one
        assert stats.evicted == 1
        assert old_path.exists()
        assert not young_path.exists()

    def test_touch_bumps_every_entry_and_stops_at_a_missing_one(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = CellCache("cells")  # a relative root, as the CLI may pass
        keys = [cell_key({"cell": n}) for n in range(3)]
        for key in keys:
            cache.put(key, OUTCOME)
            os.utime(cache.path_for(key), (NOW - 1000, NOW - 1000))
        assert cache.touch(keys)
        assert all(cache.path_for(key).stat().st_mtime > NOW
                   for key in keys)
        cache.path_for(keys[1]).unlink()
        os.utime(cache.path_for(keys[2]), (NOW - 1000, NOW - 1000))
        assert not cache.touch(keys)
        # The pass stopped at the missing entry: the one after it keeps
        # its old mtime.
        assert cache.path_for(keys[2]).stat().st_mtime == NOW - 1000

    def test_put_triggers_opportunistic_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CellCache, "SWEEP_EVERY_PUTS", 4)
        cache = CellCache(str(tmp_path), max_bytes=0)
        for n in range(4):
            cache.put(cell_key({"cell": n}), OUTCOME)
        # The 4th put swept everything down to the (zero) budget.
        assert len(cache) == 0

    def test_put_can_leave_the_due_sweep_to_its_caller(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(CellCache, "SWEEP_EVERY_PUTS", 2)
        cache = CellCache(str(tmp_path), max_bytes=0)
        cache.put(cell_key({"cell": 0}), OUTCOME, sweep=False)
        assert not cache.sweep_due()
        cache.put(cell_key({"cell": 1}), OUTCOME, sweep=False)
        assert cache.sweep_due() and len(cache) == 2
        cache.maybe_sweep()
        assert not cache.sweep_due() and len(cache) == 0

    def test_unbounded_cache_never_auto_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CellCache, "SWEEP_EVERY_PUTS", 1)
        cache = CellCache(str(tmp_path))
        for n in range(3):
            cache.put(cell_key({"cell": n}), OUTCOME)
        assert len(cache) == 3
        assert not cache.sweep_due()
        assert cache.maybe_sweep() is None


class TestConcurrentReaders:
    def test_reader_sees_full_outcome_or_clean_miss(self, tmp_path):
        """Hammer get() while the entry is evicted and re-put in a loop:
        whole-file unlink of atomically written entries means a reader
        can never observe a half-evicted (torn) payload."""
        cache = CellCache(str(tmp_path))
        key = cell_key({"cell": "contended"})
        cache.put(key, OUTCOME)
        stop = threading.Event()
        failures = []

        def reader():
            reader_cache = CellCache(str(tmp_path))
            while not stop.is_set():
                outcome = reader_cache.get(key)
                if outcome is not None and outcome != OUTCOME:
                    failures.append(outcome)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                cache.sweep(max_bytes=0)  # evict everything
                cache.put(key, OUTCOME)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures
        # Readers race misses, but a miss must never be *counted* (the
        # entry was valid or absent, never corrupt).
        assert cache.swallowed_errors == 0