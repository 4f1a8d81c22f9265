"""Content-addressed on-disk cache for sweep cell results.

A sweep *cell* is one (task set, all policies) simulation unit, fully
determined by a :class:`~repro.analysis.sweep.CellSpec` plus the sweep's
shared :class:`~repro.analysis.sweep.SweepContext` (machine, policy list,
duration, energy-model parameters).  Because cells are regenerated from
seeds, a cell's *outcome* is a pure function of that description — so it
can be cached under a stable content hash and reused across interrupted
``--full`` runs, repeated figures that share cells (fig16/fig17 run the
identical platform sweep), and future invocations of ``run-all``.

Key derivation
--------------
``cell_key`` hashes the canonical JSON of the full cell description plus
:data:`CACHE_SCHEMA`.  Anything that can change a cell's outcome **must**
be part of the description; anything that merely changes *how* the cell is
executed (worker count, executor, submission order) must not be.

Invalidation rules
------------------
* Changing any sweep parameter (seeds, utilization, task count, demand
  spec, machine table, policy list, duration, idle level, energy scale)
  changes the key — old entries are simply never looked up again.
* Changing *simulator semantics* (engine, policies, energy accounting)
  requires bumping :data:`CACHE_SCHEMA`; the schema tag is hashed into
  every key, so a bump orphans all previous entries at once.
* ``make sweep-cache-clean`` (or :meth:`CellCache.clear`) removes orphaned
  entries wholesale.

The cache directory defaults to ``~/.cache/rtdvs-repro/cells`` and can be
redirected with the ``RTDVS_CELL_CACHE`` environment variable or the
``--cache-dir`` CLI option.  Since schema 3, entries are ``.bin`` files in
the columnar wire format of :mod:`repro.analysis.transport` (raw float64
buffers round-trip bit-exactly by construction) — the same codec the
parallel executor ships worker results with.  Entries are written
atomically via a temp file and ``os.replace`` so concurrent sweeps never
observe torn entries.  Legacy schema-2 ``.json`` entries self-evict: a
``get`` that finds one removes it and reports a miss, so stale files drain
away as sweeps re-run instead of lingering forever.

Bounded growth
--------------
A one-shot CLI sweep can afford an unbounded cache; a long-lived serving
process (``rtdvs serve``) cannot.  :meth:`CellCache.sweep` implements
size- and age-bounded LRU eviction: every ``get`` hit (and every
:meth:`CellCache.touch`) bumps the entry's mtime, so mtime order *is*
recency order, and the sweeper first drops
entries older than ``max_age`` seconds, then — oldest first — exactly as
many more as needed to bring the total under ``max_bytes``.  Eviction is
whole-file ``unlink``: a concurrent reader either wins the race (a
complete, valid entry) or loses it (a plain miss) — it can never observe
a half-evicted entry.  Limits passed to the constructor arm
:meth:`CellCache.maybe_sweep`, which ``put`` calls opportunistically, and
which the service tier runs on a timer; ``rtdvs cache clean --max-bytes
--max-age`` exposes the same sweeper to operators.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.transport import decode_cell, encode_cell
from repro.errors import ReproError

#: Bump whenever simulator/policy/energy semantics change in a way that
#: alters cell outcomes without changing the sweep parameters themselves.
#: 2: outcomes gained a (since removed) fast-path accounting block and
#: the period-band option entered the context description.
#: 3: entries moved from JSON to the columnar ``transport`` codec
#: (``.bin``); old ``.json`` entries are evicted on sight.
CACHE_SCHEMA = 3

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "RTDVS_CELL_CACHE"


def default_cache_dir() -> str:
    """The cache root: ``$RTDVS_CELL_CACHE`` or ``~/.cache/rtdvs-repro/cells``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "rtdvs-repro", "cells")


def cell_key(description: Dict[str, object]) -> str:
    """Stable content hash of a cell description.

    The description must be JSON-serializable; key order does not matter
    (the JSON is canonicalized with sorted keys).  :data:`CACHE_SCHEMA` is
    mixed in so semantic revisions orphan old entries.
    """
    payload = dict(description)
    payload["_cache_schema"] = CACHE_SCHEMA
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_outcome(outcome: Dict[str, object]) -> Dict[str, object]:
    """Convert a cell outcome to a JSON-safe dict (legacy schema <= 2
    entry format; current entries use :mod:`repro.analysis.transport`).

    Outcomes map policy labels to float energies, plus ``_rm_fallbacks``
    (int) and optionally ``_residency`` (policy -> {float frequency ->
    fraction}).  JSON object keys must be strings, so residency tables are
    flattened into ``[frequency, fraction]`` pairs.
    """
    encoded: Dict[str, object] = {
        "energies": {label: value for label, value in outcome.items()
                     if not label.startswith("_")},
        "rm_fallbacks": outcome.get("_rm_fallbacks", 0),
    }
    residency = outcome.get("_residency")
    if residency:
        encoded["residency"] = {
            policy: sorted([f, frac] for f, frac in table.items())
            for policy, table in residency.items()}
    return encoded


def decode_outcome(encoded: Dict[str, object]) -> Dict[str, object]:
    """Inverse of :func:`encode_outcome`."""
    outcome: Dict[str, object] = dict(encoded["energies"])
    outcome["_rm_fallbacks"] = int(encoded["rm_fallbacks"])
    residency = encoded.get("residency")
    if residency:
        outcome["_residency"] = {
            policy: {float(f): float(frac) for f, frac in pairs}
            for policy, pairs in residency.items()}
    return outcome


@dataclass
class EvictionStats:
    """What one :meth:`CellCache.sweep` pass did."""

    #: Entries examined (current ``.bin`` plus legacy ``.json``).
    scanned: int = 0
    #: Entries removed because they were older than ``max_age``.
    expired: int = 0
    #: Entries removed (oldest first) to satisfy ``max_bytes``.
    evicted: int = 0
    #: Bytes reclaimed by both passes together.
    reclaimed_bytes: int = 0
    #: Entries left after the sweep.
    remaining_entries: int = 0
    #: Bytes left after the sweep.
    remaining_bytes: int = 0

    @property
    def removed(self) -> int:
        return self.expired + self.evicted

    def to_dict(self) -> Dict[str, int]:
        return {"scanned": self.scanned, "expired": self.expired,
                "evicted": self.evicted,
                "reclaimed_bytes": self.reclaimed_bytes,
                "remaining_entries": self.remaining_entries,
                "remaining_bytes": self.remaining_bytes}


class CellCache:
    """A directory of content-addressed cell outcomes.

    Entries are sharded two hex characters deep (``ab/abcdef....bin``) so
    paper-scale sweeps (thousands of cells) do not pile every entry into
    one directory.  Unreadable or schema-mismatched entries — including
    pre-schema-3 ``.json`` files — are treated as misses and removed.

    ``max_bytes`` / ``max_age`` (seconds) arm the LRU eviction sweeper
    (see the module docstring); ``None`` leaves growth unbounded, the
    historical CLI behavior.
    """

    #: Entry globs in probe order: current binary format first, then the
    #: legacy JSON format kept only so old entries can self-evict.
    _ENTRY_GLOBS = ("??/*.bin", "??/*.json")

    #: Errors a cache probe treats as a *silent* miss: our own
    #: schema-mismatch ``ValueError`` (expected after a schema bump) and
    #: I/O failures reading the entry.  Corrupt payloads (the codec wraps
    #: json/codec/struct failures in :class:`~repro.errors.ReproError`)
    #: are also misses, but they are counted in :attr:`swallowed_errors`
    #: — a torn or bit-rotted entry should be visible to operators even
    #: though it self-evicts.  Anything else is a bug, never a miss.
    _EXPECTED_ENTRY_ERRORS = (ValueError, OSError)

    #: Sidecar file (under the cache root) recording swallowed
    #: unexpected errors, one line each, so ``repro cache info`` can
    #: surface problems from past runs and other processes.
    SWALLOWED_LOG = "swallowed.log"

    #: ``put`` calls between opportunistic :meth:`maybe_sweep` passes
    #: when eviction limits are configured.
    SWEEP_EVERY_PUTS = 64

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None,
                 max_age: Optional[float] = None):
        self.root = Path(root)
        #: Swallowed errors recorded by this instance (each one is also
        #: appended to :attr:`SWALLOWED_LOG`): unexpected exceptions on
        #: any path, plus corrupt ``.bin`` payloads — a torn or
        #: bit-rotted entry self-evicts (so it counts exactly once) but
        #: an operator should still hear about it.  Plain misses —
        #: absent entries, legacy/stale schema drains — never count.
        self.swallowed_errors = 0
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        self.max_bytes = max_bytes
        self.max_age = max_age
        self._puts_since_sweep = 0

    def _swallow(self, where: str, exc: BaseException) -> None:
        """Count (and best-effort log) one unexpected, swallowed error."""
        self.swallowed_errors += 1
        line = f"{where}: {type(exc).__name__}: {exc}\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.root / self.SWALLOWED_LOG, "a",
                      encoding="utf-8") as handle:
                handle.write(line)
        except OSError:
            pass  # logging the swallow must never break the sweep

    def swallowed_log_lines(self) -> list:
        """Recorded swallow lines from this and previous runs."""
        try:
            with open(self.root / self.SWALLOWED_LOG,
                      encoding="utf-8") as handle:
                return handle.read().splitlines()
        except OSError:
            return []

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def _legacy_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached outcome for ``key``, or ``None`` on a miss.

        Probes the ``.bin`` entry, then the legacy ``.json`` slot; a
        legacy (or torn, or wrong-schema) file is unlinked on sight so
        stale entries drain away instead of being re-parsed on every
        sweep forever.  A hit touches the entry's mtime, so
        :meth:`sweep` sees mtime order as true LRU order.

        A :class:`PermissionError` propagates: an unreadable shard means
        the cache directory is misconfigured, and reporting every entry
        as a miss would silently resimulate the whole sweep.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            outcome, meta = decode_cell(data, with_meta=True)
            if meta.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"schema {meta.get('schema')!r}")
            self._touch(path)
            self._evict(self._legacy_path_for(key))
            return outcome
        except FileNotFoundError:
            pass
        except PermissionError:
            raise
        except ReproError as exc:
            # Corrupt payload (torn write, bit rot): a miss, but counted
            # — the entry self-evicts, so it counts exactly once.
            self._swallow(f"corrupt {key[:12]}", exc)
            self._evict(path)
            return None
        except self._EXPECTED_ENTRY_ERRORS:
            # Stale-schema entry or unreadable file: drop and resimulate.
            self._evict(path)
            return None
        except Exception as exc:
            # A decode bug is not a miss; count it so `repro cache info`
            # surfaces the problem instead of the sweep resimulating
            # silently forever.
            self._swallow(f"get {key[:12]}", exc)
            self._evict(path)
            return None
        # No binary entry; a JSON file here is by definition pre-schema-3.
        self._evict(self._legacy_path_for(key))
        return None

    def touch(self, keys: Iterable[str]) -> bool:
        """Bump every entry's mtime; ``False`` at the first entry that
        cannot be touched (missing, or on a read-only mount).

        A presence check that reads no bytes: it keeps :meth:`sweep`'s
        LRU order honest for a caller that already holds the outcomes
        (the service's encoded result tables), without re-validating the
        entries the way :meth:`get` does.
        """
        for key in keys:
            try:
                os.utime(self.path_for(key))
            except OSError:
                return False
        return True

    @staticmethod
    def _touch(path: Path) -> None:
        """Best-effort mtime bump (LRU recency marker); losing the race
        with an eviction or running on a read-only mount is harmless."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass  # racing writer already replaced/removed it
        except OSError as exc:
            # Undeletable entry (permissions, read-only mount): the cache
            # still works, but a stale file is now pinned — record it.
            self._swallow(f"evict {path.name}", exc)

    def put(self, key: str, outcome: Dict[str, object]) -> None:
        """Store ``outcome`` under ``key`` (atomic; last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = encode_cell(outcome,
                              meta={"schema": CACHE_SCHEMA, "key": key})
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            except OSError as exc:
                self._swallow(f"put-cleanup {path.name}", exc)
            raise
        if self.max_bytes is not None or self.max_age is not None:
            self._puts_since_sweep += 1
            if self._puts_since_sweep >= self.SWEEP_EVERY_PUTS:
                self.maybe_sweep()

    def _entries(self):
        for pattern in self._ENTRY_GLOBS:
            yield from self.root.glob(pattern)

    # -- bounded eviction ---------------------------------------------------
    def _stat_entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every current entry, oldest first.

        Entries racing away mid-scan (concurrent eviction or ``clear``)
        are simply skipped.
        """
        stats: List[Tuple[float, int, Path]] = []
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue  # raced away; nothing to account
            stats.append((st.st_mtime, st.st_size, path))
        stats.sort(key=lambda item: (item[0], str(item[2])))
        return stats

    def sweep(self, max_bytes: Optional[int] = None,
              max_age: Optional[float] = None,
              now: Optional[float] = None) -> EvictionStats:
        """Size- and age-bounded LRU eviction pass.

        Two passes over a single stat snapshot: first every entry whose
        age exceeds ``max_age`` seconds is removed, then — strictly
        oldest-mtime first — exactly as many more as needed to bring the
        surviving total to ``max_bytes`` or less.  The sweep never
        removes an entry it does not have to: once the running total is
        within budget, every younger entry survives.

        ``max_bytes``/``max_age`` default to the instance limits;
        ``now`` pins the age reference for tests.  Returns
        :class:`EvictionStats`.
        """
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_age = self.max_age if max_age is None else max_age
        now = time.time() if now is None else now
        stats = EvictionStats()
        entries = self._stat_entries()
        stats.scanned = len(entries)
        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if max_age is not None and now - mtime > max_age:
                if self._evict_counted(path):
                    stats.expired += 1
                    stats.reclaimed_bytes += size
                continue
            survivors.append((mtime, size, path))
        total = sum(size for _, size, _ in survivors)
        if max_bytes is not None:
            for mtime, size, path in survivors:
                if total <= max_bytes:
                    break
                if self._evict_counted(path):
                    stats.evicted += 1
                    stats.reclaimed_bytes += size
                # Either way the entry no longer counts against the
                # budget: a failed unlink means a racing sweep/clear
                # removed it first (FileNotFoundError is success-like).
                total -= size
        stats.remaining_entries = stats.scanned - stats.expired \
            - stats.evicted
        stats.remaining_bytes = total
        return stats

    def _evict_counted(self, path: Path) -> bool:
        """Unlink one entry for the sweeper; True when this call removed
        it (a concurrent remover winning the race reports False)."""
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            self._swallow(f"sweep {path.name}", exc)
            return False

    def maybe_sweep(self) -> Optional[EvictionStats]:
        """Run :meth:`sweep` if this cache was built with limits."""
        if self.max_bytes is None and self.max_age is None:
            return None
        self._puts_since_sweep = 0
        return self.sweep()

    def age_summary(self, now: Optional[float] = None,
                    ) -> Optional[Tuple[int, int, float, float]]:
        """``(entries, total_bytes, newest_age_s, oldest_age_s)`` from one
        stat pass, or ``None`` for an empty cache.

        The operator view behind ``rtdvs cache info``: total bytes sizes
        ``--max-bytes``, the age spread sizes ``--max-age``.  Ages are
        against entry mtimes, i.e. last *use* (reads touch).
        """
        entries = self._stat_entries()
        if not entries:
            return None
        now = time.time() if now is None else now
        total = sum(size for _, size, _ in entries)
        oldest_age = max(0.0, now - entries[0][0])
        newest_age = max(0.0, now - entries[-1][0])
        return len(entries), total, newest_age, oldest_age

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        """Total size of all cache entries (legacy JSON included), in bytes."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Remove every entry (legacy JSON included); returns the count."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass  # concurrent clear/eviction got there first
            except OSError as exc:
                self._swallow(f"clear {path.name}", exc)
        for shard in self.root.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass  # shard not empty (undeletable entry) — expected
        try:
            (self.root / self.SWALLOWED_LOG).unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            self._swallow("clear swallowed.log", exc)
        return removed


def open_cache(cache_dir: Union[str, Path, None],
               max_bytes: Optional[int] = None,
               max_age: Optional[float] = None) -> Optional[CellCache]:
    """Open a :class:`CellCache` at ``cache_dir``; ``None`` disables caching.

    ``max_bytes``/``max_age`` arm the LRU eviction sweeper (the service
    tier passes its configured bounds; the CLI leaves growth unbounded).
    """
    if cache_dir is None:
        return None
    return CellCache(cache_dir, max_bytes=max_bytes, max_age=max_age)
