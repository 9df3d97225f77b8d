"""Content-addressed on-disk result cache.

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON file per cache
key, fanned out over 256 buckets so a directory never accumulates
millions of entries.  Entries are written atomically (temp file +
rename), so a sweep killed mid-write can never leave a truncated
entry that later reads as a hit.

The key is the SHA-256 of the task's canonical encoding (see
:meth:`repro.runtime.task.SimTask.cache_key`), which already folds in
the canonical-format version and the runtime's code salt — a cache
directory can therefore be shared between code versions: stale
entries are simply never addressed again.

**Eviction.**  A cache built with ``max_bytes`` enforces an LRU size
cap: every hit bumps the entry's mtime (strictly monotonically within
a process), and a ``put`` that pushes the directory over the cap
evicts least-recently-used entries until it fits again.  The entry
just written is never evicted by its own ``put``, so the cap is soft
by at most one record.  Evictions are counted cumulatively in
``<root>/_meta.json`` so ``repro cache stats --json`` reports them
across processes; hit/miss counters stay per-instance (a shared
directory has no single hit-rate).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ENTRY_VERSION = 1

# Root-level sidecar holding cumulative counters that must survive the
# process (eviction totals).  It lives outside the two-hex-char bucket
# directories, so entry scans never pick it up.
META_NAME = "_meta.json"


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a cache directory."""

    root: str
    entries: int
    total_bytes: int
    shards: int = 0
    evictions: int = 0

    def summary(self) -> str:
        mib = self.total_bytes / 2**20
        return f"{self.root}: {self.entries} entries, {mib:.2f} MiB"

    def to_dict(self) -> Dict:
        """Machine-readable form (``repro cache stats --json``)."""
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "shards": self.shards,
            "evictions": self.evictions,
        }


class ResultCache:
    """Read/write content-addressed simulation records.

    ``get``/``put`` also maintain per-instance hit/miss counters so a
    sweep can report its cache effectiveness.  With ``max_bytes`` set
    the cache evicts least-recently-used entries on ``put`` (see the
    module docstring).  All mutating paths are thread-safe: the serve
    scheduler shares one instance across its dispatcher threads.
    """

    def __init__(self, root: str, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            from repro.errors import ConfigurationError

            raise ConfigurationError("cache max_bytes must be positive")
        self.root = str(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        # Strictly increasing mtime source: filesystem clocks can be
        # coarser than a cache hit, and LRU ties must break the same
        # way every run.
        self._last_touch_ns = 0

    # -- addressing -------------------------------------------------------

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- read/write -------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The cached record for ``key``, or None on miss.

        Unreadable or corrupt entries (invalid UTF-8, truncated or
        wrong-shape JSON) count as misses: the runtime will recompute
        and overwrite them.  A hit marks the entry most-recently-used.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            with self._lock:
                self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("version") != ENTRY_VERSION:
            with self._lock:
                self.misses += 1
            return None
        record = entry.get("record")
        if not isinstance(record, dict):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
            self._touch(path)
        return record

    def put(self, key: str, record: Dict) -> None:
        """Persist ``record`` under ``key`` atomically.

        With ``max_bytes`` set, evicts LRU entries afterwards until
        the directory fits the cap again (never the entry just
        written).
        """
        path = self.path_for(key)
        bucket = os.path.dirname(path)
        os.makedirs(bucket, exist_ok=True)
        entry = {"version": ENTRY_VERSION, "key": key, "record": record}
        fd, tmp = tempfile.mkstemp(dir=bucket, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self._touch(path)
            if self.max_bytes is not None:
                self._evict_to_cap(protect=path)

    # -- recency / eviction ----------------------------------------------

    def _touch(self, path: str) -> None:
        """Bump ``path``'s mtime, strictly above every previous touch."""
        now = time.time_ns()
        self._last_touch_ns = max(now, self._last_touch_ns + 1)
        try:
            os.utime(path, ns=(self._last_touch_ns, self._last_touch_ns))
        except OSError:
            pass

    def _evict_to_cap(self, protect: Optional[str] = None) -> int:
        """Evict LRU entries until ``total_bytes <= max_bytes``.

        Returns how many entries were removed.  ``protect`` (a path)
        is never evicted — the record a ``put`` just stored must
        survive its own eviction pass.
        """
        aged: List[Tuple[int, str, str, int]] = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            total += stat.st_size
            aged.append((stat.st_mtime_ns, os.path.basename(path), path,
                         stat.st_size))
        removed = 0
        if self.max_bytes is None or total <= self.max_bytes:
            return removed
        aged.sort()                      # oldest first; key breaks ties
        for _mtime, _name, path, size in aged:
            if total <= self.max_bytes:
                break
            if path == protect:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            self.evictions += removed
            self._bump_meta_evictions(removed)
        return removed

    def evict_to(self, max_bytes: int) -> int:
        """One-shot LRU eviction down to ``max_bytes`` (CLI/admin)."""
        with self._lock:
            saved = self.max_bytes
            self.max_bytes = max_bytes
            try:
                return self._evict_to_cap()
            finally:
                self.max_bytes = saved

    # -- persistent counters ----------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.root, META_NAME)

    def _read_meta(self) -> Dict:
        """The persistent counters; a corrupt file reads as empty."""
        try:
            with open(self._meta_path(), encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return {}
        if not isinstance(meta, dict) or type(meta.get("evictions", 0)) is not int:
            return {}
        return meta

    def _bump_meta_evictions(self, count: int) -> None:
        meta = self._read_meta()
        meta["evictions"] = int(meta.get("evictions", 0)) + count
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(meta, handle, sort_keys=True)
            os.replace(tmp, self._meta_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def total_evictions(self) -> int:
        """Cumulative evictions over the directory's lifetime."""
        return int(self._read_meta().get("evictions", 0))

    # -- inspection / eviction -------------------------------------------

    def keys(self) -> List[str]:
        """Every key currently cached (sorted)."""
        found: List[str] = []
        for path in self._entry_paths():
            found.append(os.path.basename(path)[: -len(".json")])
        return sorted(found)

    def total_bytes(self) -> int:
        total = 0
        for path in self._entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total

    def stats(self) -> CacheStats:
        entries = 0
        total = 0
        shards = set()
        for path in self._entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
            entries += 1
            shards.add(os.path.basename(os.path.dirname(path)))
        return CacheStats(
            root=self.root, entries=entries, total_bytes=total,
            shards=len(shards), evictions=self.total_evictions(),
        )

    def stats_dict(self) -> Dict:
        """Directory snapshot plus this instance's hit/miss counters."""
        snapshot = self.stats().to_dict()
        with self._lock:
            hits, misses = self.hits, self.misses
        lookups = hits + misses
        snapshot["hits"] = hits
        snapshot["misses"] = misses
        snapshot["hit_rate"] = (hits / lookups) if lookups else 0.0
        snapshot["max_bytes"] = self.max_bytes
        return snapshot

    def clear(self, keep_newer_than: Optional[float] = None) -> int:
        """Delete entries; returns how many were removed.

        ``keep_newer_than`` (seconds) spares entries touched within
        that window — ``repro cache clear --keep-newer-than 3600``
        trims history without cold-starting the jobs of the last hour.
        A full clear also resets the persistent eviction counter.
        """
        cutoff_ns = None
        if keep_newer_than is not None:
            if keep_newer_than < 0:
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    "cache clear keep_newer_than must be >= 0")
            cutoff_ns = time.time_ns() - int(keep_newer_than * 1e9)
        removed = 0
        for path in self._entry_paths():
            if cutoff_ns is not None:
                try:
                    if os.stat(path).st_mtime_ns >= cutoff_ns:
                        continue
                except OSError:
                    continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        if cutoff_ns is None:
            try:
                os.unlink(self._meta_path())
            except OSError:
                pass
        return removed

    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        if not os.path.isdir(self.root):
            return paths
        for bucket in sorted(os.listdir(self.root)):
            bucket_path = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_path):
                continue
            for name in sorted(os.listdir(bucket_path)):
                if name.endswith(".json"):
                    paths.append(os.path.join(bucket_path, name))
        return paths
