"""Epoch-tagged query-result cache in front of the KB.

The dominant MDX pattern class is the direct lookup (§4.3), and under
real traffic the same (template, bindings) pair recurs constantly —
every clinician asking "dosage for aspirin" instantiates the identical
SQL with identical parameters.  :class:`QueryCache` memoizes executed
result sets keyed on the SQL text plus the bound parameters, and
:class:`CachingDatabase` is a proxy for a
:class:`~repro.kb.backend.KBHandle` whose ``query`` — the one cached
entry point — consults the cache.

Coherence has one mechanism.  A served KB cannot change (the handle
freezes it), so the only thing that changes an answer is a
``POST /refresh`` swap, and every swap bumps the handle's ``epoch``.
Every entry is tagged with the epoch it was stored under, and a lookup
under any other epoch drops it (counted in ``stale_drops``).

Cached :class:`~repro.kb.sql.result.ResultSet` objects are shared
between threads and must be treated as immutable by callers (the agent
already copies ``result.rows`` before storing them in context).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.kb.backend import KBHandle
from repro.kb.sql.result import ResultSet

CacheKey = tuple[str, tuple[tuple[str, Any], ...]]


def make_key(sql: str, params: dict[str, Any] | None) -> CacheKey:
    """A hashable cache key: SQL text + sorted bound parameters."""
    items = tuple(sorted((params or {}).items(), key=lambda kv: kv[0]))
    return (sql, items)


class QueryCache:
    """A thread-safe LRU of epoch-tagged results with hit/miss counters.

    Entries remember the ``epoch`` they were stored under; a lookup
    presenting a different epoch treats the entry as stale and drops it.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, tuple[int | None, ResultSet]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Refresh observability: entries dropped because their stored
        # epoch no longer matches (the KB was swapped), and hits served
        # despite an epoch mismatch.  The latter is zero
        # by construction — the lookup below drops instead of serving —
        # and is exported to /metrics so a refresh drill can assert it.
        self.stale_drops = 0
        self.stale_served = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self,
        sql: str,
        params: dict[str, Any] | None,
        epoch: int | None = None,
    ) -> ResultSet | None:
        """Return the cached result, or None on miss/stale epoch."""
        key = make_key(sql, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_epoch, result = entry
            if stored_epoch != epoch:
                del self._entries[key]
                self.stale_drops += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def store(
        self,
        sql: str,
        params: dict[str, Any] | None,
        result: ResultSet,
        epoch: int | None = None,
    ) -> None:
        key = make_key(sql, params)
        with self._lock:
            self._entries[key] = (epoch, result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (1.0 when no lookups)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 1.0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "stale_drops": self.stale_drops,
                "stale_served": self.stale_served,
            }


class CachingDatabase:
    """A :class:`~repro.kb.backend.KBHandle` proxy that serves ``query``
    through a cache.

    ``query`` is the only cached entry point.  Everything else —
    ``prepare``, ``epoch``, catalog reads — is delegated untouched, so
    the proxy can stand wherever the handle is expected.
    """

    def __init__(self, handle: KBHandle, cache: QueryCache | None = None) -> None:
        self._handle = handle
        self.cache = cache if cache is not None else QueryCache()

    @property
    def wrapped(self) -> KBHandle:
        return self._handle

    def query(self, sql: str, params: dict[str, Any] | None = None) -> ResultSet:
        # The epoch is read before query() resolves the database.  Epochs
        # only move forward, so a cached result is never older than its
        # tag: a refresh landing mid-query can store new rows under the
        # old tag (dropped by the next lookup), never old rows under the
        # new one.
        epoch = self._handle.epoch
        cached = self.cache.lookup(sql, params, epoch=epoch)
        if cached is not None:
            return cached
        result = self._handle.query(sql, params)
        self.cache.store(sql, params, result, epoch=epoch)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)
