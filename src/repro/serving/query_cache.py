"""Generation-tagged query-result cache in front of the KB.

The dominant MDX pattern class is the direct lookup (§4.3), and under
real traffic the same (template, bindings) pair recurs constantly —
every clinician asking "dosage for aspirin" instantiates the identical
SQL with identical parameters.  :class:`QueryCache` memoizes executed
result sets keyed on the SQL text plus the bound parameters, and
:class:`CachingDatabase` is a drop-in proxy for a
:class:`~repro.kb.backend.KBBackend` whose ``query`` — the one cached
entry point — consults the cache.

Coherence has one mechanism: every entry is tagged with the database
:attr:`~repro.kb.backend.KBBackend.generation` and a lookup under any
other generation drops it (counted in ``stale_drops``).  Everything
that changes an answer moves the generation: a ``POST /refresh`` swap
(the :class:`~repro.kb.backend.KBHandle` scales generations by epoch)
and a direct mutation of an unfrozen ``Database``, even one through a
raw :class:`~repro.kb.table.Table` handle, so the tag alone keeps
answers current.

Cached :class:`~repro.kb.sql.result.ResultSet` objects are shared
between threads and must be treated as immutable by callers (the agent
already copies ``result.rows`` before storing them in context).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.kb.backend import KBBackend
from repro.kb.sql.result import ResultSet

CacheKey = tuple[str, tuple[tuple[str, Any], ...]]


def make_key(sql: str, params: dict[str, Any] | None) -> CacheKey:
    """A hashable cache key: SQL text + sorted bound parameters."""
    items = tuple(sorted((params or {}).items(), key=lambda kv: kv[0]))
    return (sql, items)


class QueryCache:
    """A thread-safe LRU of generation-tagged results with hit/miss counters.

    Entries remember the ``generation`` they were stored under; a lookup
    presenting a different generation treats the entry as stale and
    drops it.
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
        # generation no longer matches (the KB was swapped/mutated), and
        # hits served despite a generation mismatch.  The latter is zero
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
        generation: int | None = None,
    ) -> ResultSet | None:
        """Return the cached result, or None on miss/stale generation."""
        key = make_key(sql, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_generation, result = entry
            if stored_generation != generation:
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
        generation: int | None = None,
    ) -> None:
        key = make_key(sql, params)
        with self._lock:
            self._entries[key] = (generation, result)
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
    """A :class:`KBBackend` proxy that serves ``query`` through a cache.

    ``query`` is the only cached entry point.  Everything else —
    ``prepare``, catalog reads, and the writes of an unfrozen
    ``Database`` — is delegated untouched, so the proxy can stand
    wherever a backend is expected.  Writes need no hook: they move the
    generation, and the next lookup drops what they made stale.
    """

    def __init__(self, database: KBBackend, cache: QueryCache | None = None) -> None:
        self._database = database
        self.cache = cache if cache is not None else QueryCache()

    @property
    def wrapped(self) -> KBBackend:
        return self._database

    def query(self, sql: str, params: dict[str, Any] | None = None) -> ResultSet:
        # The generation is read before query() resolves the backend.
        # Generations only move forward, so a cached result is never
        # older than its tag: a refresh or write landing mid-query can
        # store new rows under the old tag (dropped by the next lookup),
        # never old rows under the new one.
        generation = self._database.generation
        cached = self.cache.lookup(sql, params, generation=generation)
        if cached is not None:
            return cached
        result = self._database.query(sql, params)
        self.cache.store(sql, params, result, generation=generation)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._database, name)
