"""QueryCache and CachingDatabase: hit/miss, LRU, epoch coherence."""

from __future__ import annotations

import pytest

from repro.errors import KBError
from repro.kb import Column, Database, DataType, TableSchema
from repro.kb.backend import KBHandle
from repro.nlq.templates import StructuredQueryTemplate
from repro.serving import CachingDatabase, QueryCache, make_key


def make_db(cls: type[Database] = Database) -> Database:
    db = cls("cachetest")
    db.create_table(TableSchema(
        "drug",
        [Column("drug_id", DataType.INTEGER, nullable=False),
         Column("name", DataType.TEXT, nullable=False)],
        primary_key="drug_id",
    ))
    db.insert("drug", {"drug_id": 1, "name": "Aspirin"})
    db.insert("drug", {"drug_id": 2, "name": "Ibuprofen"})
    return db


def make_cached() -> CachingDatabase:
    return CachingDatabase(KBHandle(make_db()))


SQL = "SELECT name FROM drug WHERE drug_id = :id"


class TestKey:
    def test_param_order_is_irrelevant(self):
        assert make_key("q", {"a": 1, "b": 2}) == make_key("q", {"b": 2, "a": 1})

    def test_distinct_params_distinct_keys(self):
        assert make_key("q", {"a": 1}) != make_key("q", {"a": 2})
        assert make_key("q", None) == make_key("q", {})


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.lookup(SQL, {"id": 1}) is None
        cache.store(SQL, {"id": 1}, "result")
        assert cache.lookup(SQL, {"id": 1}) == "result"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_lru_eviction(self):
        cache = QueryCache(max_entries=2)
        cache.store(SQL, {"id": 1}, "one")
        cache.store(SQL, {"id": 2}, "two")
        assert cache.lookup(SQL, {"id": 1}) == "one"  # refresh id=1
        cache.store(SQL, {"id": 3}, "three")
        assert cache.lookup(SQL, {"id": 2}) is None  # id=2 was the LRU
        assert cache.lookup(SQL, {"id": 1}) == "one"
        assert cache.evictions == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)


class TestCachingDatabase:
    def test_repeated_query_served_from_cache(self):
        db = make_cached()
        first = db.query(SQL, {"id": 1})
        second = db.query(SQL, {"id": 1})
        assert first.rows == [("Aspirin",)]
        assert second is first  # identical object: no re-execution
        assert db.cache.hits == 1 and db.cache.misses == 1

    def test_write_invalidates(self):
        """A served KB takes no in-place write; the write lands as a new
        generation, and the swap invalidates the cached answer."""
        handle = KBHandle(make_db())
        db = CachingDatabase(handle)
        all_sql = "SELECT name FROM drug"
        assert len(db.query(all_sql).rows) == 2
        with pytest.raises(KBError, match="frozen"):
            db.insert("drug", {"drug_id": 3, "name": "Tazarotene"})
        new = make_db()
        new.insert("drug", {"drug_id": 3, "name": "Tazarotene"})
        handle.swap(new)
        assert len(db.query(all_sql).rows) == 3  # not the stale cached 2

    def test_insert_many_invalidates(self):
        handle = KBHandle(make_db())
        db = CachingDatabase(handle)
        all_sql = "SELECT name FROM drug"
        db.query(all_sql)
        rows = [{"drug_id": 3, "name": "A"}, {"drug_id": 4, "name": "B"}]
        with pytest.raises(KBError, match="frozen"):
            db.insert_many("drug", rows)
        new = make_db()
        new.insert_many("drug", rows)
        handle.swap(new)
        assert len(db.query(all_sql).rows) == 4

    def test_delegates_everything_else(self):
        handle = KBHandle(make_db())
        db = CachingDatabase(handle)
        assert db.table_names() == ["drug"]
        assert db.has_table("drug")
        assert db.wrapped is handle
        assert db.name == "cachetest"
        assert db.epoch == 0

    def test_distinct_params_not_conflated(self):
        db = make_cached()
        assert db.query(SQL, {"id": 1}).rows == [("Aspirin",)]
        assert db.query(SQL, {"id": 2}).rows == [("Ibuprofen",)]


class TestGenerationCoherence:
    """Stale cached answers must be impossible, not merely unlikely."""

    def test_programmatic_mutation_bypassing_proxy(self):
        """A cached answer can only go stale if the KB under it changes;
        a KB behind a handle cannot, not even through a raw Table or a
        schema change that never passes the proxy."""
        inner = make_db()
        db = CachingDatabase(KBHandle(inner))
        all_sql = "SELECT name FROM drug"
        cached = db.query(all_sql)
        assert len(cached.rows) == 2
        with pytest.raises(KBError, match="frozen"):
            inner.table("drug").insert({"drug_id": 3, "name": "Tazarotene"})
        with pytest.raises(KBError, match="frozen"):
            db.create_table(TableSchema("extra", [Column("a", DataType.INTEGER)]))
        assert db.query(all_sql) is cached
        assert inner.query(all_sql) == cached

    def test_generation_mismatch_counts_as_miss(self):
        # The tag is the handle's epoch, which numbers KB generations.
        cache = QueryCache()
        cache.store(SQL, {"id": 1}, "result", epoch=7)
        assert cache.lookup(SQL, {"id": 1}, epoch=7) == "result"
        assert cache.lookup(SQL, {"id": 1}, epoch=8) is None
        # The stale entry was dropped, not left behind.
        assert len(cache) == 0

    def test_refresh_landing_mid_query_is_not_cached_as_new(self):
        """A swap landing while a query runs must not file the old
        database's rows under the new epoch: the next turn has to see
        the new rows."""
        new = make_db()
        new.insert("drug", {"drug_id": 3, "name": "Tazarotene"})

        class SwapOnFirstPrepare(Database):
            swapped = False

            def prepare(self, sql, *, use_indexes=True):
                if not self.swapped:
                    self.swapped = True
                    handle.swap(new)
                return super().prepare(sql, use_indexes=use_indexes)

        handle = KBHandle(make_db(SwapOnFirstPrepare))
        db = CachingDatabase(handle)
        template = StructuredQueryTemplate(
            intent_name="all drugs", sql="SELECT name FROM drug ORDER BY name"
        )
        # The in-flight query finishes on the snapshot it resolved.
        assert template.execute(db, {}).rows == [("Aspirin",), ("Ibuprofen",)]
        assert template.execute(db, {}).rows == [
            ("Aspirin",), ("Ibuprofen",), ("Tazarotene",)
        ]
        assert db.cache.stale_drops == 1
