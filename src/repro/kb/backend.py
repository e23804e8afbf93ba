"""The KB seam: protocol, immutable snapshots, swap handle.

Every layer above the KB (planner consumers, template execution, the
query cache, serving, persistence workers, the analysis toolchain)
speaks :class:`KBBackend` instead of the concrete in-memory
:class:`~repro.kb.database.Database`.  There is one engine: ``Database``
itself satisfies the protocol, and :class:`KBSnapshot` freezes one into
an immutable view.  A ``kb.db`` file is loaded into a ``Database`` by
:func:`repro.kb.io.load_sqlite`; it is a file format, not an executor.

:class:`KBHandle` is the copy-on-write indirection that makes
zero-downtime refresh possible: the serving layer holds one handle for
the lifetime of the process, and ``refresh`` atomically swaps the
backend underneath it.  In-flight plans keep executing against the old
snapshot (they captured the backend object before the swap); new turns
observe the new one.  The handle's ``generation`` is *epoch-scaled* so
the existing generation-tagged caches (plan cache, query cache)
invalidate across swaps even when the new snapshot's own counters are
numerically smaller than the old one's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol, runtime_checkable

from repro.errors import KBError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kb.database import Database
    from repro.kb.schema import TableSchema
    from repro.kb.sql.result import ResultSet
    from repro.kb.statistics import TableStatistics
    from repro.kb.table import Table

__all__ = [
    "KBBackend",
    "KBHandle",
    "KBSnapshot",
    "wrap_database",
]

#: Multiplier applied to the handle epoch when deriving generations.  A
#: fresh snapshot restarts its local generation counters near zero, so a
#: naive swap could *lower* the observed generation and let a stale
#: cache entry validate.  Scaling by a stride far above any realistic
#: local counter makes every swap strictly monotonic.
EPOCH_STRIDE = 10**12


@runtime_checkable
class KBBackend(Protocol):
    """What the rest of the system is allowed to ask of a KB.

    ``Database`` satisfies this structurally; so do :class:`KBSnapshot`
    and :class:`KBHandle`.  The protocol is
    deliberately read-only — mutation (``insert``/``create_table``) is a
    construction-time concern, not part of the serving seam.
    """

    @property
    def name(self) -> str: ...

    @property
    def generation(self) -> int: ...

    @property
    def schema_generation(self) -> int: ...

    def schema(self) -> dict[str, "TableSchema"]: ...

    def has_table(self, name: str) -> bool: ...

    def table(self, name: str) -> "Table": ...

    def tables(self) -> Iterable["Table"]: ...

    def table_names(self) -> list[str]: ...

    def prepare(self, sql: str, *, use_indexes: bool = True) -> Any: ...

    def query(self, sql: str, params: Mapping[str, Any] | None = None) -> "ResultSet": ...

    def explain(self, sql: str) -> str: ...

    def plan_stats(self) -> dict[str, int]: ...

    def execution_paths(self) -> dict[str, int]: ...

    def statistics(self, table_name: str) -> "TableStatistics": ...

    def all_statistics(self) -> dict[str, "TableStatistics"]: ...


_MUTATORS = ("insert", "insert_many", "create_table")


class KBSnapshot:
    """An immutable read-only view over a fully built ``Database``.

    Freezing is the contract the refresh machinery relies on: once a
    snapshot is behind a :class:`KBHandle`, nothing may mutate it, so
    in-flight queries on the old snapshot stay correct after a swap.
    All read methods delegate; the three mutators raise ``KBError``.
    """

    def __init__(self, database: "Database") -> None:
        from repro.kb.database import Database as _Database

        if isinstance(database, KBSnapshot):
            database = database.wrapped
        if not isinstance(database, _Database):
            raise KBError(
                "KBSnapshot wraps the in-memory Database; got "
                f"{type(database).__name__}"
            )
        self._database = database

    @property
    def wrapped(self) -> "Database":
        return self._database

    @property
    def name(self) -> str:
        return self._database.name

    @property
    def generation(self) -> int:
        return self._database.generation

    @property
    def schema_generation(self) -> int:
        return self._database.schema_generation

    def insert(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("KB snapshot is immutable: insert is not allowed")

    def insert_many(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("KB snapshot is immutable: insert_many is not allowed")

    def create_table(self, *args: Any, **kwargs: Any) -> Any:
        raise KBError("KB snapshot is immutable: create_table is not allowed")

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._database, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KBSnapshot({self._database.name!r}, generation={self.generation})"


class KBHandle:
    """Copy-on-write indirection over the active :class:`KBBackend`.

    The hot path (``query``/``prepare``/attribute delegation) performs a
    single read of ``self._state`` — an ``(epoch, backend)`` tuple bound
    in one assignment — so it takes **no lock**.  ``swap`` replaces the
    whole tuple atomically (CPython attribute stores are atomic);
    readers either see the old pair or the new pair, never a torn mix of
    old epoch with new backend.  A small lock serialises writers only.
    """

    def __init__(self, backend: "KBBackend") -> None:
        import threading

        if isinstance(backend, KBHandle):
            raise KBError("KBHandle cannot wrap another KBHandle")
        # _state is replaced wholesale on swap; hot-path readers bind it
        # once and index the bound tuple, never self._state twice.
        self._state: tuple[int, Any] = (0, backend)
        self._swap_lock = threading.Lock()
        self.refreshes = 0

    # -- swap machinery ------------------------------------------------------

    @property
    def backend(self) -> "KBBackend":
        return self._state[1]

    @property
    def epoch(self) -> int:
        return self._state[0]

    def swap(self, backend: "KBBackend") -> int:
        """Atomically install ``backend``; returns the new epoch."""

        if isinstance(backend, KBHandle):
            raise KBError("cannot swap a KBHandle into a KBHandle")
        with self._swap_lock:
            epoch = self._state[0] + 1
            self._state = (epoch, backend)
            self.refreshes = epoch
            return epoch

    # -- generation scaling --------------------------------------------------

    @property
    def generation(self) -> int:
        epoch, backend = self._state
        return epoch * EPOCH_STRIDE + backend.generation

    @property
    def schema_generation(self) -> int:
        epoch, backend = self._state
        return epoch * EPOCH_STRIDE + backend.schema_generation

    # -- protocol delegation -------------------------------------------------

    @property
    def name(self) -> str:
        return self._state[1].name

    def schema(self) -> dict[str, "TableSchema"]:
        return self._state[1].schema()

    def has_table(self, name: str) -> bool:
        return self._state[1].has_table(name)

    def table(self, name: str) -> "Table":
        return self._state[1].table(name)

    def tables(self) -> Iterable["Table"]:
        return self._state[1].tables()

    def table_names(self) -> list[str]:
        return self._state[1].table_names()

    def prepare(self, sql: str, *, use_indexes: bool = True) -> Any:
        return self._state[1].prepare(sql, use_indexes=use_indexes)

    def query(self, sql: str, params: Mapping[str, Any] | None = None) -> "ResultSet":
        # One state read: the plan both compiles and executes against a
        # single backend even if a swap lands mid-call.
        return self._state[1].query(sql, params)

    def explain(self, sql: str) -> str:
        return self._state[1].explain(sql)

    def plan_stats(self) -> dict[str, int]:
        return self._state[1].plan_stats()

    def execution_paths(self) -> dict[str, int]:
        return self._state[1].execution_paths()

    def statistics(self, table_name: str) -> "TableStatistics":
        return self._state[1].statistics(table_name)

    def all_statistics(self) -> dict[str, "TableStatistics"]:
        return self._state[1].all_statistics()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._state[1], attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        epoch, backend = self._state
        return f"KBHandle(epoch={epoch}, backend={type(backend).__name__})"


def wrap_database(database: "Database") -> "KBBackend":
    """Freeze a built ``database`` into the snapshot a server serves."""

    return KBSnapshot(database)
