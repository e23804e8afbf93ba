"""The swap handle: one frozen ``Database`` served at a time.

The rule the serving layer rests on is that a served KB cannot change:
:class:`KBHandle` freezes every :class:`~repro.kb.database.Database` it
is given (:meth:`~repro.kb.database.Database.freeze`), so its
``insert``/``insert_many``/``create_table`` and every table's
``insert`` raise ``KBError`` from then on.  A ``kb.db`` file is loaded
into a ``Database`` by :func:`repro.kb.io.load_sqlite`; it is a file
format, not an executor.

A refresh replaces the KB instead of changing it: ``swap`` installs the
next frozen database and bumps the handle's ``epoch``.  In-flight plans
keep executing against the old database (they captured it before the
swap); new turns observe the new one.  Since nothing a handle serves
ever changes, the epoch alone tells two served KBs apart, and it is the
only staleness tag the query cache keeps.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import KBError
from repro.kb.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kb.sql.planner import CompiledPlan
    from repro.kb.sql.result import ResultSet

__all__ = ["KBHandle", "wrap_database"]


def _frozen(database: Database) -> Database:
    if not isinstance(database, Database):
        raise KBError(
            f"a KBHandle serves a Database; got {type(database).__name__}"
        )
    return database.freeze()


class KBHandle:
    """Copy-on-write indirection over the active frozen ``Database``.

    The hot path (``query``/``prepare``/attribute delegation) performs a
    single read of ``self._state`` — an ``(epoch, database)`` tuple bound
    in one assignment — so it takes **no lock**.  ``swap`` replaces the
    whole tuple atomically (CPython attribute stores are atomic);
    readers either see the old pair or the new pair, never a torn mix of
    old epoch with new database.  A small lock serialises writers only.
    """

    def __init__(self, database: Database) -> None:
        # _state is replaced wholesale on swap; hot-path readers bind it
        # once and index the bound tuple, never self._state twice.
        self._state: tuple[int, Database] = (0, _frozen(database))
        self._swap_lock = threading.Lock()

    @property
    def backend(self) -> Database:
        return self._state[1]

    @property
    def epoch(self) -> int:
        return self._state[0]

    def swap(self, database: Database) -> int:
        """Freeze and atomically install ``database``; returns the new epoch."""

        database = _frozen(database)
        with self._swap_lock:
            epoch = self._state[0] + 1
            self._state = (epoch, database)
            return epoch

    def prepare(self, sql: str, *, use_indexes: bool = True) -> "CompiledPlan":
        return self._state[1].prepare(sql, use_indexes=use_indexes)

    def query(self, sql: str, params: Mapping[str, Any] | None = None) -> "ResultSet":
        # One state read: the plan both compiles and executes against a
        # single database even if a swap lands mid-call.
        return self._state[1].query(sql, params)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._state[1], attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        epoch, database = self._state
        return f"KBHandle(epoch={epoch}, database={database.name!r})"


def wrap_database(database: Database) -> Database:
    """Freeze a built ``database`` for serving; returns it."""

    return database.freeze()
