"""PEP 249 (DB-API 2.0) Connection and Cursor over the InstantDB engine.

The driver layers the standard connect/cursor/transaction protocol on top of
:class:`~repro.engine.database.InstantDB`:

* a :class:`Connection` has one :class:`~repro.api.session.EngineSession`,
  which owns (at most) one open engine transaction at a time, begun lazily by
  the first statement and ended by :meth:`Connection.commit` or
  :meth:`Connection.rollback` — the PEP 249 implicit-transaction model;
* a connection is *purpose-scoped*: the paper's query purposes (which decide
  the accuracy level degradable columns are observed at) default from the
  connection and can be overridden per statement;
* a :class:`Cursor` executes statements with qmark (``?``) parameter binding
  through the engine's prepared-statement cache, so ``executemany`` parses
  and plans once, binds N times, and commits once.

Everything that does not depend on the transport — the session, the
result-set buffer, the cursor's traversal — lives in :mod:`repro.api.session`
and is shared with the wire server and the remote driver.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

from ..core.errors import InterfaceError
from ..engine.database import InstantDB
from .session import (
    BaseConnection,
    BaseCursor,
    EngineSession,
    PurposeSpec,
    ResultSet,
)

#: PEP 249 module globals (re-exported by :mod:`repro.api` and :mod:`repro`).
apilevel = "2.0"
threadsafety = 1          # threads may share the module, but not connections
paramstyle = "qmark"


def connect(data_dir: Optional[str] = None, *,
            engine: Optional[InstantDB] = None,
            purpose: PurposeSpec = None,
            **engine_kwargs: Any) -> "Connection":
    """Open a PEP 249 connection to an InstantDB engine.

    ``connect()`` creates a fresh in-memory engine; ``connect("/path")``
    persists pages and WAL under that directory.  Pass ``engine=`` to wrap an
    already-configured :class:`InstantDB` (domains and policies registered
    through its Python API) — the connection then does *not* close the engine
    when it is closed.  ``purpose`` sets the connection's default query
    purpose; any :class:`InstantDB` constructor keyword is forwarded.
    """
    if engine is not None and (data_dir is not None or engine_kwargs):
        raise InterfaceError("pass either engine= or engine constructor "
                             "arguments, not both")
    owns_engine = engine is None
    if engine is None:
        engine = InstantDB(data_dir=data_dir, **engine_kwargs)
    return Connection(engine, purpose=purpose, owns_engine=owns_engine)


class Connection(BaseConnection):
    """A PEP 249 connection over one :class:`EngineSession`."""

    def __init__(self, engine: InstantDB, purpose: PurposeSpec = None,
                 owns_engine: bool = True) -> None:
        self._session = EngineSession(engine)
        self._purpose = purpose
        self._owns_engine = owns_engine
        self._closed = False

    # -- engine access -------------------------------------------------------

    @property
    def engine(self) -> InstantDB:
        """The underlying engine, for non-SQL surface (domains, clock, ...)."""
        return self._session.engine

    # -- transaction protocol ------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    @property
    def in_transaction(self) -> bool:
        return self._session.in_transaction

    def commit(self) -> None:
        """Commit the open transaction (no-op when nothing is pending)."""
        self._check_open()
        self._session.commit()

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when nothing is pending)."""
        self._check_open()
        self._session.rollback()

    def close(self) -> None:
        """Roll back any pending transaction and close the connection.

        When the connection created its engine (plain ``connect(...)``), the
        engine is checkpointed and closed too; a connection wrapping a caller
        supplied ``engine=`` leaves it running.
        """
        if self._closed:
            return
        try:
            self.rollback()
        finally:
            self._closed = True
            if self._owns_engine:
                self.engine.close()

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)


class Cursor(BaseCursor):
    """The in-process cursor: statements go straight to the connection's
    engine session, and rows stream out of the live operator pipeline."""

    def _send(self, sql: str, params: Sequence[Any],
              purpose: PurposeSpec) -> Tuple[Optional[ResultSet], int]:
        return self.connection._session.execute(sql, params, purpose)

    def _send_many(self, sql: str,
                   seq_of_params: Iterable[Sequence[Any]]) -> int:
        return self.connection._session.executemany(sql, seq_of_params)


__all__ = ["connect", "Connection", "Cursor", "apilevel", "threadsafety",
           "paramstyle"]
