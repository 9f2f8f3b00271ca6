"""What every transport shares: one engine session, one result set, one cursor.

A statement reaches the engine the same way whichever driver sent it:

* :class:`EngineSession` owns the PEP 249 implicit transaction over an
  :class:`~repro.engine.database.InstantDB` — begun lazily by the first
  statement, dropped when the engine aborted it, ended by commit/rollback
  after the open result sets have been settled.  The in-process
  :class:`~repro.api.connection.Connection` *has* one; the wire server's
  :class:`~repro.server.sessions.Session` *is* one.
* :class:`ResultSet` buffers one statement's rows.  Where further rows come
  from is its only variable: the live operator pipeline in process and on
  the server, a ``FETCH`` round trip in the remote driver.
* :class:`BaseCursor` is the PEP 249 cursor, written once over a result
  set; a driver's cursor only says how a statement is sent.
  :class:`BaseConnection` is the part of the connection surface that does
  not depend on where the transaction lives.
"""

from __future__ import annotations

import weakref
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.errors import InterfaceError, ProgrammingError
from ..core.policy import Purpose
from ..engine.database import InstantDB
from ..query.executor import QueryResult
from ..query.operators import StreamingResult
from ..txn.transaction import Transaction, TransactionState

PurposeSpec = Union[None, str, Purpose]
Row = Tuple[Any, ...]

#: Rows pushed inline with an EXECUTE reply (small result sets complete in a
#: single exchange), and the least a remote cursor asks for per FETCH round
#: trip however few rows its caller wants next.
DEFAULT_PREFETCH = 64

#: Rows pulled per refill when a result set is drained to its end
#: (``fetchall``, settling at commit/rollback).
FETCH_BATCH = 1024

#: ``more(n)``: at least ``n`` further rows unless the source ends first,
#: plus a this-was-the-end flag.
RowSource = Callable[[int], Tuple[List[Row], bool]]


def pipeline_rows(rows: Iterator[Row]) -> RowSource:
    """Row source over a live pipeline iterator: exactly the rows asked for
    are computed, so ``fetchone`` pulls one row out of the operator tree."""
    def more(n: int) -> Tuple[List[Row], bool]:
        batch = list(islice(rows, n))
        return batch, len(batch) < n
    return more


class ResultSet:
    """One statement's rows: a buffer refilled from its source on demand."""

    def __init__(self, columns: Sequence[str], rows: Optional[List[Row]] = None,
                 more: Optional[RowSource] = None,
                 release: Optional[Callable[[], None]] = None) -> None:
        self.columns = list(columns)
        self._rows: List[Row] = rows if rows is not None else []
        self._position = 0
        #: ``None`` once the source has ended.
        self._more = more
        #: Tells the source it was abandoned before its end.
        self._release = release

    def _refill(self, n: int) -> None:
        assert self._more is not None
        rows, done = self._more(n)
        if done:
            self._more = None
        # drop the rows already handed out so the buffer stays bounded
        del self._rows[:self._position]
        self._position = 0
        self._rows.extend(rows)

    def take(self, n: Optional[int]) -> Tuple[List[Row], bool]:
        """Up to ``n`` rows (``None``: all that are left) plus a
        this-was-the-end flag."""
        if n is None:
            self.materialize()
            n = len(self._rows)
        while self._more is not None and \
                len(self._rows) - self._position < n:
            self._refill(n - (len(self._rows) - self._position))
        rows = self._rows[self._position:self._position + n]
        self._position += len(rows)
        return rows, self._more is None and self._position >= len(self._rows)

    def materialize(self) -> None:
        """Drain the source into the buffer (end of transaction, fetchall)."""
        while self._more is not None:
            self._refill(FETCH_BATCH)

    def close(self) -> None:
        if self._more is not None and self._release is not None:
            self._release()
        self._more = None
        self._rows = []
        self._position = 0


class EngineSession:
    """One implicit engine transaction and the result sets computed under it.

    Every method touches the engine and must run on the thread that owns it
    (the caller's in process, the engine executor on the server).
    """

    def __init__(self, engine: InstantDB) -> None:
        self.engine = engine
        self.txn: Optional[Transaction] = None
        self._streams: "weakref.WeakSet[ResultSet]" = weakref.WeakSet()

    def _prune_dead_txn(self) -> None:
        # The engine aborts the active transaction itself on lock conflicts
        # and deadlocks; drop our reference so the next statement starts fresh.
        if self.txn is not None and self.txn.state is not TransactionState.ACTIVE:
            self.txn = None

    def _transaction(self) -> Transaction:
        """The session's open transaction, begun lazily."""
        self._prune_dead_txn()
        if self.txn is None:
            self.txn = self.engine.begin()
        return self.txn

    @property
    def in_transaction(self) -> bool:
        self._prune_dead_txn()
        return self.txn is not None

    def _settle_streams(self) -> None:
        """Materialize every pending stream before locks are released.

        A streamed result set is computed under the transaction's read locks;
        once commit/rollback releases them, other transactions may write the
        scanned tables, so draining lazily afterwards could observe their
        uncommitted state.  Settling here gives a partially fetched result
        set the snapshot a materialize-at-execute cursor would have had.
        """
        for result in list(self._streams):
            result.materialize()

    def _end(self, finish: Callable[[Transaction], None]) -> None:
        self._prune_dead_txn()
        if self.txn is not None:
            self._settle_streams()
            finish(self.txn)
            self.txn = None

    def commit(self) -> None:
        """Commit the open transaction (no-op when nothing is pending)."""
        self._end(self.engine.commit)

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when nothing is pending)."""
        self._end(self.engine.rollback)

    def execute(self, sql: str, params: Optional[Sequence[Any]] = (),
                purpose: PurposeSpec = None) -> Tuple[Optional[ResultSet], int]:
        """Run one statement in the session's transaction: its result set
        (``None`` unless it was a query) and its row count (-1 unless DML)."""
        result = self.engine.execute(sql, purpose=purpose,
                                     txn=self._transaction(), params=params,
                                     stream=True)
        if isinstance(result, StreamingResult):
            rows = ResultSet(result.columns, more=pipeline_rows(iter(result)))
            self._streams.add(rows)
            return rows, -1
        if isinstance(result, QueryResult):
            return ResultSet(result.columns, rows=list(result.rows)), -1
        return None, result if isinstance(result, int) else -1

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> int:
        """Run ``sql`` once per parameter sequence; the total row count."""
        return self.engine.executemany(sql, seq_of_params,
                                       txn=self._transaction())


class BaseConnection:
    """The PEP 249 connection surface every driver shares: purpose scoping,
    the context-manager protocol and the cursor shortcuts.  A driver's
    connection provides ``_check_open``, ``commit``, ``rollback``, ``close``
    and ``cursor``."""

    _purpose: PurposeSpec = None

    @property
    def purpose(self) -> PurposeSpec:
        return self._purpose

    def set_purpose(self, purpose: PurposeSpec) -> None:
        """Change the connection's default query purpose."""
        self._purpose = purpose

    def __enter__(self) -> "BaseConnection":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        finally:
            self.close()

    def execute(self, sql: str, params: Sequence[Any] = (), *,
                purpose: PurposeSpec = None) -> "BaseCursor":
        """Shortcut: create a cursor and execute one statement on it."""
        return self.cursor().execute(sql, params, purpose=purpose)

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> "BaseCursor":
        """Shortcut: create a cursor and run a batched execution on it."""
        return self.cursor().executemany(sql, seq_of_params)


class BaseCursor:
    """The PEP 249 cursor: result-set traversal over a :class:`ResultSet`.

    Subclasses implement :meth:`_send` / :meth:`_send_many` — how a
    statement reaches an engine session — and nothing else.
    """

    def __init__(self, connection: BaseConnection) -> None:
        self.connection = connection
        self.arraysize = 1
        self._closed = False
        self._result: Optional[ResultSet] = None
        self._set()

    def _set(self, result: Optional[ResultSet] = None,
             rowcount: int = -1) -> None:
        if self._result is not None:
            self._result.close()
        self._result = result
        self.description: Optional[List[Tuple]] = None if result is None else [
            (name, None, None, None, None, None, None)
            for name in result.columns
        ]
        self.rowcount = rowcount
        self.lastrowid: Optional[int] = None

    def _check(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    # -- execution -----------------------------------------------------------

    def _send(self, sql: str, params: Sequence[Any],
              purpose: PurposeSpec) -> Tuple[Optional[ResultSet], int]:
        raise NotImplementedError

    def _send_many(self, sql: str,
                   seq_of_params: Iterable[Sequence[Any]]) -> int:
        raise NotImplementedError

    def execute(self, sql: str, params: Sequence[Any] = (), *,
                purpose: PurposeSpec = None) -> "BaseCursor":
        """Execute one statement, binding qmark (``?``) parameters.

        Runs inside the connection's implicit transaction; remember to
        ``commit()``.  Returns the cursor itself so calls chain
        (``for row in cur.execute(...)``).  SELECTs stream: rows flow out of
        the engine's operator pipeline as they are fetched — one at a time
        in process, a batch per round trip over the wire — so ``fetchone``
        after a ``LIMIT``-free query over a large table pays only for the
        rows actually pulled.
        """
        self._check()
        self._set()             # an abandoned server cursor is released first
        if purpose is None:
            purpose = self.connection.purpose
        self._set(*self._send(sql, params, purpose))
        return self

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> "BaseCursor":
        """Execute ``sql`` once per parameter sequence (DML only).

        The statement is prepared once and bound N times, all inside the
        connection's single open transaction — the batch fast path.
        """
        self._check()
        self._set()
        self.rowcount = self._send_many(sql, seq_of_params)
        return self

    # -- result-set traversal --------------------------------------------------

    def _take(self, n: Optional[int]) -> List[Row]:
        self._check()
        if self._result is None:
            raise ProgrammingError("no result set: the previous statement was "
                                   "not a query (or nothing was executed)")
        return self._result.take(n)[0]

    def fetchone(self) -> Optional[Row]:
        rows = self._take(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Row]:
        return self._take(self.arraysize if size is None else size)

    def fetchall(self) -> List[Row]:
        return self._take(None)

    def __iter__(self) -> Iterator[Row]:
        return self

    def __next__(self) -> Row:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- PEP 249 no-ops --------------------------------------------------------

    def setinputsizes(self, sizes: Sequence[Any]) -> None:
        """PEP 249 mandated no-op."""

    def setoutputsize(self, size: int, column: Optional[int] = None) -> None:
        """PEP 249 mandated no-op."""

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._set()

    def __enter__(self) -> "BaseCursor":
        self._check()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["EngineSession", "ResultSet", "BaseConnection", "BaseCursor",
           "RowSource", "pipeline_rows", "PurposeSpec", "Row",
           "DEFAULT_PREFETCH", "FETCH_BATCH"]
