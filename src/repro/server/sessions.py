"""Sessions: per-connection transaction context and numbered cursors.

A :class:`Session` is the engine session every driver shares
(:class:`~repro.api.session.EngineSession`: at most one open engine
transaction, begun lazily by the first statement, ended by COMMIT/ROLLBACK
frames after the open result sets were settled) plus what only a wire
connection needs: numbered cursors whose result sets stream out of the
engine's operator pipeline in fetch-N batches, the prefetch batch that rides
the EXECUTE reply, and the idle clock the reaper reads.

Every method that touches the engine is **synchronous** and runs inline on
the server's event-loop thread — the engine is not thread-safe, and running
every session's calls on that one thread is what multiplexes the lock-based
single-writer engine safely under the running degradation daemon (a
statement and a degradation wave interleave exactly as two engine calls
would in-process; conflicts surface as ``TransactionAborted`` on the wire).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..api.session import DEFAULT_PREFETCH, EngineSession, ResultSet
from ..core.errors import ProgrammingError
from ..devtools.invariants import TrackedLock
from ..engine.database import InstantDB
from .protocol import decode_purpose


class Session(EngineSession):
    """Server-side connection state; engine calls run on the loop thread."""

    def __init__(self, session_id: int, engine: InstantDB,
                 peer: str = "?") -> None:
        super().__init__(engine)
        self.session_id = session_id
        self.peer = peer
        #: Result sets the client has not fetched to their end, by cursor id.
        self.cursors: Dict[int, ResultSet] = {}
        self._next_cursor = 1
        self.last_activity = time.monotonic()
        self.statements = 0
        self.closed = False

    # -- statement execution ---------------------------------------------------

    def execute(self, sql: str, params: Optional[List[Any]],
                purpose_spec: Any, prefetch: int = DEFAULT_PREFETCH
                ) -> Dict[str, Any]:
        """Run one statement; returns the RESULT reply payload."""
        self.statements += 1
        result, rowcount = super().execute(
            sql, tuple(params) if params is not None else None,
            decode_purpose(purpose_spec))
        payload: Dict[str, Any] = {"rowcount": rowcount}
        if result is not None:
            cursor_id = self._next_cursor
            self._next_cursor += 1
            rows, done = result.take(prefetch) if prefetch > 0 else ([], False)
            if not done:
                self.cursors[cursor_id] = result
            payload.update(cursor=cursor_id, columns=result.columns,
                           rows=rows, done=done)
        return payload

    def executemany(self, sql: str,
                    seq_of_params: List[List[Any]]) -> Dict[str, Any]:
        self.statements += 1
        return {"rowcount": super().executemany(
            sql, [tuple(params) for params in seq_of_params])}

    # -- cursor traversal ------------------------------------------------------

    def fetch(self, cursor_id: int, n: int) -> Dict[str, Any]:
        cursor = self.cursors.get(cursor_id)
        if cursor is None:
            raise ProgrammingError(f"unknown (or exhausted) cursor {cursor_id}")
        rows, done = cursor.take(max(0, n))
        if done:
            del self.cursors[cursor_id]
        return {"rows": rows, "done": done}

    def close_cursor(self, cursor_id: int) -> None:
        cursor = self.cursors.pop(cursor_id, None)
        if cursor is not None:
            cursor.close()

    def begin(self) -> None:
        self._transaction()

    # -- lifecycle -------------------------------------------------------------

    def touch(self) -> None:
        self.last_activity = time.monotonic()

    def idle_for(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.last_activity

    def close(self) -> bool:
        """Tear down the session; returns True if a transaction was rolled
        back (a mid-statement disconnect discards uncommitted work)."""
        if self.closed:
            return False
        self.closed = True
        # Closed first: nothing will fetch them, so the rollback below has
        # no stream to settle.
        for cursor in self.cursors.values():
            cursor.close()
        self.cursors.clear()
        had_txn = self.in_transaction
        self.rollback()
        return had_txn


class SessionManager:
    """Admission control plus the id → :class:`Session` registry."""

    def __init__(self, engine: InstantDB, max_sessions: int = 64,
                 idle_timeout: Optional[float] = None) -> None:
        self.engine = engine
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.sessions: Dict[int, Session] = {}
        self._next_id = 1
        # Registry lock: the loop thread opens and closes sessions while
        # other threads (tests, harnesses) read ``len(server.sessions)``.
        self._lock = TrackedLock("server.sessions")

    def open(self, peer: str = "?") -> Optional[Session]:
        """A new session, or ``None`` when the server is at capacity."""
        with self._lock:
            if len(self.sessions) >= self.max_sessions:
                return None
            session = Session(self._next_id, self.engine, peer=peer)
            self._next_id += 1
            self.sessions[session.session_id] = session
            return session

    def close(self, session: Session) -> bool:
        with self._lock:
            self.sessions.pop(session.session_id, None)
        # Session teardown touches the engine; keep it outside the registry
        # lock so "server.sessions" stays a leaf in the lock hierarchy.
        return session.close()

    def idle_sessions(self, now: Optional[float] = None) -> List[Session]:
        if self.idle_timeout is None:
            return []
        with self._lock:
            return [session for session in self.sessions.values()
                    if session.idle_for(now) > self.idle_timeout]

    def __len__(self) -> int:
        with self._lock:
            return len(self.sessions)


__all__ = ["Session", "SessionManager", "DEFAULT_PREFETCH"]
