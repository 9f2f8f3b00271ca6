"""The asyncio wire server: admission, backpressure, and engine multiplexing.

Concurrency model
-----------------

* The server's **event-loop thread is the engine thread**.  The engine is
  lock-based, single-writer and not thread-safe; every engine call —
  statements, commits, rollbacks, fetch-N pulls on live streams, session
  teardown and ``ServerThread.submit`` work such as degradation ticks — runs
  inline on the loop, so calls are serialized by construction and a wave
  interleaves with statements exactly as two engine calls would in-process.
  Cross-session conflicts surface as ``TransactionAborted`` error frames.
* **One task per connection** reads a frame, dispatches it, writes the reply
  and only then reads the next frame.  A client that sends faster than the
  server answers meets TCP backpressure directly (the socket is not read
  while a request is served).  Replies go through ``writer.drain()`` under a
  small write-buffer limit, so a slow-reading client throttles its own task
  instead of buffering unbounded replies in server memory.

Admission is a hard cap: past ``max_sessions`` concurrent sessions a new
connection is shed with a typed, *retryable* ``OverloadError`` frame before
any session state is allocated (the remote driver backs off and retries).
An optional idle reaper rolls back and closes sessions that have gone quiet
for longer than ``idle_timeout`` seconds.

Overload and fault hardening
----------------------------

* ``statement_timeout`` bounds every EXECUTE / EXECUTEMANY / FETCH.  An
  engine call cannot be interrupted mid-statement, so the budget is checked
  when the call returns: a statement that ran past it gets a retryable
  ``StatementTimeoutError`` frame whatever its outcome, the connection
  closes, and session teardown rolls its transaction back.
* an optional :class:`~repro.faults.FaultPlan` arms the ``server.send`` /
  ``server.recv`` sites: reply frames can be truncated mid-frame, the
  transport dropped abruptly, or the peer stalled — the failure modes the
  chaos oracle drives to prove clients re-sync and replay safely.

``stop(drain=True)`` stops accepting, lets in-flight requests finish (up to
``drain_timeout``), then closes connections — the SIGTERM path in
``python -m repro.server``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.errors import Error, StatementTimeoutError
from ..devtools import invariants
from ..engine.database import InstantDB
from ..faults import FaultPlan
from . import protocol
from .metrics import ServerMetrics
from .protocol import ProtocolError
from .sessions import DEFAULT_PREFETCH, Session, SessionManager

#: High-water mark for a connection's outgoing buffer; ``drain()`` blocks
#: the connection's task past this, throttling replies to slow clients.
DEFAULT_WRITE_LIMIT = 256 * 1024


class _Connection:
    """Per-connection state the connection's task and the server share."""

    def __init__(self, session: Session, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.session = session
        self.reader = reader
        self.writer = writer
        self.busy = False
        self.greeted = False
        self.said_goodbye = False
        self.reaped = False

    @property
    def settled(self) -> bool:
        return not self.busy

    def force_close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # reprolint: disable=no-swallowed-abort -- transport already dead; nothing to surface
            pass


class InstantDBServer:
    """Serve an :class:`InstantDB` engine over the binary wire protocol."""

    def __init__(self, engine: InstantDB, host: str = "127.0.0.1",
                 port: int = 0, *, max_sessions: int = 64,
                 idle_timeout: Optional[float] = None,
                 prefetch: int = DEFAULT_PREFETCH,
                 write_buffer_limit: int = DEFAULT_WRITE_LIMIT,
                 statement_timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 owns_engine: bool = False) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.prefetch = prefetch
        self.write_buffer_limit = write_buffer_limit
        self.statement_timeout = statement_timeout
        self.faults = fault_plan
        self.owns_engine = owns_engine
        self.sessions = SessionManager(engine, max_sessions=max_sessions,
                                       idle_timeout=idle_timeout)
        self.metrics = ServerMetrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._handlers: Dict[asyncio.Task, None] = {}
        self._reaper: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "InstantDBServer":
        # Pin the engine to the loop thread: from here until stop(), any
        # engine entry off this thread is a confinement violation (enforced
        # at runtime under REPRO_DEBUG_INVARIANTS=1).
        invariants.register_engine_thread(self.engine)
        self._server = await asyncio.start_server(self._handle_client,
                                                  self.host, self.port)
        if self.sessions.idle_timeout is not None:
            self._reaper = asyncio.ensure_future(self._reap_idle_sessions())
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self, drain: bool = True, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, then close everything."""
        self._closing = True
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + drain_timeout
            while (time.monotonic() < deadline
                   and any(not conn.settled
                           for conn in self._connections.values())):
                await asyncio.sleep(0.01)
        for conn in list(self._connections.values()):
            conn.force_close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self.owns_engine:
            self.engine.close()
        invariants.unregister_engine_thread(self.engine)

    # -- connection handling ---------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = None
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._handlers.pop(task, None)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = None if self._closing else self.sessions.open(peer)
        if session is None:
            self.metrics.sessions_rejected += 1
            if self._closing:
                error_class, reason = "OperationalError", "server is shutting down"
            else:
                # Typed retryable shed: the driver backs off and redials.
                error_class = "OverloadError"
                reason = (f"server at capacity ({self.sessions.max_sessions} "
                          "sessions); retry after a backoff")
            try:
                await self._write_frame(writer, protocol.ERROR, {
                    "error_class": error_class, "message": reason,
                    "in_txn": False,
                })
            except ConnectionError:
                pass  # the peer (or an injected fault) already dropped the link
            writer.close()
            return
        transport = writer.transport
        if transport is not None:
            transport.set_write_buffer_limits(high=self.write_buffer_limit)
        self.metrics.sessions_opened += 1
        self.metrics.active_sessions = len(self.sessions)
        conn = _Connection(session, reader, writer)
        self._connections[session.session_id] = conn
        try:
            await self._serve_requests(conn)
        finally:
            self._connections.pop(session.session_id, None)
            try:
                had_txn = self.sessions.close(session)
            except Error:
                # The rollback of the disconnected session hit a failing
                # device; the engine has already degraded to read-only and
                # there is no client left to surface this to.
                self.metrics.session_close_failures += 1
                had_txn = True
            if had_txn and not conn.said_goodbye:
                self.metrics.disconnects_with_open_txn += 1
            self.metrics.sessions_closed += 1
            if conn.reaped:
                self.metrics.sessions_reaped += 1
            self.metrics.active_sessions = len(self.sessions)
            conn.force_close()

    async def _serve_requests(self, conn: _Connection) -> None:
        """Read a frame, serve it, write the reply; repeat until the end."""
        while True:
            try:
                frame = await self._read_frame(conn)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            except ProtocolError as error:
                self.metrics.protocol_errors += 1
                try:
                    await self._write_error(conn, error)
                except ConnectionError:
                    pass  # the peer is gone; teardown follows either way
                return
            if frame is None:
                return
            conn.busy = True
            try:
                if await self._dispatch(conn, *frame):
                    return
            except ConnectionError:
                return
            finally:
                conn.busy = False

    async def _read_frame(self, conn: _Connection) -> Optional[Tuple[int, Any]]:
        """The next request frame, or ``None`` once an injected fault has
        killed the inbound stream (the session then tears down as on EOF)."""
        if self.faults is not None:
            event = self.faults.fire("server.recv")
            if event is not None:
                if event.kind != "stall":   # disconnect / truncate
                    conn.force_close()
                    return None
                await asyncio.sleep(float(event.param("seconds", 0.05)))
        prefix = await conn.reader.readexactly(4)
        length = protocol.parse_frame_length(prefix)
        body = await conn.reader.readexactly(length)
        return protocol.decode_frame_body(body)

    # -- request dispatch ------------------------------------------------------

    async def _dispatch(self, conn: _Connection, frame_type: int,
                        payload: Any) -> bool:
        """Handle one request; returns True when the connection should end."""
        session = conn.session
        session.touch()
        if frame_type == protocol.HELLO:
            return await self._handle_hello(conn, payload)
        if not conn.greeted:
            self.metrics.protocol_errors += 1
            await self._write_error(conn, ProtocolError(
                "handshake required before any other frame"))
            return True
        if frame_type == protocol.GOODBYE:
            conn.said_goodbye = True
            await self._write_frame(conn.writer, protocol.OK,
                                    {"in_txn": False})
            return True
        if frame_type == protocol.METRICS:
            snapshot = self.metrics.snapshot()
            snapshot["in_txn"] = session.in_transaction
            await self._write_frame(conn.writer, protocol.OK, snapshot)
            return False
        try:
            handler = _ENGINE_FRAMES[frame_type]
        except KeyError:
            self.metrics.protocol_errors += 1
            await self._write_error(conn, ProtocolError(
                f"unknown frame type 0x{frame_type:02X}"))
            return True
        failure: Optional[Exception] = None
        started = time.perf_counter()
        try:
            reply_type, reply = handler(self, session, payload)
        except Exception as error:  # engine invariant failures too — don't hide them
            failure = error
        if (self.statement_timeout is not None
                and frame_type in _TIMED_FRAMES
                and time.perf_counter() - started > self.statement_timeout):
            # Checked once the call returns (an engine call cannot be
            # interrupted); teardown then rolls the transaction back.
            self.metrics.statement_timeouts += 1
            await self._write_error(conn, StatementTimeoutError(
                f"statement exceeded the {self.statement_timeout:g}s budget; "
                "the session is closed and its transaction rolled back"))
            return True
        if isinstance(failure, ProtocolError):
            self.metrics.protocol_errors += 1
            await self._write_error(conn, failure)
            return True
        if failure is not None:
            self.metrics.errors += 1
            await self._write_error(conn, failure)
            return False
        reply["in_txn"] = session.in_transaction
        await self._write_frame(conn.writer, reply_type, reply)
        return False

    async def _handle_hello(self, conn: _Connection, payload: Any) -> bool:
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != protocol.PROTOCOL_VERSION:
            self.metrics.protocol_errors += 1
            await self._write_error(conn, ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(server speaks {protocol.PROTOCOL_VERSION})"))
            return True
        conn.greeted = True
        await self._write_frame(conn.writer, protocol.OK, {
            "version": protocol.PROTOCOL_VERSION,
            "session": conn.session.session_id,
            "server": "instantdb",
            "in_txn": False,
        })
        return False

    # -- engine-backed frames (run inline on the loop thread) ------------------

    def _do_execute(self, session: Session,
                    payload: Any) -> Tuple[int, Dict[str, Any]]:
        sql, params = _require(payload, "sql"), payload.get("params")
        started = time.perf_counter()
        try:
            reply = session.execute(sql, params, payload.get("purpose"),
                                    prefetch=self.prefetch)
        finally:
            self.metrics.record_statement(time.perf_counter() - started)
        return protocol.RESULT, reply

    def _do_executemany(self, session: Session,
                        payload: Any) -> Tuple[int, Dict[str, Any]]:
        sql = _require(payload, "sql")
        seq = _require(payload, "params_seq")
        started = time.perf_counter()
        try:
            reply = session.executemany(sql, seq)
        finally:
            self.metrics.record_statement(time.perf_counter() - started)
        return protocol.RESULT, reply

    def _do_fetch(self, session: Session,
                  payload: Any) -> Tuple[int, Dict[str, Any]]:
        cursor_id = _require(payload, "cursor")
        return protocol.ROWS, session.fetch(cursor_id, payload.get("n", 1))

    def _do_close_cursor(self, session: Session,
                         payload: Any) -> Tuple[int, Dict[str, Any]]:
        session.close_cursor(_require(payload, "cursor"))
        return protocol.OK, {}

    def _do_begin(self, session: Session,
                  payload: Any) -> Tuple[int, Dict[str, Any]]:
        session.begin()
        return protocol.OK, {}

    def _do_commit(self, session: Session,
                   payload: Any) -> Tuple[int, Dict[str, Any]]:
        session.commit()
        return protocol.OK, {}

    def _do_rollback(self, session: Session,
                     payload: Any) -> Tuple[int, Dict[str, Any]]:
        session.rollback()
        return protocol.OK, {}

    # -- idle reaper -----------------------------------------------------------

    async def _reap_idle_sessions(self) -> None:
        assert self.sessions.idle_timeout is not None
        interval = max(0.01, self.sessions.idle_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            for session in self.sessions.idle_sessions():
                conn = self._connections.get(session.session_id)
                if conn is not None and conn.settled:
                    conn.reaped = True
                    conn.force_close()

    # -- frame output ----------------------------------------------------------

    async def _write_frame(self, writer: asyncio.StreamWriter,
                           frame_type: int, payload: Any) -> None:
        data = protocol.encode_frame(frame_type, payload)
        if self.faults is not None:
            event = self.faults.fire("server.send")
            if event is not None:
                if event.kind == "stall":
                    await asyncio.sleep(float(event.param("seconds", 0.05)))
                elif event.kind == "truncate":
                    # Half a reply frame, then a dead transport: the client
                    # must treat the short read as poison, never resync.
                    writer.write(data[:max(1, len(data) // 2)])
                    writer.close()
                    raise ConnectionResetError("injected: reply truncated")
                else:  # disconnect
                    writer.close()
                    raise ConnectionResetError("injected: connection dropped")
        writer.write(data)
        await writer.drain()

    async def _write_error(self, conn: _Connection, error: Exception) -> None:
        await self._write_frame(conn.writer, protocol.ERROR, {
            "error_class": type(error).__name__,
            "message": str(error),
            "in_txn": conn.session.in_transaction,
        })


def _require(payload: Any, key: str) -> Any:
    if not isinstance(payload, dict) or key not in payload:
        raise ProtocolError(f"request payload is missing {key!r}")
    return payload[key]


#: Frames covered by ``statement_timeout`` (the ones that run engine work of
#: unbounded size; BEGIN/COMMIT/ROLLBACK are small and must not be cut short).
_TIMED_FRAMES = frozenset({protocol.EXECUTE, protocol.EXECUTEMANY,
                           protocol.FETCH})

_ENGINE_FRAMES: Dict[int, Callable[..., Tuple[int, Dict[str, Any]]]] = {
    protocol.EXECUTE: InstantDBServer._do_execute,
    protocol.EXECUTEMANY: InstantDBServer._do_executemany,
    protocol.FETCH: InstantDBServer._do_fetch,
    protocol.CLOSE_CURSOR: InstantDBServer._do_close_cursor,
    protocol.BEGIN: InstantDBServer._do_begin,
    protocol.COMMIT: InstantDBServer._do_commit,
    protocol.ROLLBACK: InstantDBServer._do_rollback,
}


async def _call(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class ServerThread:
    """Run an :class:`InstantDBServer` on a background event-loop thread.

    The test and benchmark harness for the serving layer: ``start()`` blocks
    until the socket is listening, ``address`` is the live ``(host, port)``,
    ``submit(fn)`` runs ``fn`` on the loop thread serialized with client
    statements (e.g. ``advance_time`` to fire a degradation wave mid-load),
    and ``stop()`` performs the drain shutdown.
    """

    def __init__(self, engine: InstantDB, host: str = "127.0.0.1",
                 port: int = 0, **server_kwargs: Any) -> None:
        import threading
        self.server = InstantDBServer(engine, host, port, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="instantdb-server")
        self._stopped = False

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._loop is None:
            raise RuntimeError("server thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(self.server.start())
        self._loop = loop
        self._ready.set()
        loop.run_forever()
        loop.close()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the server's loop thread and return its result.

        The call is serialized with client statements: it runs between two
        frames, never inside one.
        """
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(_call(fn, *args), self._loop)
        return future.result(timeout=30)

    def metrics(self) -> Dict[str, Any]:
        return self.server.metrics.snapshot()

    def stop(self, drain: bool = True) -> None:
        if self._stopped or self._loop is None:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), self._loop)
        future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


__all__ = ["InstantDBServer", "ServerThread", "DEFAULT_WRITE_LIMIT"]
