"""The asyncio wire server: admission, backpressure, and engine multiplexing.

Concurrency model
-----------------

* One **reader task** per connection parses length-prefixed frames and feeds
  a bounded :class:`asyncio.Queue`.  When the queue is full the reader stops
  reading, the kernel's receive window fills, and the client blocks — the
  bounded queue *is* the backpressure mechanism, end to end over TCP.
* One **worker task** per connection drains the queue, runs each request,
  and writes the reply.  Replies go through ``writer.drain()`` under a small
  write-buffer limit, so a slow-reading client throttles its own worker
  instead of buffering unbounded replies in server memory.
* All engine access — statements, commits, rollbacks, fetch-N pulls on live
  streams, and session teardown — funnels through a **single-thread
  executor**.  The engine is lock-based and single-writer; serializing every
  session's engine work on one thread multiplexes many network clients over
  it safely while the degradation daemon keeps firing between statements.
  Cross-session conflicts surface exactly as in-process: as
  ``TransactionAborted`` error frames.

Admission is a hard cap: past ``max_sessions`` concurrent sessions a new
connection is shed with a typed, *retryable* ``OverloadError`` frame before
any session state is allocated (the remote driver backs off and retries).
An optional idle reaper rolls back and closes sessions that have gone quiet
for longer than ``idle_timeout`` seconds.

Overload and fault hardening
----------------------------

* ``statement_timeout`` bounds every EXECUTE / EXECUTEMANY / FETCH: past the
  budget the client gets a retryable ``StatementTimeoutError`` frame and the
  connection closes — the engine thread cannot be interrupted mid-statement,
  so the reply races ahead of it and session teardown (queued on the same
  executor) rolls the transaction back once the statement finishes.
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
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..core.errors import Error, InstantDBError, OperationalError, StatementTimeoutError
from ..devtools import invariants
from ..engine.database import InstantDB
from ..faults import FaultPlan
from . import protocol
from .metrics import ServerMetrics
from .protocol import ProtocolError
from .sessions import DEFAULT_PREFETCH, Session, SessionManager

#: Frames a connection may queue before the reader stops reading.
DEFAULT_QUEUE_SIZE = 32

#: High-water mark for a connection's outgoing buffer; ``drain()`` blocks
#: the worker past this, throttling replies to slow clients.
DEFAULT_WRITE_LIMIT = 256 * 1024

_EOF = None


class _Connection:
    """Per-connection plumbing: the queue between reader and worker."""

    def __init__(self, session: Session, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, queue_size: int) -> None:
        self.session = session
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.busy = False
        self.greeted = False
        self.said_goodbye = False
        self.reaped = False

    @property
    def settled(self) -> bool:
        return self.queue.empty() and not self.busy

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
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 prefetch: int = DEFAULT_PREFETCH,
                 write_buffer_limit: int = DEFAULT_WRITE_LIMIT,
                 statement_timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 owns_engine: bool = False) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.prefetch = prefetch
        self.queue_size = queue_size
        self.write_buffer_limit = write_buffer_limit
        self.statement_timeout = statement_timeout
        self.faults = fault_plan
        self.owns_engine = owns_engine
        self.sessions = SessionManager(engine, max_sessions=max_sessions,
                                       idle_timeout=idle_timeout)
        self.metrics = ServerMetrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: Dict[int, _Connection] = {}
        self._handlers: Dict[asyncio.Task, None] = {}
        self._reaper: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "InstantDBServer":
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="instantdb-engine")
        # Pin the engine to the executor thread: from here until stop(), any
        # engine entry off this thread is a confinement violation (enforced
        # at runtime under REPRO_DEBUG_INVARIANTS=1).
        self._executor.submit(invariants.register_engine_thread,
                              self.engine).result()
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
        if self.owns_engine and self._executor is not None:
            # Close on the executor: the engine is still pinned to it.
            await self.run_on_engine(self.engine.close)
        invariants.unregister_engine_thread(self.engine)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def run_on_engine(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` on the engine executor, serialized with all statements.

        Test and benchmark harnesses use this to drive the simulated clock
        (degradation waves) safely between client statements.
        """
        assert self._executor is not None, "server is not running"
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

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
        conn = _Connection(session, reader, writer, self.queue_size)
        self._connections[session.session_id] = conn
        reader_task = asyncio.ensure_future(self._read_frames(conn))
        try:
            await self._serve_requests(conn)
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):  # reprolint: disable=no-swallowed-abort -- reader is cancelled; session teardown below must still run
                pass
            self._connections.pop(session.session_id, None)
            try:
                had_txn = await self.run_on_engine(self.sessions.close, session)
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

    async def _read_frames(self, conn: _Connection) -> None:
        """Parse frames off the socket into the bounded per-session queue."""
        try:
            while True:
                if self.faults is not None:
                    event = self.faults.fire("server.recv")
                    if event is not None:
                        if event.kind == "stall":
                            await asyncio.sleep(
                                float(event.param("seconds", 0.05)))
                        else:
                            # disconnect / truncate: the inbound stream dies
                            # mid-frame; the session tears down as on EOF.
                            conn.force_close()
                            await conn.queue.put(_EOF)
                            return
                prefix = await conn.reader.readexactly(4)
                length = protocol.parse_frame_length(prefix)
                body = await conn.reader.readexactly(length)
                frame_type, payload = protocol.decode_frame_body(body)
                await conn.queue.put(("frame", frame_type, payload))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            await conn.queue.put(_EOF)
        except ProtocolError as error:
            await conn.queue.put(("protocol_error", error, None))

    async def _serve_requests(self, conn: _Connection) -> None:
        while True:
            item = await conn.queue.get()
            self.metrics.queue_depth = conn.queue.qsize()
            if item is _EOF:
                return
            kind, first, second = item
            conn.busy = True
            try:
                if kind == "protocol_error":
                    self.metrics.protocol_errors += 1
                    await self._write_error(conn, first)
                    return
                done = await self._dispatch(conn, first, second)
                if done:
                    return
            except ConnectionError:
                return
            finally:
                conn.busy = False

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
            self.metrics.queue_depth = sum(
                c.queue.qsize() for c in self._connections.values())
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
        try:
            if (self.statement_timeout is not None
                    and frame_type in _TIMED_FRAMES):
                reply_type, reply = await asyncio.wait_for(
                    handler(self, session, payload),
                    timeout=self.statement_timeout)
            else:
                reply_type, reply = await handler(self, session, payload)
        except asyncio.TimeoutError:
            # The engine thread cannot be interrupted mid-statement: reply
            # now, close the connection, and let session teardown (queued on
            # the same executor) roll the transaction back once the statement
            # finishes.  Retrying from the transaction start is then safe.
            self.metrics.statement_timeouts += 1
            await self._write_error(conn, StatementTimeoutError(
                f"statement exceeded the {self.statement_timeout:g}s budget; "
                "the session is closed and its transaction rolled back"))
            return True
        except ProtocolError as error:
            self.metrics.protocol_errors += 1
            await self._write_error(conn, error)
            return True
        except InstantDBError as error:
            self.metrics.errors += 1
            await self._write_error(conn, error)
            return False
        except Exception as error:  # engine invariant failure — don't hide it
            self.metrics.errors += 1
            await self._write_error(conn, error)
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

    # -- engine-backed frames (run on the engine executor) ---------------------

    async def _do_execute(self, session: Session,
                          payload: Any) -> Tuple[int, Dict[str, Any]]:
        sql, params = _require(payload, "sql"), payload.get("params")
        started = time.perf_counter()
        self.metrics.in_flight += 1
        try:
            reply = await self.run_on_engine(
                lambda: session.execute(sql, params, payload.get("purpose"),
                                        prefetch=self.prefetch))
        finally:
            self.metrics.in_flight -= 1
            self.metrics.record_statement(time.perf_counter() - started)
        return protocol.RESULT, reply

    async def _do_executemany(self, session: Session,
                              payload: Any) -> Tuple[int, Dict[str, Any]]:
        sql = _require(payload, "sql")
        seq = _require(payload, "params_seq")
        started = time.perf_counter()
        self.metrics.in_flight += 1
        try:
            reply = await self.run_on_engine(
                lambda: session.executemany(sql, seq))
        finally:
            self.metrics.in_flight -= 1
            self.metrics.record_statement(time.perf_counter() - started)
        return protocol.RESULT, reply

    async def _do_fetch(self, session: Session,
                        payload: Any) -> Tuple[int, Dict[str, Any]]:
        cursor_id = _require(payload, "cursor")
        count = payload.get("n", 1)
        reply = await self.run_on_engine(
            lambda: session.fetch(cursor_id, count))
        return protocol.ROWS, reply

    async def _do_close_cursor(self, session: Session,
                               payload: Any) -> Tuple[int, Dict[str, Any]]:
        cursor_id = _require(payload, "cursor")
        await self.run_on_engine(lambda: session.close_cursor(cursor_id))
        return protocol.OK, {}

    async def _do_begin(self, session: Session,
                        payload: Any) -> Tuple[int, Dict[str, Any]]:
        await self.run_on_engine(session.begin)
        return protocol.OK, {}

    async def _do_commit(self, session: Session,
                         payload: Any) -> Tuple[int, Dict[str, Any]]:
        await self.run_on_engine(session.commit)
        return protocol.OK, {}

    async def _do_rollback(self, session: Session,
                           payload: Any) -> Tuple[int, Dict[str, Any]]:
        await self.run_on_engine(session.rollback)
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

_ENGINE_FRAMES: Dict[int, Callable[..., Awaitable[Tuple[int, Dict[str, Any]]]]] = {
    protocol.EXECUTE: InstantDBServer._do_execute,
    protocol.EXECUTEMANY: InstantDBServer._do_executemany,
    protocol.FETCH: InstantDBServer._do_fetch,
    protocol.CLOSE_CURSOR: InstantDBServer._do_close_cursor,
    protocol.BEGIN: InstantDBServer._do_begin,
    protocol.COMMIT: InstantDBServer._do_commit,
    protocol.ROLLBACK: InstantDBServer._do_rollback,
}


class ServerThread:
    """Run an :class:`InstantDBServer` on a background event-loop thread.

    The test and benchmark harness for the serving layer: ``start()`` blocks
    until the socket is listening, ``address`` is the live ``(host, port)``,
    ``submit(fn)`` runs ``fn`` on the engine executor serialized with client
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
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.run_on_engine(fn, *args), self._loop)
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


__all__ = ["InstantDBServer", "ServerThread", "DEFAULT_QUEUE_SIZE",
           "DEFAULT_WRITE_LIMIT"]
