"""Remote PEP 249 driver: the wire-protocol twin of :mod:`repro.api`.

``repro.client.connect(host, port)`` returns a connection with the *same*
DB-API 2.0 surface as the in-process ``repro.connect()`` — qmark parameters,
lazy implicit transactions, streaming fetch-N cursors, purpose scoping per
connection or per statement — except the engine lives behind an
:class:`~repro.server.server.InstantDBServer` socket.

Result sets stay server-side: ``EXECUTE`` replies carry an initial prefetch
batch and a cursor id, and the cursor pulls the rest in ``FETCH`` batches,
so a large SELECT costs the client only the rows it actually reads.  Server
errors arrive as typed frames carrying the exception class name, re-raised
here as the matching :mod:`repro.core.errors` class — a remote
``TransactionAborted`` is catchable exactly like a local one.

Failure handling
----------------

* A transport failure **mid-frame** (``socket.timeout``, short read, reset)
  leaves the byte stream undelimitable: the connection is *poisoned* — the
  failing call raises ``OperationalError``, and every later call raises a
  typed :class:`~repro.core.errors.ConnectionPoisonedError` instead of
  misreading resynchronized garbage.
* When the failure strikes **at a transaction boundary** (no open
  transaction, so nothing uncommitted can be half-replayed), the driver
  transparently redials with bounded exponential backoff plus seeded jitter
  and replays the one in-flight request on a fresh session.  Mid-transaction
  failures are never replayed — the application owns the transaction retry.
* Typed retryable server errors (``OverloadError`` admission shedding,
  ``StatementTimeoutError``) take the same backoff-and-redial path under the
  same boundary rule.
"""

from __future__ import annotations

import random
import socket
import time
from functools import partial
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..api.session import (
    DEFAULT_PREFETCH,
    BaseConnection,
    BaseCursor,
    PurposeSpec,
    ResultSet,
    Row,
)
from ..core import errors as _errors
from ..core.errors import (
    ConnectionPoisonedError,
    InterfaceError,
    OperationalError,
    ParameterError,
)
from ..faults import FaultPlan
from ..query.parameters import check_parameter
from ..server import protocol

#: Default bound on transparent redials per request (at txn boundaries only).
DEFAULT_RETRIES = 2

#: Base backoff before the first redial; doubles per attempt, plus jitter.
DEFAULT_BACKOFF = 0.05

#: The terminal reply frames a well-behaved server may answer with.  A reply
#: outside this set means the stream is out of sync (or the peer is not an
#: InstantDB server) — the connection is dropped rather than misread.
_REPLY_FRAMES = frozenset({protocol.OK, protocol.RESULT, protocol.ROWS,
                           protocol.ERROR})

#: PEP 249 module globals (mirrors :mod:`repro.api.connection`).
apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


def _dial(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as error:
        raise OperationalError(
            f"cannot connect to instantdb server at {host}:{port}: "
            f"{error}") from error
    sock.settimeout(timeout)
    return sock


def connect(host: str = "127.0.0.1", port: int = 5433, *,
            purpose: PurposeSpec = None,
            timeout: Optional[float] = 30.0,
            retries: int = DEFAULT_RETRIES,
            retry_backoff: float = DEFAULT_BACKOFF,
            retry_seed: Optional[int] = None,
            fault_plan: Optional[FaultPlan] = None) -> "RemoteConnection":
    """Open a PEP 249 connection to a running InstantDB server.

    ``retries`` bounds the transparent redials the driver performs when a
    request fails at a transaction boundary (transport loss or a typed
    retryable server error); ``retry_backoff`` is the base delay, doubled
    per attempt with jitter drawn from a ``retry_seed``-seeded RNG so chaos
    runs replay deterministically.  ``fault_plan`` arms the ``client.send``
    / ``client.recv`` injection sites.
    """
    return RemoteConnection(_dial(host, port, timeout), purpose=purpose,
                            host=host, port=port, timeout=timeout,
                            retries=retries, retry_backoff=retry_backoff,
                            retry_seed=retry_seed, fault_plan=fault_plan)


def _check_params(params: Any) -> List[Any]:
    """Validate parameters client-side with the engine's own rules, so a bad
    value raises the same :class:`ParameterError` (an ``InterfaceError``)
    before anything crosses the wire."""
    if isinstance(params, (str, bytes)):
        raise ParameterError(
            "parameters must be a sequence of values, not a bare string")
    return [check_parameter(value) for value in params]


def _resolve_error(class_name: Any, message: Any) -> Exception:
    """Rebuild a server-side exception from its wire form."""
    text = str(message)
    candidate = getattr(_errors, str(class_name), None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        return candidate(text)
    if class_name == "ProtocolError":
        return OperationalError(text)
    return _errors.DatabaseError(f"{class_name}: {text}")


class _TransportFailure(Exception):
    """Internal: the socket died (or timed out) during one exchange."""

    def __init__(self, reason: str, cause: Optional[BaseException]) -> None:
        super().__init__(reason)
        self.reason = reason
        self.cause = cause


class RemoteConnection(BaseConnection):
    """A PEP 249 connection whose transaction lives in a server session."""

    def __init__(self, sock: socket.socket, purpose: PurposeSpec = None, *,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: Optional[float] = 30.0,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_BACKOFF,
                 retry_seed: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self._sock: Optional[socket.socket] = sock
        self._purpose = purpose
        self._closed = False
        self._in_txn = False
        self._poisoned: Optional[str] = None
        self._address = ((host, port) if host is not None and port is not None
                         else None)
        self._timeout = timeout
        self._retries = max(0, retries)
        self._backoff = retry_backoff
        self._rng = random.Random(retry_seed)
        self.faults = fault_plan
        #: Transparent redials performed (observable by retry/chaos tests).
        self.reconnects = 0
        self.session_id: Optional[int] = None
        self._handshake()

    def _handshake(self) -> None:
        # Straight through _exchange: a handshake failure on a redial must
        # surface to the retry loop driving it, not recurse into _request.
        try:
            _, reply = self._exchange(protocol.HELLO, {
                "version": protocol.PROTOCOL_VERSION,
                "client": "repro-client",
            })
        except _TransportFailure as failure:
            raise OperationalError(failure.reason) from failure.cause
        self.session_id = reply.get("session")

    # -- wire I/O ------------------------------------------------------------

    def _send(self, frame_type: int, payload: Any) -> None:
        assert self._sock is not None
        data = protocol.encode_frame(frame_type, payload)
        try:
            if self.faults is not None:
                event = self.faults.fire("client.send")
                if event is not None:
                    if event.kind == "stall":
                        time.sleep(float(event.param("seconds", 0.05)))
                    elif event.kind == "truncate":
                        self._sock.sendall(data[:max(1, len(data) // 2)])
                        raise ConnectionResetError(
                            "injected: request truncated mid-frame")
                    else:  # disconnect
                        raise ConnectionResetError(
                            "injected: connection dropped before send")
            self._sock.sendall(data)
        except OSError as error:
            self._drop()
            raise _TransportFailure(
                f"lost connection to server: {error}", error) from error

    def _read_exact(self, n: int) -> bytes:
        assert self._sock is not None
        chunks: List[bytes] = []
        remaining = n
        while remaining:
            try:
                if self.faults is not None:
                    event = self.faults.fire("client.recv")
                    if event is not None:
                        if event.kind == "stall":
                            time.sleep(float(event.param("seconds", 0.05)))
                        else:  # disconnect / truncate mid-frame
                            raise ConnectionResetError(
                                "injected: connection lost mid-frame")
                chunk = self._sock.recv(remaining)
            except socket.timeout as error:
                self._drop()
                raise _TransportFailure("server reply timed out", error) \
                    from error
            except OSError as error:
                self._drop()
                raise _TransportFailure(
                    f"lost connection to server: {error}", error) from error
            if not chunk:
                self._drop()
                raise _TransportFailure("server closed the connection", None)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _exchange(self, frame_type: int, payload: Any) -> Tuple[int, Any]:
        """One raw request/reply; raises the mapped server error or
        :class:`_TransportFailure` (socket already dropped)."""
        self._send(frame_type, payload)
        prefix = self._read_exact(4)
        length = protocol.parse_frame_length(prefix)
        reply_type, reply = protocol.decode_frame_body(self._read_exact(length))
        if reply_type not in _REPLY_FRAMES:
            name = protocol.FRAME_NAMES.get(reply_type, hex(reply_type))
            self._drop()
            raise _TransportFailure(
                f"server sent unexpected {name} frame where a reply was "
                "expected; closing the out-of-sync connection", None)
        if isinstance(reply, dict) and "in_txn" in reply:
            self._in_txn = bool(reply["in_txn"])
        if reply_type == protocol.ERROR:
            raise _resolve_error(reply.get("error_class"),
                                 reply.get("message"))
        return reply_type, reply

    def _can_replay(self, frame_type: int) -> bool:
        """Whether the in-flight request may ride a transparent redial.

        Only at a transaction boundary: with no transaction open, anything
        the lost session half-did was rolled back by the server on
        disconnect, so replaying the single request cannot double-apply.
        FETCH / CLOSE_CURSOR refer to server cursor state that died with the
        session and are never replayed.
        """
        return (self._address is not None
                and self._retries > 0
                and not self._in_txn
                and frame_type not in (protocol.FETCH, protocol.CLOSE_CURSOR))

    def _request(self, frame_type: int, payload: Any) -> Tuple[int, Any]:
        """One request/reply exchange with boundary-bounded redial."""
        if self._poisoned is not None:
            raise ConnectionPoisonedError(self._poisoned)
        if self._sock is None:
            raise InterfaceError("connection is closed")
        replayable = self._can_replay(frame_type)
        attempts = 0
        while True:
            try:
                if self._sock is None:
                    raise _TransportFailure("connection is down", None)
                return self._exchange(frame_type, payload)
            except _TransportFailure as error:
                if not replayable or attempts >= self._retries:
                    self._poison(error.reason)
                    raise OperationalError(error.reason) from error.cause
            except _errors.RetryableError:
                # Typed server-side shed (overload, statement timeout): the
                # server closed or will close the session; redial cleanly.
                self._drop()
                if not replayable or attempts >= self._retries:
                    raise
            attempts += 1
            self._sleep_backoff(attempts)
            try:
                self._reconnect()
            except OperationalError:
                if attempts >= self._retries:
                    self._poisoned = ("reconnect failed after "
                                      f"{attempts} attempt(s)")
                    raise

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self._backoff * (2 ** (attempt - 1))
        time.sleep(delay * (1.0 + self._rng.random()))

    def _reconnect(self) -> None:
        host, port = self._address  # type: ignore[misc]
        self._drop()
        self._sock = _dial(host, port, self._timeout)
        self._poisoned = None
        self.reconnects += 1
        self._handshake()

    def _poison(self, reason: str) -> None:
        """Mark the connection unusable: part of a frame was consumed (or the
        outcome of a sent request is unknown) and the stream cannot be
        re-delimited.  Later calls raise ConnectionPoisonedError."""
        self._drop()
        self._poisoned = (f"connection poisoned by an earlier failure "
                          f"({reason}); reconnect to continue")

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # reprolint: disable=no-swallowed-io-error -- socket already dead; close is best-effort
                pass
            self._sock = None
        self._in_txn = False

    # -- connection surface (with BaseConnection, that of repro.api.Connection)

    def _check_open(self) -> None:
        if not self._closed and self._poisoned is not None:
            raise ConnectionPoisonedError(self._poisoned)
        if self._closed or self._sock is None:
            raise InterfaceError("connection is closed")

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    def begin(self) -> None:
        """Eagerly open the session's transaction (statements do it lazily)."""
        self._check_open()
        self._request(protocol.BEGIN, {})

    def commit(self) -> None:
        """Commit the open transaction (no-op when nothing is pending)."""
        self._check_open()
        self._request(protocol.COMMIT, {})

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when nothing is pending)."""
        self._check_open()
        self._request(protocol.ROLLBACK, {})

    def metrics(self) -> dict:
        """The server's metrics snapshot (sessions, latency quantiles, ...)."""
        self._check_open()
        _, reply = self._request(protocol.METRICS, {})
        return reply

    def close(self) -> None:
        """Roll back any pending transaction and end the server session."""
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                if self._in_txn:
                    self._request(protocol.ROLLBACK, {})
                self._request(protocol.GOODBYE, {})
            except Exception:  # reprolint: disable=no-swallowed-abort -- best-effort goodbye; the socket is dropped either way
                pass
            self._drop()

    # -- cursors -------------------------------------------------------------

    def cursor(self) -> "RemoteCursor":
        self._check_open()
        return RemoteCursor(self)

    def _fetch(self, cursor_id: int, n: int) -> Tuple[List[Row], bool]:
        """A result set's row source: one FETCH round trip, never for less
        than a prefetch batch — a caller reading row by row must not pay a
        round trip per row."""
        _, reply = self._request(protocol.FETCH, {
            "cursor": cursor_id,
            "n": max(n, DEFAULT_PREFETCH),
        })
        return ([tuple(row) for row in reply.get("rows", [])],
                bool(reply.get("done")))

    def _close_cursor(self, cursor_id: int) -> None:
        """Release a server cursor abandoned before its end (best effort:
        the server reaps it with the session anyway)."""
        if self._closed or self._sock is None:
            return
        try:
            self._request(protocol.CLOSE_CURSOR, {"cursor": cursor_id})
        except Exception:  # reprolint: disable=no-swallowed-abort -- best-effort release; server reaps the cursor with the session
            pass


class RemoteCursor(BaseCursor):
    """The remote cursor: statements cross the wire as EXECUTE / EXECUTEMANY
    frames, and the result set refills from its server cursor by FETCH."""

    def _send(self, sql: str, params: Sequence[Any],
              purpose: PurposeSpec) -> Tuple[Optional[ResultSet], int]:
        connection: RemoteConnection = self.connection
        _, reply = connection._request(protocol.EXECUTE, {
            "sql": sql,
            "params": _check_params(params),
            "purpose": protocol.encode_purpose(purpose),
        })
        if "columns" not in reply:
            return None, reply.get("rowcount", -1)
        rows = [tuple(row) for row in reply.get("rows", [])]
        if reply.get("done", True):
            return ResultSet(reply["columns"], rows), -1
        cursor_id = reply.get("cursor")
        return ResultSet(reply["columns"], rows,
                         more=partial(connection._fetch, cursor_id),
                         release=partial(connection._close_cursor,
                                         cursor_id)), -1

    def _send_many(self, sql: str,
                   seq_of_params: Iterable[Sequence[Any]]) -> int:
        _, reply = self.connection._request(protocol.EXECUTEMANY, {
            "sql": sql,
            "params_seq": [_check_params(params) for params in seq_of_params],
        })
        return reply.get("rowcount", -1)


__all__ = ["connect", "RemoteConnection", "RemoteCursor",
           "apilevel", "threadsafety", "paramstyle"]
