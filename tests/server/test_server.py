"""Serving-layer integration tests: sessions, isolation, failure modes.

Every test runs a real :class:`~repro.server.InstantDBServer` on a
background event-loop thread and talks to it over actual sockets — either
through the remote PEP 249 driver or, for the failure-mode tests, through a
raw socket speaking hand-built frames.
"""

import socket
import threading
import time

import pytest

from repro import InstantDB
from repro.client import connect
from repro.core.errors import (
    OperationalError,
    ProgrammingError,
    TransactionAborted,
)
from repro.server import ServerThread, protocol
from repro.server.sessions import Session

from ..conftest import build_engine


@pytest.fixture
def served():
    """A fresh engine served on an ephemeral port; stops on teardown."""
    engine = InstantDB()
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, val TEXT)")
    server = ServerThread(engine).start()
    yield engine, server
    server.stop(drain=False)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- raw socket helpers ----------------------------------------------------------


def raw_connect(address):
    sock = socket.create_connection(address, timeout=5)
    sock.settimeout(5)
    return sock


def send_frame(sock, frame_type, payload):
    sock.sendall(protocol.encode_frame(frame_type, payload))


def read_frame(sock):
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        if not chunk:
            raise ConnectionError("server closed the connection")
        prefix += chunk
    length = protocol.parse_frame_length(prefix)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("server closed the connection")
        body += chunk
    return protocol.decode_frame_body(body)


def hello(sock):
    send_frame(sock, protocol.HELLO,
               {"version": protocol.PROTOCOL_VERSION, "client": "raw"})
    frame_type, reply = read_frame(sock)
    assert frame_type == protocol.OK
    return reply


# -- handshake and admission ------------------------------------------------------


class TestHandshakeAndAdmission:
    def test_version_mismatch_is_rejected(self, served):
        _, server = served
        sock = raw_connect(server.address)
        send_frame(sock, protocol.HELLO, {"version": 99})
        frame_type, reply = read_frame(sock)
        assert frame_type == protocol.ERROR
        assert "version" in reply["message"]
        sock.close()

    def test_frames_before_handshake_are_rejected(self, served):
        _, server = served
        sock = raw_connect(server.address)
        send_frame(sock, protocol.EXECUTE, {"sql": "SELECT 1", "params": []})
        frame_type, reply = read_frame(sock)
        assert frame_type == protocol.ERROR
        assert "handshake" in reply["message"]
        sock.close()

    def test_capacity_cap_turns_connections_away(self):
        engine = InstantDB()
        server = ServerThread(engine, max_sessions=1).start()
        try:
            first = connect(*server.address)
            with pytest.raises(OperationalError, match="capacity"):
                connect(*server.address)
            assert server.metrics()["sessions_rejected"] == 1
            first.close()
            # a slot freed up: the next connection is admitted
            assert wait_until(lambda: len(server.server.sessions) == 0)
            second = connect(*server.address)
            second.close()
        finally:
            server.stop(drain=False)


# -- malformed and truncated frames ----------------------------------------------


class TestMalformedFrames:
    def test_oversize_length_prefix_gets_typed_error(self, served):
        _, server = served
        sock = raw_connect(server.address)
        sock.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        frame_type, reply = read_frame(sock)
        assert frame_type == protocol.ERROR
        assert reply["error_class"] == "ProtocolError"
        sock.close()

    def test_garbage_payload_gets_typed_error(self, served):
        _, server = served
        sock = raw_connect(server.address)
        body = bytes([protocol.HELLO]) + b"\xde\xad\xbe\xef"
        sock.sendall(len(body).to_bytes(4, "big") + body)
        frame_type, reply = read_frame(sock)
        assert frame_type == protocol.ERROR
        assert reply["error_class"] == "ProtocolError"
        sock.close()

    def test_truncated_frame_then_disconnect_leaves_server_healthy(self, served):
        engine, server = served
        sock = raw_connect(server.address)
        hello(sock)
        frame = protocol.encode_frame(protocol.EXECUTE,
                                      {"sql": "SELECT 1", "params": []})
        sock.sendall(frame[:7])                 # length promises more bytes
        sock.close()
        assert wait_until(lambda: len(server.server.sessions) == 0)
        # the server took no damage: a fresh client works end to end
        conn = connect(*server.address)
        conn.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
        conn.commit()
        assert conn.execute("SELECT COUNT(*) AS n FROM t").fetchall() == [(1,)]
        conn.close()

    def test_unknown_frame_type_gets_typed_error(self, served):
        _, server = served
        sock = raw_connect(server.address)
        hello(sock)
        send_frame(sock, 0x7F, {})
        frame_type, reply = read_frame(sock)
        assert frame_type == protocol.ERROR
        assert "unknown frame" in reply["message"]
        sock.close()


# -- concurrent sessions ----------------------------------------------------------


class TestConcurrentSessions:
    def test_sessions_have_independent_transactions(self, served):
        _, server = served
        one = connect(*server.address)
        two = connect(*server.address)
        one.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
        assert one.in_transaction
        assert not two.in_transaction
        # the engine's coarse locks abort a reader of a write-locked table
        # immediately — the conflict crosses the wire as TransactionAborted
        with pytest.raises(TransactionAborted):
            two.execute("SELECT * FROM t")
        one.commit()
        assert two.execute("SELECT val FROM t").fetchall() == [("a",)]
        one.close()
        two.close()

    def test_many_clients_in_parallel(self, served):
        engine, server = served
        errors = []

        def client_worker(worker_id):
            try:
                conn = connect(*server.address)
                for i in range(10):
                    while True:
                        try:
                            conn.execute("INSERT INTO t VALUES (?, ?)",
                                         (worker_id * 100 + i, "w"))
                            conn.commit()
                            break
                        except TransactionAborted:
                            conn.rollback()
                            time.sleep(0.001)
                conn.close()
            except Exception as error:          # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client_worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert engine.row_count("t") == 80
        assert server.metrics()["sessions_opened"] >= 8

    def test_per_session_cursors_are_independent(self, served):
        _, server = served
        conn = connect(*server.address)
        conn.cursor().executemany("INSERT INTO t VALUES (?, ?)",
                                  [(i, "x") for i in range(200)])
        conn.commit()
        a = conn.execute("SELECT id FROM t ORDER BY id")
        b = conn.execute("SELECT id FROM t ORDER BY id")
        # interleaved fetch-N on two server-side cursors of one session
        assert a.fetchmany(100) == [(i,) for i in range(100)]
        assert b.fetchone() == (0,)
        assert a.fetchmany(100) == [(i,) for i in range(100, 200)]
        assert b.fetchmany(199) == [(i,) for i in range(1, 200)]
        assert a.fetchone() is None
        conn.close()


# -- expiry waves under concurrent load -------------------------------------------


class TestExpiryWaves:
    def test_degradation_is_visible_over_the_wire(self):
        engine = build_engine()
        engine.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city "
                       "FOR person.location")
        server = ServerThread(engine).start()
        try:
            conn = connect(*server.address, purpose="service")
            conn.execute("INSERT INTO person (id, location) VALUES (?, ?)",
                         (1, "1 Main Street, Paris"))
            conn.commit()
            # fire the degradation wave *on the loop thread*, serialized
            # with client statements exactly like a production timer would be
            server.submit(lambda: engine.advance_time(hours=2))
            assert conn.execute("SELECT location FROM person").fetchall() == \
                [("Paris",)]
            conn.close()
        finally:
            server.stop(drain=False)

    def test_interleaved_clients_survive_expiry_waves(self):
        engine = build_engine()
        engine.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city "
                       "FOR person.location")
        server = ServerThread(engine).start()
        errors = []
        stop = threading.Event()

        def client_worker(worker_id):
            try:
                conn = connect(*server.address, purpose="service")
                for i in range(25):
                    try:
                        conn.execute(
                            "INSERT INTO person (id, location) VALUES (?, ?)",
                            (worker_id * 1000 + i, "1 Main Street, Paris"))
                        conn.commit()
                        conn.execute("SELECT COUNT(*) AS n FROM person"
                                     ).fetchall()
                    except TransactionAborted:
                        conn.rollback()
                conn.close()
            except Exception as error:          # pragma: no cover
                errors.append(error)

        def wave_worker():
            while not stop.is_set():
                server.submit(lambda: engine.advance_time(minutes=30))
                time.sleep(0.005)

        clients = [threading.Thread(target=client_worker, args=(n,))
                   for n in range(4)]
        waves = threading.Thread(target=wave_worker)
        for thread in clients:
            thread.start()
        waves.start()
        for thread in clients:
            thread.join(timeout=60)
        stop.set()
        waves.join(timeout=10)
        try:
            assert errors == []
            # the engine survived interleaving and still answers queries
            # (on the loop thread: the server is still serving it)
            result = server.submit(
                engine.execute, "SELECT COUNT(*) AS n FROM person")
            assert result.rows[0][0] >= 0
        finally:
            server.stop(drain=False)


# -- the loop thread is the engine thread ------------------------------------------


class TestLoopThread:
    def test_submit_runs_on_the_servers_loop_thread(self, served):
        _, server = served
        name, ident = server.submit(
            lambda: (threading.current_thread().name, threading.get_ident()))
        assert name == "instantdb-server"
        assert ident != threading.get_ident()

    def test_wave_lands_between_frames_of_an_open_cursor(self, monkeypatch):
        engine = build_engine()
        engine.execute("DECLARE PURPOSE service SET ACCURACY LEVEL city "
                       "FOR person.location")
        engine.executemany("INSERT INTO person (id, location) VALUES (?, ?)",
                           [(i, "1 Main Street, Paris") for i in range(300)])
        fetch = Session.fetch
        inside = []                    # non-empty while a FETCH is served
        waves = []                     # per wave: was a FETCH being served?

        def slow_fetch(self, cursor_id, n):
            inside.append(cursor_id)
            try:
                time.sleep(0.002)
                return fetch(self, cursor_id, n)
            finally:
                inside.pop()

        monkeypatch.setattr(Session, "fetch", slow_fetch)
        server = ServerThread(engine).start()
        opened, first_wave, done = (threading.Event(), threading.Event(),
                                    threading.Event())
        rows = []

        def reader():
            try:
                conn = connect(*server.address, purpose="service")
                cursor = conn.execute("SELECT id FROM person")
                rows.append(cursor.fetchone())
                opened.set()
                first_wave.wait(timeout=10)
                rows.extend(iter(cursor.fetchone, None))
                conn.close()
            finally:
                done.set()

        def wave():
            waves.append(bool(inside))
            engine.advance_time(minutes=30)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert opened.wait(timeout=10)
            server.submit(wave)            # the cursor is open, mid-stream
            first_wave.set()
            while not done.is_set():
                server.submit(wave)
            thread.join(timeout=10)
            assert len(rows) == 300
            assert waves and not any(waves)
        finally:
            server.stop(drain=False)


# -- disconnects, reaping, shutdown -----------------------------------------------


class TestFailureModes:
    def test_mid_statement_disconnect_rolls_back(self, served):
        engine, server = served
        sock = raw_connect(server.address)
        hello(sock)
        send_frame(sock, protocol.EXECUTE,
                   {"sql": "INSERT INTO t VALUES (?, ?)", "params": [1, "a"]})
        # vanish without reading the reply or committing
        sock.close()
        assert wait_until(
            lambda: server.metrics()["sessions_closed"] == 1)
        assert engine.row_count("t") == 0       # uncommitted work discarded
        assert server.metrics()["disconnects_with_open_txn"] == 1

    def test_idle_sessions_are_reaped(self):
        engine = InstantDB()
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        server = ServerThread(engine, idle_timeout=0.05).start()
        try:
            conn = connect(*server.address)
            conn.execute("INSERT INTO t VALUES (?)", (1,))
            assert wait_until(
                lambda: server.metrics()["sessions_reaped"] == 1)
            # the reap rolled back the abandoned transaction
            assert engine.row_count("t") == 0
            with pytest.raises(OperationalError):
                conn.execute("SELECT 1")
        finally:
            server.stop(drain=False)

    def test_graceful_drain_shutdown(self):
        engine = InstantDB()
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        server = ServerThread(engine).start()
        conn = connect(*server.address)
        conn.execute("INSERT INTO t VALUES (?)", (1,))
        conn.commit()
        address = server.address
        server.stop(drain=True)
        # committed work survived the drain; the listener is gone
        assert engine.row_count("t") == 1
        with pytest.raises(OperationalError):
            connect(*address)


# -- metrics ----------------------------------------------------------------------


class TestMetrics:
    def test_statement_counters_and_latency_quantiles(self, served):
        _, server = served
        conn = connect(*server.address)
        for i in range(20):
            conn.execute("INSERT INTO t VALUES (?, ?)", (i, "x"))
        conn.commit()
        snapshot = conn.metrics()
        assert snapshot["statements"] == 20
        assert snapshot["latency_count"] == 20
        assert snapshot["latency_p50"] is not None
        assert snapshot["latency_p99"] >= snapshot["latency_p50"]
        assert snapshot["active_sessions"] == 1
        assert snapshot["sessions_opened"] == 1
        conn.close()
        assert wait_until(
            lambda: server.metrics()["sessions_closed"] == 1)

    def test_errors_are_counted(self, served):
        _, server = served
        conn = connect(*server.address)
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT nope FROM missing")
        assert server.metrics()["errors"] == 1
        conn.close()
