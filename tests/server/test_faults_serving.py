"""Wire-level fault injection: server seams, client healing, typed shedding.

These tests arm :class:`~repro.faults.FaultPlan` sites on a real served
engine and drive it through the remote PEP 249 driver, checking the failure
contract end to end: retryable typed errors, transparent reconnect+replay at
transaction boundaries, connection poisoning inside transactions, and the
engine surviving a session teardown that hits a failing device.
"""

import time

import pytest

from repro import InstantDB
from repro.client import connect
from repro.core.errors import (
    ConnectionPoisonedError,
    OperationalError,
    StatementTimeoutError,
)
from repro.faults import FaultPlan
from repro.server import ServerThread


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def serve(engine, **kwargs):
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, val TEXT)")
    return ServerThread(engine, **kwargs).start()


class TestStatementTimeout:
    def test_slow_statement_gets_typed_retryable_error(self):
        engine = InstantDB()
        server = serve(engine, statement_timeout=0.0)
        try:
            conn = connect(*server.address, retries=0)
            with pytest.raises(StatementTimeoutError):
                conn.execute("SELECT id FROM t")
            assert server.metrics()["statement_timeouts"] >= 1
            conn.close()
        finally:
            server.stop(drain=False)
            engine.close()


class TestClientRetry:
    def test_send_fault_outside_txn_is_replayed_transparently(self):
        plan = FaultPlan(seed=4)
        engine = InstantDB()
        server = serve(engine)
        try:
            conn = connect(*server.address, retries=2, retry_backoff=0.001,
                           retry_seed=4, fault_plan=plan)
            conn.execute("INSERT INTO t (id, val) VALUES (1, 'a')")
            conn.commit()
            plan.fail_once("client.send", "disconnect")
            rows = conn.execute("SELECT val FROM t WHERE id = 1").fetchall()
            assert rows[0][0] == "a"
            assert conn.reconnects == 1
            conn.close()
        finally:
            server.stop(drain=False)
            engine.close()

    def test_recv_fault_outside_txn_is_replayed_transparently(self):
        plan = FaultPlan(seed=4)
        engine = InstantDB()
        server = serve(engine)
        try:
            conn = connect(*server.address, retries=2, retry_backoff=0.001,
                           retry_seed=4, fault_plan=plan)
            plan.fail_once("client.recv", "disconnect")
            rows = conn.execute("SELECT COUNT(*) AS n FROM t").fetchall()
            assert rows[0][0] == 0
            assert conn.reconnects == 1
            conn.close()
        finally:
            server.stop(drain=False)
            engine.close()

    def test_retries_exhausted_surfaces_operational_error(self):
        plan = FaultPlan(seed=4)
        engine = InstantDB()
        server = serve(engine)
        try:
            conn = connect(*server.address, retries=1, retry_backoff=0.001,
                           fault_plan=plan)
            plan.fail_with_probability("client.send", "disconnect", 1.0)
            with pytest.raises(OperationalError):
                conn.execute("SELECT id FROM t")
            plan.disarm()
            conn.close()
        finally:
            server.stop(drain=False)
            engine.close()


class TestPoisoning:
    def test_mid_txn_transport_failure_poisons_the_connection(self):
        plan = FaultPlan(seed=4)
        engine = InstantDB()
        server = serve(engine)
        try:
            conn = connect(*server.address, retries=3, retry_backoff=0.001,
                           fault_plan=plan)
            # open a server-side transaction, then kill the transport under
            # it: replaying mid-transaction could double-apply, so the
            # connection must poison instead of silently retrying
            conn.execute("INSERT INTO t (id, val) VALUES (1, 'a')")
            plan.fail_once("client.send", "disconnect")
            with pytest.raises(OperationalError):
                conn.execute("INSERT INTO t (id, val) VALUES (2, 'b')")
            with pytest.raises(ConnectionPoisonedError):
                conn.execute("SELECT id FROM t")
            with pytest.raises(ConnectionPoisonedError):
                conn.commit()
            conn.close()
            # the server rolled the open transaction back on disconnect
            fresh = connect(*server.address)
            assert fresh.execute("SELECT COUNT(*) AS n FROM t") \
                .fetchall()[0][0] == 0
            fresh.close()
        finally:
            server.stop(drain=False)
            engine.close()


class TestServerSideFaults:
    def test_server_send_truncation_heals_via_reconnect(self):
        plan = FaultPlan(seed=4)
        engine = InstantDB()
        server = serve(engine, fault_plan=plan)
        try:
            conn = connect(*server.address, retries=3, retry_backoff=0.001,
                           fault_plan=plan)
            plan.fail_once("server.send", "truncate")
            rows = conn.execute("SELECT COUNT(*) AS n FROM t").fetchall()
            assert rows[0][0] == 0
            assert conn.reconnects >= 1
            conn.close()
        finally:
            server.stop(drain=False)
            engine.close()

    def test_teardown_rollback_hitting_bad_device_degrades_not_crashes(
            self, tmp_path):
        plan = FaultPlan(seed=4)
        # a data_dir matters here: the undo's WAL scrub zeroes bytes on disk
        engine = InstantDB(data_dir=str(tmp_path / "db"), fault_plan=plan)
        server = serve(engine, fault_plan=plan)
        try:
            conn = connect(*server.address, retries=0)
            conn.execute("INSERT INTO t (id, val) VALUES (1, 'a')")
            # flush the WAL so the uncommitted insert's record is on disk:
            # the teardown rollback must now *scrub* it (zero its image in
            # the segment file), and that write hits the failing device
            server.submit(engine.wal.flush)
            plan.fail_once("wal.scrub", "torn_write")
            conn._sock.close()  # abrupt disconnect, no GOODBYE
            # the abort completes its bookkeeping (locks released, session
            # gone) and the engine degrades to read-only instead of wedging
            assert wait_until(lambda: engine.read_only)
            assert wait_until(
                lambda: server.metrics()["sessions_closed"] == 1)
            assert engine.transactions.stats.undo_failures == 1
            plan.disarm()
            # a new session still reads, and recovery restores writability
            fresh = connect(*server.address)
            assert fresh.execute("SELECT COUNT(*) AS n FROM t") \
                .fetchall()[0][0] == 0
            server.submit(lambda: engine.recover(drain=True))
            fresh.execute("INSERT INTO t (id, val) VALUES (3, 'c')")
            fresh.commit()
            fresh.close()
        finally:
            server.stop(drain=False)
            engine.close()
