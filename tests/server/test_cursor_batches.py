"""A remote cursor refills in batches, however its caller walks it.

The PEP 249 cursor is written once over one result-set buffer
(:mod:`repro.api.session`); over the wire the buffer refills by FETCH round
trips of at least a prefetch batch.  Before that, ``RemoteCursor.fetchone``
asked the server for ``arraysize`` = 1 row once the prefetch was gone: 437
round trips to iterate 500 rows.
"""

import math

import pytest

import repro
from repro import InstantDB
from repro.client import connect
from repro.client.remote import RemoteConnection
from repro.server import DEFAULT_PREFETCH, ServerThread, protocol

ROWS = 500
SQL = "SELECT id, val FROM t"


def iterate(cursor):
    return [row for row in cursor]


def fetchone_loop(cursor):
    return list(iter(cursor.fetchone, None))


def fetchmany_loop(cursor):
    return [row for batch in iter(lambda: cursor.fetchmany(7), [])
            for row in batch]


def fetchall(cursor):
    return cursor.fetchall()


@pytest.fixture
def served():
    engine = InstantDB()
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, val TEXT)")
    engine.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, f"v{i}") for i in range(ROWS)])
    server = ServerThread(engine).start()
    yield engine, server
    server.stop(drain=False)


@pytest.fixture
def fetches(monkeypatch):
    """The FETCH exchanges remote connections make while the test runs."""
    seen = []
    exchange = RemoteConnection._exchange

    def counting(self, frame_type, payload):
        if frame_type == protocol.FETCH:
            seen.append(payload["n"])
        return exchange(self, frame_type, payload)

    monkeypatch.setattr(RemoteConnection, "_exchange", counting)
    return seen


@pytest.mark.parametrize("walk", [iterate, fetchone_loop, fetchmany_loop,
                                  fetchall])
def test_walking_a_remote_cursor_is_not_a_round_trip_per_row(
        served, fetches, walk):
    engine, server = served
    local = repro.connect(engine=engine)
    # the served engine is pinned to the server's loop thread
    expected = server.submit(lambda: walk(local.execute(SQL)))
    server.submit(local.commit)
    remote = connect(*server.address)
    assert walk(remote.execute(SQL)) == expected
    assert len(expected) == ROWS
    assert len(fetches) <= math.ceil((ROWS - DEFAULT_PREFETCH)
                                     / DEFAULT_PREFETCH) + 1
    assert min(fetches) >= DEFAULT_PREFETCH
    remote.close()


@pytest.mark.parametrize("fetched", [1, DEFAULT_PREFETCH, DEFAULT_PREFETCH + 1,
                                     3 * DEFAULT_PREFETCH + 7])
def test_the_server_computes_at_most_one_batch_ahead(served, fetched):
    engine, server = served
    remote = connect(*server.address)
    before = engine.executor.stats.rows_returned
    cursor = remote.execute(SQL)
    rows = [cursor.fetchone() for _ in range(fetched)]
    assert rows == [(i, f"v{i}") for i in range(fetched)]
    computed = engine.executor.stats.rows_returned - before
    assert fetched <= computed <= fetched + DEFAULT_PREFETCH
    remote.close()
