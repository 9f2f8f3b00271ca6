"""Experiment C4 — batch ingest: per-statement ``execute`` vs ``executemany``.

The PEP 249 driver's ``executemany`` is the engine's batch-insert path: the
INSERT is parsed once (prepared-statement cache), each parameter row binds
straight to a value row, and the whole batch is one insert — its rows reach
the store, the log and the degradation schedule together, under one lock
acquisition and one durable WAL flush instead of N.  This
experiment measures the speedup over the same rows ingested as N autocommit
``execute`` calls, the way every caller had to before the driver API existed.

Measured series: wall-clock time and derived rows/second for both paths, the
number of engine transactions begun, and the parse count (statement cache
misses) per path.
"""

import time

import pytest

from repro import connect

from .conftest import print_table

NUM_ROWS = 2000
SQL_CREATE = "CREATE TABLE events (id INT PRIMARY KEY, user_id INT, payload TEXT)"
SQL_INSERT = "INSERT INTO events VALUES (?, ?, ?)"


def _rows(count):
    return [(index, index % 40, f"payload-{index}") for index in range(count)]


def _ingest_per_statement(count):
    """N autocommit execute() calls: N parses (pre-cache) and N commits."""
    conn = connect()
    conn.execute(SQL_CREATE)
    conn.commit()
    db = conn.engine
    begun_before = db.transactions.stats.begun
    started = time.perf_counter()
    for params in _rows(count):
        db.execute(SQL_INSERT, params=params)
        db.statements.clear()        # model a driver with no statement cache
    elapsed = time.perf_counter() - started
    transactions = db.transactions.stats.begun - begun_before
    assert db.row_count("events") == count
    conn.close()
    return elapsed, transactions


def _ingest_executemany(count):
    """One executemany batch: one parse, one transaction, one WAL flush."""
    conn = connect()
    cur = conn.cursor()
    cur.execute(SQL_CREATE)
    conn.commit()
    db = conn.engine
    begun_before = db.transactions.stats.begun
    misses_before = db.statements.stats.misses
    started = time.perf_counter()
    cur.executemany(SQL_INSERT, _rows(count))
    conn.commit()
    elapsed = time.perf_counter() - started
    transactions = db.transactions.stats.begun - begun_before
    parses = db.statements.stats.misses - misses_before
    assert db.row_count("events") == count
    assert parses <= 1
    conn.close()
    return elapsed, transactions


def test_c4_executemany_beats_per_statement_ingest(benchmark):
    per_statement_time, per_statement_txns = _ingest_per_statement(NUM_ROWS)
    batch_time, batch_txns = _ingest_executemany(NUM_ROWS)
    benchmark(lambda: _ingest_executemany(NUM_ROWS))

    speedup = per_statement_time / batch_time if batch_time else float("inf")
    print_table(
        "C4: ingesting one batch of rows through the PEP 249 driver",
        ["path", "rows", "time (s)", "rows/s", "transactions"],
        [("execute() per row", NUM_ROWS, f"{per_statement_time:.3f}",
          f"{NUM_ROWS / per_statement_time:,.0f}", per_statement_txns),
         ("executemany()", NUM_ROWS, f"{batch_time:.3f}",
          f"{NUM_ROWS / batch_time:,.0f}", batch_txns),
         ("speedup", "", f"{speedup:.1f}x", "", "")],
    )
    # Shape: the batch path runs in one transaction and is measurably faster.
    assert batch_txns == 1
    assert per_statement_txns == NUM_ROWS
    assert batch_time < per_statement_time


def test_c4_prepared_cache_alone_helps(benchmark):
    """Even without batching, the statement cache removes repeated parses."""
    conn = connect()
    conn.execute(SQL_CREATE)
    conn.commit()
    db = conn.engine

    def ingest_cached(count=400):
        for params in _rows(count):
            db.execute("DELETE FROM events WHERE id = ?", params=(params[0],))
            db.execute(SQL_INSERT, params=params)
        return db.statements.stats.misses

    misses = benchmark(ingest_cached)
    print_table("C4: statement cache during a repeated-statement workload",
                ["metric", "value"],
                [("distinct statements parsed", misses),
                 ("cache hits", db.statements.stats.hits)])
    assert misses <= 4                      # create + insert + delete (+ slack)
    assert db.statements.stats.hits > 0
    conn.close()
