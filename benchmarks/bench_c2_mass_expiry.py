"""Experiment C2 addendum — mass expiry: batched vs per-step degradation.

The paper's C2 challenge is *timely* degradation at scale: when a retention
boundary passes, an entire ingest wave comes due at once.  This benchmark
inserts ``MASS_EXPIRY_N`` records at the same instant, lets their first
degradation step expire in one wave, and drains it twice:

* **batched** (the engine default) — one system transaction, one exclusive
  lock, one coalesced page-flush pass, one WAL scrub pass and one durable WAL
  flush per batch;
* **per-step baseline** (``degradation_max_batch=1``) — the same pipeline
  fed one step at a time, paying all of the above once per step.

Series reported: steps/second for both pipelines, WAL flush and page flush
counts, and the chunked-drain behaviour of the daemon's ``max_batch`` knob.

``MASS_EXPIRY_N`` (default 10000) sizes the wave; CI runs a tiny smoke wave
(the structural assertions — one WAL flush per batch, coalesced page flushes —
hold at any size and catch a silent regression to per-step application).  The
throughput ratio is only asserted for waves of at least 1000 records, where
the measurement is not noise-dominated.
"""

import os
import time

from repro import AttributeLCP, InstantDB
from repro.core.domains import _CITIES, addresses_for_city, build_location_tree

from .conftest import print_table, record_bench

#: Wave size; override with MASS_EXPIRY_N=200 for a CI smoke run.
N = int(os.environ.get("MASS_EXPIRY_N", "10000"))

#: Assert the >= 3x speedup only when the wave is big enough to time reliably.
MIN_N_FOR_RATIO = 1000

TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]


def _build_engine(max_batch=None) -> InstantDB:
    db = InstantDB(degradation_max_batch=max_batch, buffer_capacity=4096)
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, transitions=TRANSITIONS,
                                    name="location_lcp"))
    db.execute("CREATE TABLE trace (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp)")
    db.create_index("idx_location", "trace", "location", method="gt")
    return db


def _load_wave(db: InstantDB, count: int) -> None:
    addresses = [address for city, _region, _country in _CITIES
                 for address in addresses_for_city(city)]
    rows = [(index, addresses[index % len(addresses)])
            for index in range(1, count + 1)]
    db.executemany("INSERT INTO trace VALUES (?, ?)", rows)


def _drain_wave(db: InstantDB):
    """Advance past the first retention boundary and measure the drain."""
    steps = db.stats.degradation_steps_applied
    wal_flushes = db.wal.stats.flushed
    page_flushes = db.buffer_pool.stats.flushes
    scrub_passes = db.wal.stats.scrub_passes
    wal_records = db.wal.stats.appended
    started = time.perf_counter()
    db.advance_time(hours=2)       # every record owes exactly one location step
    elapsed = time.perf_counter() - started
    return {
        "steps": db.stats.degradation_steps_applied - steps,
        "seconds": elapsed,
        "wal_flushes": db.wal.stats.flushed - wal_flushes,
        "page_flushes": db.buffer_pool.stats.flushes - page_flushes,
        "scrub_passes": db.wal.stats.scrub_passes - scrub_passes,
        "wal_records": db.wal.stats.appended - wal_records,
    }


def test_mass_expiry_batch_vs_per_step():
    batched_db = _build_engine()
    _load_wave(batched_db, N)
    per_step_db = _build_engine(max_batch=1)
    _load_wave(per_step_db, N)

    batched = _drain_wave(batched_db)
    per_step = _drain_wave(per_step_db)

    batched_rate = batched["steps"] / max(batched["seconds"], 1e-9)
    per_step_rate = per_step["steps"] / max(per_step["seconds"], 1e-9)
    heap_pages = batched_db.table_store("trace").heap.page_count
    print_table(
        f"C2: mass expiry of a {N}-record wave (first degradation step)",
        ["pipeline", "steps", "steps/s", "WAL flushes", "page flushes",
         "scrub passes"],
        [("batched", batched["steps"], f"{batched_rate:,.0f}",
          batched["wal_flushes"], batched["page_flushes"], batched["scrub_passes"]),
         ("per-step", per_step["steps"], f"{per_step_rate:,.0f}",
          per_step["wal_flushes"], per_step["page_flushes"], per_step["scrub_passes"])])

    # Both pipelines apply the full wave and agree on the visible end state.
    assert batched["steps"] == N and per_step["steps"] == N
    assert batched_db.level_histogram("trace", "location") == {1: N}
    assert per_step_db.level_histogram("trace", "location") == {1: N}

    # The batch path pays one durable WAL flush and one scrub pass for the
    # whole wave; the per-step baseline pays one of each per step.  This is
    # the structural guard against silently regressing to per-step application.
    assert batched["wal_flushes"] == 1
    assert batched["scrub_passes"] == 1
    assert per_step["wal_flushes"] >= N
    assert per_step["scrub_passes"] >= N
    # The wave is one (column, level) chunk: BEGIN, the DEGRADE chunk, the
    # scrub's audit record, SCHED_STEP and COMMIT — however many rows.
    assert batched["wal_records"] <= 6

    # Each dirty heap page is flushed at most once per batch.
    assert batched["page_flushes"] <= heap_pages
    assert per_step["page_flushes"] >= N

    record_bench("c2", "mass_expiry_wave",
                 rows=N,
                 batched_steps_per_sec=round(batched_rate, 1),
                 per_step_steps_per_sec=round(per_step_rate, 1),
                 batched_wal_flushes=batched["wal_flushes"],
                 batched_wal_records=batched["wal_records"],
                 batched_seconds=round(batched["seconds"], 6))

    if N >= MIN_N_FOR_RATIO:
        assert batched_rate >= 3 * per_step_rate, (
            f"batched pipeline only {batched_rate / per_step_rate:.1f}x faster"
        )


def test_mass_expiry_chunked_drain():
    """The max_batch knob drains a big backlog in bounded chunks."""
    chunk = max(1, N // 4)
    db = _build_engine(max_batch=chunk)
    _load_wave(db, N)
    drained = _drain_wave(db)
    expected_batches = -(-N // chunk)          # ceil division
    assert drained["steps"] == N
    # One durable WAL flush per chunk, not per step.
    assert drained["wal_flushes"] == expected_batches
    assert db.daemon.stats.batches >= expected_batches
    assert db.daemon.backlog() == 0
    print_table(f"C2: chunked drain (max_batch={chunk})",
                ["metric", "value"],
                [("steps applied", drained["steps"]),
                 ("chunks", expected_batches),
                 ("WAL flushes", drained["wal_flushes"])])
