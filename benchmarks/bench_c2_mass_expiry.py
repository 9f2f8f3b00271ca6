"""Experiment C2 addendum — mass expiry: one wave, one batch per table.

The paper's C2 challenge is *timely* degradation at scale: when a retention
boundary passes, an entire ingest wave comes due at once.  This benchmark
inserts ``MASS_EXPIRY_N`` records at the same instant (one cohort), lets their
first degradation step expire in one wave and drains it: one system
transaction, one exclusive lock, one coalesced page-flush pass, one WAL scrub
pass and one durable WAL flush for the whole wave.

Series reported: steps/second, and the WAL flush, scrub pass, WAL record and
page flush counts of the wave.

``MASS_EXPIRY_N`` (default 10000) sizes the wave; CI runs a tiny smoke wave
(the structural assertions — one WAL flush and one scrub pass per wave,
coalesced page flushes — hold at any size and catch a silent regression to
per-step application).
"""

import os
import time

from repro import AttributeLCP, InstantDB
from repro.core.domains import _CITIES, addresses_for_city, build_location_tree

from .conftest import print_table, record_bench

#: Wave size; override with MASS_EXPIRY_N=200 for a CI smoke run.
N = int(os.environ.get("MASS_EXPIRY_N", "10000"))

TRANSITIONS = ["1 hour", "1 day", "1 month", "3 months"]


def _build_engine() -> InstantDB:
    db = InstantDB(buffer_capacity=4096)
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


def test_mass_expiry_wave():
    db = _build_engine()
    _load_wave(db, N)
    wave = _drain_wave(db)
    rate = wave["steps"] / max(wave["seconds"], 1e-9)
    heap_pages = db.table_store("trace").heap.page_count
    print_table(
        f"C2: mass expiry of a {N}-record wave (first degradation step)",
        ["steps", "steps/s", "WAL flushes", "scrub passes", "WAL records",
         "page flushes", "heap pages"],
        [(wave["steps"], f"{rate:,.0f}", wave["wal_flushes"], wave["scrub_passes"],
          wave["wal_records"], wave["page_flushes"], heap_pages)])

    assert wave["steps"] == N
    assert db.level_histogram("trace", "location") == {1: N}
    # One durable WAL flush and one scrub pass for the whole wave: the
    # structural guard against silently regressing to per-step application.
    assert wave["wal_flushes"] == 1
    assert wave["scrub_passes"] == 1
    # The wave is one (column, level) chunk: BEGIN, the DEGRADE chunk, the
    # scrub's audit record and COMMIT — however many rows.
    assert wave["wal_records"] <= 5
    # Each dirty heap page is flushed at most once per wave.
    assert wave["page_flushes"] <= heap_pages
    assert db.daemon.backlog() == 0

    record_bench("c2", "mass_expiry_wave",
                 rows=N,
                 batched_steps_per_sec=round(rate, 1),
                 batched_wal_flushes=wave["wal_flushes"],
                 batched_scrub_passes=wave["scrub_passes"],
                 batched_wal_records=wave["wal_records"],
                 batched_seconds=round(wave["seconds"], 6))
