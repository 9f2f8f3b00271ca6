"""Experiment C3 — technical challenge 3: query speed on degradable attributes.

"OLTP queries become less selective when applied to degradable attributes and
OLAP must take care of updates incurred by degradation.  This introduces the
need for indexing techniques supporting efficiently degradation."

Measured series:

* selectivity of a location point query at each accuracy level (the paper's
  "less selective" effect made concrete);
* point-query cost with a sequential scan vs the degradation-aware GT index,
  before and after the table has degraded;
* index maintenance cost of one degradation wave for B+-tree / hash / bitmap /
  GT indexes (the OLAP update-load effect);
* OLAP aggregate cost while degradation runs;
* streaming-pipeline scenarios: ``LIMIT k`` early exit (O(k) rows pulled past
  the scan), ``ORDER BY + LIMIT`` through the bounded Top-N heap, and the
  build/stream hash join.

``C3_SCAN_ROWS`` scales the pipeline scenarios (CI smoke mode uses a small
value); the structural assertions — rows pulled, heap bound — hold at any
scale.
"""

import os
import time

import pytest

from repro import InstantDB
from repro.core.domains import build_location_tree
from repro.index.bitmap import BitmapIndex
from repro.index.btree import BPlusTreeIndex
from repro.index.gt_index import GTIndex
from repro.index.hashindex import HashIndex
from repro.workloads import LocationTraceGenerator

from .conftest import build_engine, load_trace, print_table, record_bench

NUM_EVENTS = 200
SCAN_ROWS = int(os.environ.get("C3_SCAN_ROWS", "2000"))
NUM_USERS = 50

#: Scale of the before/after read-path comparison (selective index scan and
#: wide-table projection); the ≥2x speedup assertion only fires at full scale
#: so CI smoke runs (small N) check structure, not timing.
PERF_ROWS = int(os.environ.get("C3_PERF_ROWS", "10000"))
WIDE_COLUMNS = 20


@pytest.fixture(scope="module")
def degraded_db():
    db = build_engine(with_indexes=True)
    load_trace(db, NUM_EVENTS, interval=30.0, seed=51)
    db.advance_time(hours=2)          # locations now at city level
    return db


def test_c3_selectivity_per_accuracy_level(benchmark, degraded_db):
    """Result cardinality of a location equality query at each accuracy level."""
    db = degraded_db
    tree = build_location_tree()
    queries = [("city", "Paris"), ("region", "Ile-de-France"), ("country", "France")]

    def measure():
        rows = []
        for level_name, value in queries:
            db.execute(f"DECLARE PURPOSE probe_{level_name} SET ACCURACY LEVEL "
                       f"{level_name} FOR person.location")
            result = db.execute(
                f"SELECT COUNT(*) AS n FROM person WHERE location = '{value}'",
                purpose=f"probe_{level_name}")
            rows.append((level_name, value, result.rows[0][0]))
        return rows

    rows = benchmark(measure)
    total = db.row_count("person")
    print_table("C3: selectivity of a location point query per accuracy level",
                ["accuracy level", "predicate value", f"matching rows (of {total})"],
                rows)
    counts = [count for _level, _value, count in rows]
    # Shape: the coarser the accuracy, the less selective the predicate.
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_c3_point_query_seqscan(benchmark, degraded_db):
    db = degraded_db
    result = benchmark(lambda: db.execute(
        "SELECT id FROM person WHERE location = 'Paris' AND id > 0", purpose="service"))
    assert len(result) > 0


def test_c3_point_query_gt_index(benchmark, degraded_db):
    db = degraded_db
    explain = db.execute("EXPLAIN SELECT id FROM person WHERE location = 'Paris'",
                         purpose="service")
    assert "GTIndexScan" in explain.rows[0][0]
    result = benchmark(lambda: db.execute(
        "SELECT id FROM person WHERE location = 'Paris'", purpose="service"))
    assert len(result) > 0


def test_c3_index_maintenance_cost_of_degradation(benchmark):
    """Entries moved / structures touched when one degradation wave hits each index."""
    tree = build_location_tree()
    generator = LocationTraceGenerator(num_users=40, seed=53)
    events = [generator.event_at(float(i)) for i in range(500)]

    def run():
        indexes = {
            "btree": BPlusTreeIndex("btree"),
            "hash": HashIndex("hash"),
            "bitmap": BitmapIndex("bitmap"),
            "gt": GTIndex("gt", tree),
        }
        for row_key, event in enumerate(events):
            for name, index in indexes.items():
                if name == "gt":
                    index.insert_at(event.address, 0, row_key)
                else:
                    index.insert(event.address, row_key)
        # One degradation wave: every address becomes its city.
        for row_key, event in enumerate(events):
            city = tree.generalize(event.address, 1)
            for name, index in indexes.items():
                if name == "gt":
                    index.degrade_entry(event.address, 0, city, 1, row_key)
                else:
                    index.update(event.address, city, row_key)
        return {name: index.stats.updates for name, index in indexes.items()}

    updates = benchmark(run)
    print_table("C3: index maintenance for one degradation wave (500 tuples)",
                ["index", "entry moves"],
                [(name, count) for name, count in updates.items()])
    assert all(count == 500 for count in updates.values())


def test_c3_gt_bulk_degradation_beats_per_entry(benchmark):
    """The GT index can degrade whole buckets instead of per-row updates."""
    tree = build_location_tree()
    generator = LocationTraceGenerator(num_users=40, seed=55)
    events = [generator.event_at(float(i)) for i in range(500)]

    def run():
        index = GTIndex("gt", tree)
        for row_key, event in enumerate(events):
            index.insert_at(event.address, 0, row_key)
        moved = 0
        operations = 0
        for address in list(index.values_at_level(0)):
            moved += index.degrade_bucket(address, 0, 1)
            operations += 1
        return moved, operations

    moved, operations = benchmark(run)
    print_table("C3: GT bulk degradation (bucket moves instead of row updates)",
                ["metric", "value"],
                [("postings degraded", moved), ("bucket operations", operations)])
    assert moved == 500
    # Far fewer structural operations than per-row updates.
    assert operations < 500 / 2


def test_c3_olap_aggregate_during_degradation(benchmark, degraded_db):
    """Country-level aggregate while the table sits mid-lifecycle."""
    db = degraded_db
    result = benchmark(lambda: db.execute(
        "SELECT location, COUNT(*) AS events, AVG(salary) AS avg_salary "
        "FROM person GROUP BY location ORDER BY location", purpose="statistics"))
    assert len(result) >= 2
    assert sum(row[1] for row in result.rows) == db.row_count("person")


# -- streaming-pipeline scenarios (Volcano operators) ---------------------------


@pytest.fixture(scope="module")
def pipeline_db():
    """A stable (non-degradable) fact/dimension pair at C3_SCAN_ROWS scale."""
    db = InstantDB()
    db.execute("CREATE TABLE events (id INT PRIMARY KEY, user_id INT, score INT)")
    db.executemany("INSERT INTO events VALUES (?, ?, ?)",
                   [(i, i % NUM_USERS, (i * 37) % 1000)
                    for i in range(1, SCAN_ROWS + 1)])
    db.execute("CREATE TABLE users (uid INT PRIMARY KEY, name TEXT)")
    db.executemany("INSERT INTO users VALUES (?, ?)",
                   [(u, f"user-{u}") for u in range(NUM_USERS)])
    return db


def test_c3_limit_early_exit(benchmark, pipeline_db):
    """LIMIT k stops the whole pipeline after k rows: O(k) post-scan work."""
    db = pipeline_db
    result = benchmark(lambda: db.execute("SELECT id FROM events LIMIT 10"))
    assert len(result) == 10
    scan = result.pipeline.find("SeqScan")
    print_table("C3: LIMIT 10 early exit",
                ["metric", "value"],
                [("table rows", SCAN_ROWS),
                 ("rows pulled past the scan", scan.stats.rows_out)])
    # The scan produced exactly what Limit pulled, not the whole table.
    assert scan.stats.rows_out == 10


def test_c3_topn_bounded_heap(benchmark, pipeline_db):
    """ORDER BY + LIMIT keeps a heap of n rows instead of sorting the table."""
    db = pipeline_db
    sql = "SELECT id, score FROM events ORDER BY score DESC, id ASC LIMIT 10"
    result = benchmark(lambda: db.execute(sql))
    topn = result.pipeline.find("TopN")
    assert topn is not None and topn.max_held == 10
    full = db.execute("SELECT id, score FROM events ORDER BY score DESC, id ASC")
    assert result.rows == full.rows[:10]
    print_table("C3: Top-N heap vs full sort",
                ["metric", "value"],
                [("rows consumed", SCAN_ROWS),
                 ("heap high-water mark", topn.max_held)])


def test_c3_hash_join_build_and_stream(benchmark, pipeline_db):
    """Equi-join: build the dimension side once, stream the fact side."""
    db = pipeline_db
    sql = ("SELECT events.id, users.name FROM events "
           "JOIN users ON events.user_id = users.uid")
    result = benchmark(lambda: db.execute(sql))
    assert len(result) == SCAN_ROWS
    join = result.pipeline.find("HashJoin")
    assert join is not None and join.stats.rows_out == SCAN_ROWS


def _load_read_path_engine(optimized: bool) -> InstantDB:
    """One engine at PERF_ROWS scale; ``optimized=False`` is the measured
    baseline (tree-walking interpreter, full-row decode, heuristic plans)."""
    db = InstantDB(read_path_optimizations=optimized)
    db.execute("CREATE TABLE events (id INT PRIMARY KEY, score INT)")
    db.execute("CREATE INDEX idx_score ON events (score) USING btree")
    db.executemany("INSERT INTO events VALUES (?, ?)",
                   [(i, (i * 37) % 1000) for i in range(1, PERF_ROWS + 1)])
    columns = ", ".join(f"c{i:02d} TEXT" for i in range(WIDE_COLUMNS))
    db.execute(f"CREATE TABLE wide (id INT PRIMARY KEY, seq INT, {columns})")
    db.executemany(
        "INSERT INTO wide VALUES (?, ?" + ", ?" * WIDE_COLUMNS + ")",
        [tuple([i, i] + [f"row-{i}-column-{c}-payload" for c in range(WIDE_COLUMNS)])
         for i in range(1, PERF_ROWS + 1)])
    return db


@pytest.fixture(scope="module")
def read_path_pair():
    return {"before": _load_read_path_engine(False),
            "after": _load_read_path_engine(True)}


def _throughput(db: InstantDB, sql: str, repeats: int) -> float:
    db.execute(sql)                      # warm caches / compile once
    start = time.perf_counter()
    for _ in range(repeats):
        db.execute(sql)
    return repeats / (time.perf_counter() - start)


def test_c3_read_path_selective_index_scan_speedup(read_path_pair):
    """Tentpole acceptance (a): ≥2x on a selective indexed predicate.

    The optimized engine answers the covering range query with an
    IndexOnlyScan (streamed B+-tree entries, zero heap fetches); the baseline
    runs the pre-overhaul path: materialized key list, full-row decode per
    fetched row, interpreted residual evaluation.
    """
    sql = "SELECT score FROM events WHERE score BETWEEN 250 AND 259"
    before, after = read_path_pair["before"], read_path_pair["after"]
    assert sorted(before.execute(sql).rows) == sorted(after.execute(sql).rows)
    explain = "\n".join(r[0] for r in after.execute(f"EXPLAIN {sql}").rows)
    assert "IndexOnlyScan" in explain
    repeats = max(10, min(200, 400_000 // max(PERF_ROWS, 1)))
    before_ops = _throughput(before, sql, repeats)
    after_ops = _throughput(after, sql, repeats)
    speedup = after_ops / before_ops
    print_table(f"C3: selective indexed predicate, {PERF_ROWS} rows (before/after)",
                ["path", "queries/sec"],
                [("before (interpreted, full decode)", f"{before_ops:.1f}"),
                 ("after (index-only, compiled)", f"{after_ops:.1f}"),
                 ("speedup", f"{speedup:.2f}x")])
    record_bench("c3", "selective_index_scan_before_after",
                 rows=PERF_ROWS, repeats=repeats,
                 before_ops_per_sec=round(before_ops, 1),
                 after_ops_per_sec=round(after_ops, 1),
                 speedup=round(speedup, 2))
    if PERF_ROWS >= 10_000:
        assert speedup >= 2.0


def test_c3_read_path_wide_projection_speedup(read_path_pair):
    """Tentpole acceptance (b): ≥2x on a 2-column projection of a wide table.

    The optimized scan decodes 2 of the 17 stored columns (the rest are
    byte-skipped) and projects through one compiled closure; the baseline
    decodes every column and interprets the projection expressions per row.
    """
    sql = "SELECT c03, c11 FROM wide"
    before, after = read_path_pair["before"], read_path_pair["after"]
    assert before.execute(sql).rows == after.execute(sql).rows
    plan = after.planner.plan_physical(
        after.prepare(sql).statement)
    assert plan.base.needed_columns == ("c03", "c11")
    repeats = max(5, min(100, 100_000 // max(PERF_ROWS, 1)))
    before_ops = _throughput(before, sql, repeats)
    after_ops = _throughput(after, sql, repeats)
    speedup = after_ops / before_ops
    print_table(f"C3: 2-column projection over {WIDE_COLUMNS + 2} columns, "
                f"{PERF_ROWS} rows (before/after)",
                ["path", "queries/sec"],
                [("before (decode all columns)", f"{before_ops:.2f}"),
                 ("after (pruned decode, compiled projection)", f"{after_ops:.2f}"),
                 ("speedup", f"{speedup:.2f}x")])
    record_bench("c3", "wide_projection_before_after",
                 rows=PERF_ROWS, columns=WIDE_COLUMNS + 2, repeats=repeats,
                 before_ops_per_sec=round(before_ops, 2),
                 after_ops_per_sec=round(after_ops, 2),
                 speedup=round(speedup, 2))
    if PERF_ROWS >= 10_000:
        assert speedup >= 2.0


def test_c3_limit_over_index_range_does_bounded_index_work(read_path_pair):
    """Streamed index keys: LIMIT k over a range pays O(k), not O(range)."""
    db = read_path_pair["after"]
    sql = "SELECT id, score FROM events WHERE score BETWEEN 250 AND 400 LIMIT 5"
    explain = "\n".join(r[0] for r in db.execute(f"EXPLAIN {sql}").rows)
    assert "IndexRangeScan" in explain        # selective enough for the index
    index = db.catalog.index("events", "idx_score").index
    index.stats.reset()
    result = db.execute(sql)
    assert len(result.rows) == 5
    in_range = sum(1 for i in range(1, PERF_ROWS + 1)
                   if 250 <= (i * 37) % 1000 <= 400)
    print_table("C3: LIMIT 5 over an index range (streamed keys)",
                ["metric", "value"],
                [("rows in range", in_range),
                 ("index entries scanned", index.stats.entries_scanned)])
    # Only a chunk's worth of entries was pulled, not the whole range.
    assert 0 < index.stats.entries_scanned <= 64


def test_c3_join_with_limit_streams_the_probe_side(benchmark, pipeline_db):
    """LIMIT over a join stops probing early; only the build side is read fully."""
    db = pipeline_db
    sql = ("SELECT events.id, users.name FROM events "
           "JOIN users ON events.user_id = users.uid LIMIT 10")
    result = benchmark(lambda: db.execute(sql))
    assert len(result) == 10
    scans = [op for op in result.pipeline.walk() if op.label == "SeqScan"]
    by_table = {scan.scan.table: scan.stats.rows_out for scan in scans}
    print_table("C3: LIMIT 10 over a hash join",
                ["side", "rows pulled"],
                [("events (probe, streamed)", by_table["events"]),
                 ("users (build, materialized)", by_table["users"])])
    assert by_table["events"] == 10          # probe side stops early
    assert by_table["users"] == NUM_USERS    # build side fully materialized
