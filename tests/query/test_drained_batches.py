"""A drained scan is one compiled loop over its page runs.

A consumer that reads its input to the end (an aggregate, a sort, a top-N, a
hash join's build side, ``fetchall``) gets the rows of up to
:data:`~repro.storage.kernels.BATCH_PAGES` decoded pages as one list from the
reader's drained pace, which tests each page's floor inline and skips the
pages over a cap without a generator step each.  What it must not change:

* the tally — ``examined``, ``excluded``, ``pages_skipped`` and the store's
  ``reads`` read what they read when each page run was one step (the lines
  below were taken on the commit before the drained loop, and taken again,
  the lazy pace reading the same, when a record came to store each level in
  one byte and a page to hold more records, and again when a page header
  came to name its owner — 8 bytes less room a page, 337 → 345 pages, which
  moves where the later waves refill the room the first one's degradation
  freed; since a record stores a small INT in 5 bytes and a short TEXT with
  a 1-byte length, each note is padded by the 14 bytes that saves a row,
  :data:`PAD`, so every record keeps the length the lines were taken at);
* the answers — a table of several batches answers as the reference model
  does;
* the snapshot — a cursor read lazily, then drained, sees no row inserted
  after it started and no image older than the last degradation step, across
  an insert batch, a ``DELETE`` and a relocating wave;
* the resume — a drained scan that a rewrite interrupts between two batches
  goes on at the row after the last one it handed up.
"""

import pytest

import repro
from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.core.schema import Column, TableSchema
from repro.scenarios.reference import ReferenceModel
from repro.storage.kernels import BATCH_PAGES

from ..storage.test_page_runs import relocate, row
from ..storage.test_record_reader import make_store

PARIS = "1 Main Street, Paris"
LYON = "2 Station Road, Lyon"
WAVE = 1500         # rows per insert wave; three waves sit at three levels
#: 4 bytes each of ``id`` and ``day``, 3 each of two TEXT lengths.
PAD = "." * 14


@pytest.fixture(scope="module")
def built():
    """4,500 visits on 1 KiB pages — several batches of pages — in three
    waves at region, city and address level, and the reference model
    holding the same rows."""
    db = InstantDB(page_size=1024)
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"], name="location_lcp"))
    db.execute("CREATE TABLE visits (id INT PRIMARY KEY, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp, day INT, note TEXT)")
    for level in ("address", "city", "region"):
        db.execute(f"DECLARE PURPOSE {level} SET ACCURACY LEVEL {level} FOR visits.location")
    model = ReferenceModel(db.catalog)
    for wave, hours in enumerate((30, 2, 0)):
        first = wave * WAVE + 1
        for target in (db, model):
            target.executemany("INSERT INTO visits VALUES (?, ?, ?, ?)",
                               [(i, PARIS if i % 3 else LYON, i % 97, f"n{i}{PAD}")
                                for i in range(first, first + WAVE)])
        db.advance_time(hours=hours)
        model.advance(hours * 3600.0)
    assert db.level_histogram("visits", "location") == {2: WAVE, 1: WAVE, 0: WAVE}
    assert db.table_store("visits").heap.page_count > 4 * BATCH_PAGES
    return db, model


class TestTheTallyIsThePageRunsTally:
    CASES = {
        "drained GROUP BY": (
            "SELECT day, COUNT(*) AS n FROM visits GROUP BY day", "city", 3603, [
                "Aggregate (day, n) group by day (rows=97) (est~97)",
                "  SeqScan on visits as visits accuracy[location@1] (rows=3000) (est~4500) "
                "(examined=4500 excluded=1500 pages_skipped=69)"]),
        "range with ORDER BY and LIMIT": (
            "SELECT id, location FROM visits WHERE day >= 10 AND day < 40 "
            "ORDER BY id DESC LIMIT 25", "address", 2945, [
                "TopN (n=25, by id DESC) (rows=25) (est~25)",
                "  Project (id, location) (rows=479) (est~1682)",
                "    SeqScan on visits as visits accuracy[location@0] filter (day >= 10 AND "
                "day < 40) (rows=479) (est~1682) (examined=4500 excluded=3000 "
                "pages_skipped=168)"]),
        "join build side": (
            "SELECT a.id, b.note FROM visits a JOIN visits b ON a.id = b.id WHERE a.day < 3",
            "region", 4640, [
                "Project (id, note) (rows=140) (est~4)",
                "  HashJoin (inner visits on a.id = b.id, build=left, probe=index pk_visits) "
                "(rows=140) (est~4)",
                "    SeqScan on visits as a accuracy[location@2] filter (a.day < 3) (rows=140) "
                "(est~140) (examined=4500 excluded=0 pages_skipped=0)",
                "    IndexScan(pk_visits id in build keys) on visits as b accuracy[location@2] "
                "(rows=140) (est~140) (examined=140 excluded=0 pages_skipped=0)"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_explain_analyze_and_store_reads_are_unchanged(self, built, case):
        db, model = built
        sql, purpose, reads, expected = self.CASES[case]
        store = db.table_store("visits")
        before = store.stats.reads
        explained = [line for line, in db.execute("EXPLAIN ANALYZE " + sql,
                                                  purpose=purpose).rows]
        assert store.stats.reads - before == reads
        assert explained[-len(expected):] == expected
        answer = db.execute(sql, purpose=purpose).rows
        assert sorted(answer) == sorted(model.execute(sql, purpose=purpose).fetchall())


@pytest.mark.parametrize("purpose", ["address", "city", "region"])
@pytest.mark.parametrize("sql", [
    "SELECT id, location, day FROM visits",
    "SELECT location, COUNT(*) AS n FROM visits GROUP BY location",
    "SELECT id, note FROM visits WHERE day >= 90 ORDER BY id",
])
def test_a_table_of_several_batches_answers_as_the_model(built, sql, purpose):
    db, model = built
    assert sorted(db.execute(sql, purpose=purpose).rows) == \
        sorted(model.execute(sql, purpose=purpose).fetchall())


def test_a_store_read_lazily_then_drained_keeps_its_snapshot():
    """``store.runs`` under a pace that flips from lazy to drained: rows
    handed out before an insert batch, a delete and a relocating wave, then
    the rest in batches — no late row, no key twice or lost, every image as
    current as the store's."""
    store = make_store(capacity=512)
    keys = store.insert_many([row(i) for i in range(4000)], now=0.0).keys
    assert store.heap.page_count > BATCH_PAGES
    assert len(list(store.scan())) == len(keys)     # the runs exist: an insert extends them
    pace = [False]
    runs = store.runs(drain=lambda: pace[0])
    seen = [stored for _ in range(10) for stored in next(runs)]
    assert len(seen) == 10
    late = store.insert_many([row(9000 + i) for i in range(40)], now=1.0).keys
    store.delete([keys[20], keys[3000]], now=1.0)
    relocate(store, keys[5:1500])
    pace[0] = True
    batches = list(runs)
    assert len(batches) > 2
    seen += [stored for batch in batches for stored in batch]
    got = [stored.row_key for stored in seen]
    assert len(got) == len(set(got)) and not set(got) & set(late)
    assert set(got) == set(keys) - {keys[20], keys[3000]}
    for stored in seen[10:]:
        current = store.read(stored.row_key)
        assert (stored.levels, stored.values) == (current.levels, current.values)


def test_an_engine_cursor_read_lazily_then_drained():
    """``fetchone`` then ``fetchall`` on one cursor, an ``executemany`` and a
    ``DELETE`` of the same transaction in between."""
    connection = repro.connect(engine=InstantDB(page_size=1024))
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"note-{i}") for i in range(3000)])
    connection.commit()
    assert connection.engine.table_store("t").heap.page_count > BATCH_PAGES
    cursor.execute("SELECT COUNT(*) FROM t")    # a full read: the runs are built
    reader = connection.cursor()
    reader.execute("SELECT id, note FROM t")
    seen = [reader.fetchone() for _ in range(5)]
    connection.cursor().executemany("INSERT INTO t VALUES (?, ?)",
                                    [(i, "late") for i in range(3000, 3050)])
    connection.cursor().execute("DELETE FROM t WHERE id >= 100 AND id < 1200")
    seen += reader.fetchall()
    connection.commit()
    assert sorted(seen) == [(i, f"note-{i}") for i in range(3000) if not 100 <= i < 1200]


def test_a_drained_scan_resumes_at_its_next_row_after_a_rewrite():
    """A rewrite between two drained batches makes the scan resolve the keys
    it has not read again, from the index its last batch handed back: the
    index of the key after its last run, not the offset at which a TEXT it
    decoded starts in that run's last record."""
    store = make_store(schema=TableSchema("t", [
        Column("id", "INT", primary_key=True), Column("name", "TEXT"), Column("note", "TEXT")]))
    keys = store.insert_many([(i, f"name-{i}", f"note-{i}") for i in range(6000)],
                             now=0.0).keys
    assert store.heap.page_count > BATCH_PAGES
    reader = store.row_reader((("id", 1), ("name", 2)), frozenset({"id", "name"}))
    batches = store._read_keys(list(keys), reader, drain=lambda: True)
    seen = next(batches)
    assert 0 < len(seen) < len(keys)
    store.update_stable([seen[-1][0]], [("note", "m")], 0.0)
    seen += [row for batch in batches for row in batch]
    assert [row[0] for row in seen] == list(keys)
    assert [row[2] for row in seen] == [f"name-{i}" for i in range(6000)]
