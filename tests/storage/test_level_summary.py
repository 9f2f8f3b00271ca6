"""The heap's level summary is exact, so a scan may skip a page on it.

``HeapFile`` keeps, per page, the level vector of each live slot's record and
each page's *floor* (the lowest stored level of every degradable column); a
capped scan skips a page whose floor is over a cap without reading it.  A
seeded model run drives every way a page changes — single-row and
``executemany`` inserts, degradation waves that relocate, stable updates that
relocate, DELETE, final removal, abort-undo, and checkpoint + ``recover()`` on a
reopened engine — under both non-recoverability strategies.  After each
operation:

* ``HeapFile.check()`` recounts the summary from the pages and finds it equal;
* every capped scan returns exactly the rows — values, levels, order — of a
  scan that decodes every header and applies the caps itself, with the same
  ``examined`` / ``excluded`` tallies.
"""

import random
from itertools import product
from types import SimpleNamespace

import pytest

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree, build_salary_ranges
from repro.devtools import invariants
from repro.query.operators import draining, lazy

LOCATION = build_location_tree()
ADDRESSES = sorted(LOCATION.values_at_level(0))
#: Every cap on one or both degradable columns (levels 0–4; 4 is suppressed).
CAPS = [((column, cap),) for column in ("location", "salary") for cap in range(4)] + \
    [(("location", a), ("salary", b)) for a, b in product(range(4), repeat=2)]


def open_engine(data_dir, strategy) -> InstantDB:
    """A durable engine; a crypto one in memory (its keys live in memory
    only, so it takes no data directory)."""
    return InstantDB(data_dir=None if strategy == "crypto" else str(data_dir),
                     strategy=strategy, page_size=512)


def create(db: InstantDB) -> None:
    location = db.register_domain(build_location_tree())
    salary = db.register_domain(build_salary_ranges())
    db.register_policy(AttributeLCP(
        location, transitions=["1 h", "1 d", "1 month", "3 months"], name="loc_lcp"))
    db.register_policy(AttributeLCP(
        salary, transitions=["2 h", "3 d", "2 months", "4 months"], name="sal_lcp"))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT, location TEXT "
               "DEGRADABLE DOMAIN location POLICY loc_lcp, salary INT "
               "DEGRADABLE DOMAIN salary POLICY sal_lcp)")
    # DML matches through a purpose: this one sees a row at any level
    db.execute("DECLARE PURPOSE any SET ACCURACY LEVEL suppressed FOR t.location, "
               "suppressed FOR t.salary")


def row(rng: random.Random, row_id: int) -> tuple:
    return (row_id, "n" * rng.randrange(0, 40), rng.choice(ADDRESSES),
            rng.randrange(1000, 90_000))


def assert_exact(db: InstantDB) -> int:
    """Check the summary and every capped scan; return the page runs skipped."""
    store = db.table_store("t")
    store.heap.check()
    every = [(r.row_key, r.values, r.levels) for r in store.scan()]
    skipped = 0
    for caps in CAPS:
        tally = SimpleNamespace(examined=0, excluded=0, pages_skipped=0)
        capped = [(r.row_key, r.values, r.levels)
                  for r in store.scan(None, caps, tally)]
        assert capped == [(key, values, levels) for key, values, levels in every
                          if all(levels[column] <= cap for column, cap in caps)], caps
        assert (tally.examined, tally.excluded) == (len(every), len(every) - len(capped))
        skipped += tally.pages_skipped
    return skipped


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
@pytest.mark.parametrize("seed", range(2))
def test_summary_stays_exact_through_every_page_mutation(tmp_path, strategy, seed):
    rng = random.Random(seed)
    db = open_engine(tmp_path, strategy)
    create(db)
    next_id = 1
    skipped = 0
    moved = False
    operations = ["insert", "executemany", "wave", "update", "delete", "abort"] * 5 \
        + ["recover"] * 2
    rng.shuffle(operations)
    # a populated heap first, and a long wave last: rows reach final removal
    for operation in ["executemany", "wave", *operations, "wave", "removal"]:
        store = db.table_store("t")
        live = [store.read(key).values["id"] for key in store.row_keys()]
        if operation == "insert":
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", params=row(rng, next_id))
            next_id += 1
        elif operation == "executemany":
            count = rng.randrange(20, 60)
            db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                           [row(rng, next_id + i) for i in range(count)])
            next_id += count
        elif operation == "wave":
            db.advance_time(hours=rng.choice([2, 30, 24 * 40]))
        elif operation == "removal":
            db.advance_time(days=200)
            assert db.table_store("t").row_count == 0
        elif operation == "update" and live:
            # a note long enough to overflow a full page: the record relocates
            db.execute("UPDATE t SET note = ? WHERE id = ?",
                       params=("u" * rng.randrange(280, 320), rng.choice(live)), purpose="any")
        elif operation == "delete" and live:
            db.execute("DELETE FROM t WHERE id = ?", params=(rng.choice(live),),
                       purpose="any")
        elif operation == "abort" and live:
            txn = db.begin()
            db.execute("UPDATE t SET note = ? WHERE id = ?",
                       params=("a" * 150, rng.choice(live)), txn=txn, purpose="any")
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", params=row(rng, next_id),
                       txn=txn)
            db.rollback(txn)
        elif operation == "recover" and strategy == "rewrite":
            db.checkpoint()
            db.close()
            db = open_engine(tmp_path, strategy)
            db.recover()
        skipped += assert_exact(db)
        moved = moved or db.table_store("t").stats.relocations > 0
    assert moved and skipped > 0
    db.close()


def test_the_summary_holds_levels_only():
    """Per page: live slot → level vector, and the floor — ints, never a value."""
    db = InstantDB(page_size=512)
    create(db)
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                   [(i, "x", ADDRESSES[0], 50_000 + i) for i in range(40)])
    db.advance_time(hours=3)
    heap = db.table_store("t").heap
    for page_id, held in heap._slot_levels.items():
        assert all(isinstance(level, int) for vector in held.values() for level in vector)
        assert sorted(held) == heap.live_slots(page_id)
        assert heap.floors[page_id] == tuple(map(min, zip(*held.values())))
    assert set(heap.floors) == set(heap._slot_levels) == set(heap.page_ids())
    assert set(heap.floors.values()) == {(1, 1)}


@pytest.mark.parametrize("pace", [lazy, draining], ids=["lazy", "drained"])
def test_an_armed_scan_rereads_each_page_it_skips(monkeypatch, pace):
    """``REPRO_DEBUG_INVARIANTS=1``: a skipped page whose records the level rule
    would not all drop is an ``InvariantViolation``, not a silently short scan
    — whether a run at a time (lazy) or inside the drained reader's loop."""
    db = InstantDB(page_size=512)
    create(db)
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)",
                   [(i, "x", ADDRESSES[0], 50_000 + i) for i in range(40)])
    store = db.table_store("t")
    page = store.page_of(1)

    def rows():
        return [row for run in store.runs(None, (("location", 0),), drain=pace) for row in run]

    monkeypatch.setattr(invariants, "_enabled", True)
    assert len(rows()) == 40
    store.heap.floors[page] = (1, 0)        # a summary out of step with the page
    with pytest.raises(invariants.InvariantViolation, match=f"page {page} skipped"):
        rows()
    monkeypatch.setattr(invariants, "_enabled", False)
    assert len(rows()) < 40
