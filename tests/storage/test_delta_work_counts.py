"""Exact log work of a small seeded script, by record type
(``WALStats.appended_by_type``): deterministic, so unlike a timing it can
gate a regression.

Every row change is one ``DELTA`` record per statement and heap page: a
300-row ingest, an UPDATE of 40 rows, a DELETE of 50 and the removal of the
rest when their policy ends — one record per (statement, page) group,
whatever the number of rows, and no other row-change record.  The same
script appended 348 row-change records in WAL format 6: 8 ``INSERT_RUN``,
40 ``UPDATE`` and 300 ``REMOVE``.
"""

import random

from repro import AttributeLCP, InstantDB
from repro.core.domains import build_location_tree
from repro.storage.wal import LogRecordType, delta_entries

ADDRESSES = ("1 Main Street, Paris", "2 Station Road, Lyon", "3 Church Lane, Enschede")


def test_every_row_change_is_one_delta_per_statement_and_page():
    db = InstantDB()
    location = db.register_domain(build_location_tree())
    db.register_policy(AttributeLCP(location, states=[0, 1, 4],
                                    transitions=["1 hour", "1 day"], name="location_lcp"))
    db.execute("CREATE TABLE trace (id INT PRIMARY KEY, note TEXT, location TEXT "
               "DEGRADABLE DOMAIN location POLICY location_lcp)")
    store, rng = db.table_store("trace"), random.Random(7)
    groups = []                 # (rows changed, pages they were on) per statement

    def changed(keys):
        groups.append((len(keys), len({store.page_of(key) for key in keys})))

    # Notes of 20–69 bytes: records of 70–122 bytes, 300 rows on 8 pages.
    db.executemany("INSERT INTO trace VALUES (?, ?, ?)",
                   [(i, "n" * rng.randrange(20, 70), rng.choice(ADDRESSES))
                    for i in range(300)])
    inserted = store.row_keys()
    changed(inserted)
    updated = [key for key in store.row_keys() if store.read(key).values["id"] < 40]
    changed(updated)
    assert db.execute("UPDATE trace SET note = 'changed' WHERE id < 40") == 40
    deleted = [key for key in store.row_keys() if store.read(key).values["id"] >= 250]
    changed(deleted)
    assert db.execute("DELETE FROM trace WHERE id >= 250") == 50
    db.advance_time(hours=2)
    changed(store.row_keys())                   # the last step removes them all
    db.advance_time(days=2)
    assert db.row_count("trace") == 0

    by_type = dict(db.wal.stats.appended_by_type)
    assert not {"INSERT_RUN", "UPDATE", "REMOVE"} & set(by_type)
    assert by_type["DELTA"] == sum(pages for _rows, pages in groups)
    assert [rows for rows, _pages in groups] == [300, 40, 50, 250]
    # The first wave removes nothing and logs no record of its steps (nor a
    # BEGIN or COMMIT); the second commits its removal's −1s.
    assert by_type == {"CATALOG": 1, "BEGIN": 4, "COMMIT": 4,
                       "DELTA": 18, "SCRUB": 2}
    # Every row is gone and every image of it with it: what is left of the
    # DELTAs is one imageless −1 a row.
    entries = [entry for record in db.wal if record.record_type is LogRecordType.DELTA
               for entry in delta_entries(record)]
    assert sorted(entries) == [(key, -1, None) for key in sorted(inserted)]
