"""Page runs as derived state, and kernels that read the slot directory.

* the work count — a full read groups the address map into page runs once;
  an unchanged table's next full read reuses them, an insert extends them
  and every other change to the map drops them;
* the armed check — under ``REPRO_DEBUG_INVARIANTS=1`` every full read
  compares the cached runs with a fresh grouping, so a change to the map
  that skips its invalidation is an ``InvariantViolation``;
* snapshots — the runs are replaced, never mutated: a half-consumed lazy
  scan sees no row inserted after it started and no image older than the
  last degradation step, across an insert, a delete, a relocating wave and
  ``restore_rows``;
* error parity — a slot out of range or deleted raises the
  ``RecordNotFoundError`` the directory read raises, through the scan
  kernel and the wave kernel alike.
"""

import pytest

import repro
from repro.core.errors import RecordNotFoundError
from repro.devtools import invariants
from repro.storage.degradable_store import TableStore
from repro.storage.heap import RecordId
from repro.storage.page import record_span

from .test_record_reader import SALARY, fill, make_store


def row(i):
    return {"id": i, "name": f"n{i}", "location": "1 Main Street, Paris",
            "score": 0.0, "salary": 2500 + i, "active": True}


@pytest.fixture
def groupings(monkeypatch):
    """Count the groupings of the address map into page runs (unarmed:
    the armed check groups once more per full read)."""
    monkeypatch.setattr(invariants, "_enabled", False)
    calls = []
    grouped = TableStore._grouped

    def counted(*args):
        calls.append(args)
        return grouped(*args)

    monkeypatch.setattr(TableStore, "_grouped", staticmethod(counted))
    return calls


def test_two_full_scans_of_an_unchanged_table_group_the_runs_once(groupings):
    store = make_store()
    keys = fill(store, 200)
    assert groupings == []                  # no full read yet: nothing to extend
    first = [stored.row_key for stored in store.scan()]
    second = [stored.row_key for stored in store.scan(frozenset({"name"}))]
    assert first == second == keys and len(groupings) == 1
    extra = store.insert_many([row(500), row(501)], now=1.0).keys
    assert len(groupings) == 2              # the new keys' runs, at the tail
    assert [stored.row_key for stored in store.scan()] == keys + list(extra)
    assert len(groupings) == 2
    store.delete([keys[7]], now=1.0)
    assert store._runs is None
    assert len(list(store.scan())) == len(keys) + 1 and len(groupings) == 3


def sabotage(monkeypatch, name):
    """``TableStore.<name>`` that leaves the page runs as they were."""
    original = getattr(TableStore, name)

    def forgetful(self, *args, **kwargs):
        runs = self._runs
        try:
            return original(self, *args, **kwargs)
        finally:
            self._runs = runs

    monkeypatch.setattr(TableStore, name, forgetful)


def relocate(store, keys):
    """A wave growing every record (INT salary → TEXT range): rows move."""
    moved = store.stats.relocations
    store.degrade_many([([key for key in keys if store.exists(key)], "salary", SALARY, 1)],
                       now=2.0)
    assert store.stats.relocations > moved


def restore(store, keys, step):
    """A row removed, then written back from its image (recovery's redo)."""
    image = store.image(store.read(keys[-1 - step]))
    store.delete([keys[-1 - step]], now=1.0)
    list(store.scan())                  # the runs of the map without it
    store.restore_rows([(keys[-1 - step], image)])


def rebuild(store, keys, step):
    """The map rebuilt from the heap, in page order, after it was out of it."""
    store._locations, store._runs = dict(reversed(store._locations.items())), None
    list(store.scan())                  # the runs of the map out of page order
    store.rebuild_locations()


#: site → the change of the address map made there (``step`` 0, then 1)
CHANGES = {
    "insert_many": lambda store, keys, step: store.insert_many([row(900 + step)], now=1.0),
    "_erase": lambda store, keys, step: store.delete([keys[3 + step]], now=1.0),
    "_rewrite_records": lambda store, keys, step: relocate(store, keys[150 * step:][:150]),
    "restore_rows": restore,
    "rebuild_locations": rebuild,
}


@pytest.mark.parametrize("site", sorted(CHANGES))
def test_an_armed_full_read_catches_a_skipped_invalidation(monkeypatch, site):
    monkeypatch.setattr(invariants, "_enabled", True)
    store = make_store()
    keys = fill(store, 300)
    list(store.scan())
    CHANGES[site](store, keys, 0)       # done right: the check holds
    assert len(list(store.scan())) == store.row_count
    sabotage(monkeypatch, site)
    CHANGES[site](store, keys, 1)
    with pytest.raises(invariants.InvariantViolation, match="cached page runs out of step"):
        list(store.scan())


@pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
def test_a_lazy_scan_keeps_its_snapshot_of_the_runs(strategy):
    store = make_store(strategy)
    keys = fill(store, 300)
    assert len(list(store.scan())) == 300   # the runs exist: an insert extends them
    image = store.image(store.read(keys[250]))
    scan = store.scan()
    seen = [next(scan) for _ in range(10)]

    def pull(count):
        for _ in range(count):
            stored = next(scan)
            current = store.read(stored.row_key)    # never older than the store's
            assert (stored.levels, stored.values) == (current.levels, current.values)
            seen.append(stored)

    late = store.insert_many([row(1000 + i) for i in range(40)], now=1.0).keys
    pull(5)
    store.delete([keys[20], keys[200]], now=1.0)
    pull(5)
    relocate(store, keys[5:150])
    pull(5)
    store.delete([keys[250]], now=3.0)
    store.restore_rows([(keys[250], image)])  # back from its image: redo's restore
    seen.extend(scan)
    got = [stored.row_key for stored in seen]
    assert len(got) == len(set(got)) and not set(got) & set(late)
    assert set(got) == set(keys) - {keys[20], keys[200]}
    assert all(stored.levels["salary"] == 1 for stored in seen[25:]
               if stored.row_key in keys[5:150])


def test_an_engine_cursor_sees_no_row_inserted_after_it_started():
    connection = repro.connect()
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, note TEXT)")
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"note-{i}") for i in range(400)])
    connection.commit()
    cursor.execute("SELECT COUNT(*) FROM t")    # a full read: the runs are built
    reader = connection.cursor()
    reader.execute("SELECT id FROM t")
    seen = [reader.fetchone()[0] for _ in range(5)]
    connection.cursor().executemany("INSERT INTO t VALUES (?, ?)",
                                    [(i, "late") for i in range(400, 450)])
    connection.cursor().execute("DELETE FROM t WHERE id >= 100 AND id < 120")
    while (fetched := reader.fetchone()) is not None:
        seen.append(fetched[0])
    connection.commit()
    assert sorted(seen) == sorted(set(range(400)) - set(range(100, 120)))


class TestErrorParity:
    """A location pointing at a slot the page does not hold — out of range,
    or deleted under the map — fails as the directory read does."""

    def lost(self, store, key, deleted):
        record_id = store._locations[key]
        if deleted:
            store.buffer_pool.get_page(record_id.page_id).delete(record_id.slot)
            slot = record_id.slot
        else:
            slot = 4000
            store._locations[key] = RecordId(record_id.page_id, slot)
        with pytest.raises(RecordNotFoundError) as expected:
            record_span(store.heap.frame(record_id.page_id), slot)
        message = f"slot {slot} {'is deleted' if deleted else 'out of range'}"
        assert str(expected.value) == message
        return message

    @pytest.mark.parametrize("deleted", [False, True])
    def test_the_scan_kernel(self, deleted):
        store = make_store()
        keys = fill(store, 50)
        message = self.lost(store, keys[9], deleted)
        for read in (lambda: store.read(keys[9]), lambda: list(store.scan()),
                     lambda: list(store.fetch(iter(keys)))):
            with pytest.raises(RecordNotFoundError, match=f"^{message}$"):
                read()

    @pytest.mark.parametrize("strategy", ["rewrite", "crypto"])
    @pytest.mark.parametrize("deleted", [False, True])
    def test_the_wave_kernel(self, strategy, deleted):
        store = make_store(strategy)
        keys = fill(store, 50)
        message = self.lost(store, keys[9], deleted)
        with pytest.raises(RecordNotFoundError, match=f"^{message}$"):
            store.degrade_many([(keys[5:15], "salary", SALARY, 1)], now=1.0)
