"""The crash rule of an in-place scrub, checked write by write.

One ``scrub_records`` call is recorded as the list of writes it issued
(``pwrite`` calls and the ``fsync`` barriers between them).  Every state of
the segment files a crash could leave behind is then rebuilt on a copy of the
pre-scrub directory and loaded:

* every *prefix* of the write list, the last write also torn in half;
* every *subset* of the writes issued since the last completed ``fsync`` —
  before a barrier the device may persist them in any order.

The log holds ``DELTA`` records: one per heap page of an insert batch, each
row a +1 entry of its own; an update of each of two rows, a −1 and a +1
entry with its image; and one that holds an imageless −1 (a removal) beside
the +1 images of a second batch.  The scrub zeroes some entries of one run
(two adjacent, one apart: it stays partly scrubbed), every entry of another
(it becomes scrubbed whole), the rest of a run an earlier scrub had already
partly zeroed, the two updates, and one +1 beside the −1 (partly scrubbed:
the −1 is never zeroed); the last run is a bystander.

The rule: loading always succeeds; each entry loads either intact or gone —
never half a live image — and one that loads as gone has no byte left on
disk by the time the load returns; recovery onto an empty heap redoes
exactly the rows a live +1 enters and erases the removed one whatever was
zeroed, and a forensic scan of the log finds none of the rows that are gone.
"""

import itertools
import os
import shutil

import pytest

from repro.core.schema import Column, TableSchema
from repro.privacy.forensic import scan_image
from repro.storage import wal as wal_module
from repro.storage.buffer import BufferPool
from repro.storage.degradable_store import TableStore
from repro.storage.pager import MemoryPager
from repro.storage.wal import LogRecordType, WriteAheadLog, delta_entries, encode_delta
from repro.txn.recovery import RecoveryManager

from ..conftest import log_dir_bytes

ROWS = 24


def _secret(row: int) -> str:
    """42 bytes: a 68-byte record, so that six rows fill a 512-byte page."""
    return "SECRET-%02d-" % row + chr(65 + row) * 31


def _store(wal: WriteAheadLog) -> TableStore:
    schema = TableSchema("t", [Column("id", "INT", primary_key=True),
                               Column("secret", "TEXT")])
    return TableStore(schema, BufferPool(MemoryPager(page_size=512), capacity=8), wal)


def _runs():
    """The DELTA records of one batch of ROWS rows on 512-byte pages, then of a
    batch of two more (made on a throwaway in-memory log)."""
    store = _store(WriteAheadLog())
    store.insert_many([{"id": row, "secret": _secret(row)} for row in range(1, ROWS + 1)],
                      now=0.0)
    store.insert_many([{"id": row, "secret": _secret(row)} for row in (ROWS + 1, ROWS + 2)],
                      now=0.0)
    return [record for record in store.wal if record.record_type is LogRecordType.DELTA]


def _append(wal: WriteAheadLog, entries) -> None:
    after, index = encode_delta(entries)
    wal.append(LogRecordType.DELTA, 0, table="t", row_key=max(key for key, *_ in entries),
               after=after, images=index)


@pytest.fixture
def recorded_scrub(tmp_path, monkeypatch):
    """``(pristine directory, write list, images, victims, copies, removed)``
    of one scrub: ``copies`` counts each row's imaged entries before it."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    live = str(tmp_path / "live")
    wal = WriteAheadLog(live)
    *runs, late = _runs()
    assert len(runs) == 4
    images = {}
    for run in runs:
        _append(wal, delta_entries(run))
        images.update((key, image) for key, _weight, image in delta_entries(run))
    keys = [[key for key, _weight, _image in delta_entries(run)] for run in runs]
    assert all(len(run_keys) >= 4 for run_keys in keys)
    copies = dict.fromkeys(images, 1)
    for row in (keys[0][1], keys[2][-1]):       # two more images of two victims
        _append(wal, [(row, -1, images[row]), (row, 1, images[row])])
        copies[row] += 2
    removed = keys[1][0]                        # removed beside a batch's +1s
    _append(wal, [*delta_entries(late), (removed, -1, None)])
    images.update((key, image) for key, _weight, image in delta_entries(late))
    copies.update(dict.fromkeys((ROWS + 1, ROWS + 2), 1))
    wal.flush()
    assert wal.scrub_records([("t", keys[2][0])]) == 1     # an earlier, partial scrub
    wal.flush()                                             # (its audit record)
    copies[keys[2][0]] = 0
    assert len(os.listdir(live)) >= 2
    pristine = str(tmp_path / "pristine")
    shutil.copytree(live, pristine)
    victims = [keys[0][0], keys[0][1], keys[0][3], *keys[1], *keys[2][1:], ROWS + 1]

    writes = []                     # ("pwrite", file name, offset, data) | ("fsync",)
    real_pwrite, real_fsync = os.pwrite, os.fsync

    def pwrite(fd, data, offset):
        name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
        writes.append(("pwrite", name, offset, bytes(data)))
        return real_pwrite(fd, data, offset)

    def fsync(fd):
        writes.append(("fsync",))
        return real_fsync(fd)

    monkeypatch.setattr(os, "pwrite", pwrite)
    monkeypatch.setattr(os, "fsync", fsync)
    assert wal.scrub_records([("t", row) for row in victims]) == len(victims) + 4
    monkeypatch.undo()
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    return pristine, writes, images, {keys[2][0], *victims}, copies, removed


def _check_crash_state(tmp_path, recorded, applied, label):
    """Apply ``applied`` writes to a copy of the pristine log; load; check
    the rule."""
    pristine, _writes, images, victims, copies, removed = recorded
    target = str(tmp_path / "crashed")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    for _kind, name, offset, data in applied:
        with open(os.path.join(target, name), "r+b") as handle:
            handle.seek(offset)
            handle.write(data)
    loaded = WriteAheadLog(target)                     # never a load failure
    assert len(loaded) == 8, label
    held, records, entering, leaving = {}, {}, set(), []
    for record in loaded:
        entries = delta_entries(record) if record.record_type is LogRecordType.DELTA else []
        replaced = {key for key, weight, image in entries if weight < 0 and image}
        for key, weight, image in entries:
            if image is None:
                leaving.append(key)
                continue
            assert image == images[key], label         # intact, never half an image
            held[key] = held.get(key, 0) + 1
            records.setdefault(key, set()).add(record.lsn)
            if weight > 0 and key not in replaced:
                entering.add(key)
    assert leaving == [removed], label                 # an imageless −1 is never zeroed
    disk = log_dir_bytes(target)
    for row, image in images.items():
        if row not in victims:
            assert held.get(row, 0) == copies[row], label
        # An entry that loaded as gone left no byte of its image on disk.
        assert disk.count(image) == held.get(row, 0), label
        # And the reloaded index knows exactly the records that are left.
        assert len(loaded.records_for("t", row)) == len(records.get(row, ())), label
    # Recovery onto an empty heap redoes exactly the rows a live +1 enters,
    # less the removed one: its −1 is redone whatever the scrub zeroed ...
    store = _store(loaded)
    report = RecoveryManager(loaded, {"t": store}).recover()
    assert sorted(store.row_keys()) == sorted(entering - {removed}), label
    assert report.redone_inserts == len(entering), label
    assert report.redone_removes == (removed in entering), label
    # ... and nothing of a row that is gone is left in the log.
    gone = [_secret(row) for row in images if not held.get(row)]
    assert scan_image(log_dir_bytes(target), gone).clean, label


def test_every_prefix_of_a_scrubs_writes_obeys_the_crash_rule(
        tmp_path, recorded_scrub):
    writes = recorded_scrub[1]
    pwrites = [write for write in writes if write[0] == "pwrite"]
    for count in range(len(pwrites) + 1):
        _check_crash_state(tmp_path, recorded_scrub, pwrites[:count], f"prefix {count}")
        if count < len(pwrites) and len(pwrites[count][3]) > 1:
            kind, name, offset, data = pwrites[count]
            torn = (kind, name, offset, data[:len(data) // 2])
            _check_crash_state(tmp_path, recorded_scrub, pwrites[:count] + [torn],
                               f"prefix {count} + torn write")


def test_every_reordering_between_barriers_obeys_the_crash_rule(
        tmp_path, recorded_scrub):
    writes = recorded_scrub[1]
    durable, epoch, states = [], [], 0
    for write in writes:
        if write[0] == "pwrite":
            epoch.append(write)
            continue
        # An fsync: before it completes, any subset of this epoch's writes
        # may be what reached the disk.
        for size in range(len(epoch) + 1):
            for subset in itertools.combinations(epoch, size):
                _check_crash_state(tmp_path, recorded_scrub, durable + list(subset),
                                   f"{len(durable)} durable + {subset!r}")
                states += 1
        durable += epoch
        epoch = []
    assert not epoch and states >= 4 * 2 ** 2


def test_marks_are_durable_before_any_zero_is_written(recorded_scrub):
    """The protocol itself: per segment, marks, a barrier, zeroes, a barrier
    — one mark per record, one zeroing write per stretch of adjacent images."""
    writes = recorded_scrub[1]
    shape = "".join("F" if write[0] == "fsync"
                    else ("M" if len(write[3]) == 1 else "Z")
                    for write in writes)
    # One segment a run: the one left partly scrubbed — a mark, a write for
    # its two adjacent entries and one for the third; the bystander's, beside
    # one update, scrubbed whole; the run scrubbed whole and the one an
    # earlier scrub had left partly scrubbed; last the other update, scrubbed
    # whole, and the removal's DELTA, left partly scrubbed: one write for the
    # +1 it loses.
    assert shape == "MFZZF" + "MFZF" + "MFZF" + "MFZF" + "MMFZZF"
