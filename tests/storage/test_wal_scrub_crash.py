"""The crash rule of an in-place scrub, checked write by write.

One ``scrub_records`` call is recorded as the list of writes it issued
(``pwrite`` calls and the ``fsync`` barriers between them).  Every state of
the segment files a crash could leave behind is then rebuilt on a copy of the
pre-scrub directory and loaded:

* every *prefix* of the write list, the last write also torn in half;
* every *subset* of the writes issued since the last completed ``fsync`` —
  before a barrier the device may persist them in any order.

The log holds ``INSERT_RUN`` records — one per heap page of an insert batch,
each row a sub-image of its own — and ``UPDATE`` images of two rows.  The
scrub zeroes some sub-images of one run (two adjacent, one apart: it stays
partly scrubbed), every sub-image of another (it becomes scrubbed whole),
the rest of a run an earlier scrub had already partly zeroed, and the two
``UPDATE`` images; the last run is a bystander.

The rule: loading always succeeds; each row image loads either intact or
gone — never half a live image — and one that loads as gone has no byte left
on disk by the time the load returns; recovery onto an empty heap redoes
exactly the rows whose sub-images are live, and a forensic scan of the log
finds none of the rows that are gone.
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
from repro.storage.wal import LogRecordType, WriteAheadLog, run_images
from repro.txn.recovery import RecoveryManager

from ..conftest import log_dir_bytes

ROWS = 24


def _secret(row: int) -> str:
    return "SECRET-%02d-" % row + chr(65 + row) * 30


def _store(wal: WriteAheadLog) -> TableStore:
    schema = TableSchema("t", [Column("id", "INT", primary_key=True),
                               Column("secret", "TEXT")])
    return TableStore(schema, BufferPool(MemoryPager(page_size=512), capacity=8), wal)


def _runs():
    """The INSERT_RUN payloads of one batch of ROWS rows on 512-byte pages
    (made on a throwaway in-memory log, so the recorded one holds no PAGE_ALLOC)."""
    store = _store(WriteAheadLog())
    store.insert_many([{"id": row, "secret": _secret(row)} for row in range(1, ROWS + 1)],
                      now=0.0)
    return [record for record in store.wal if record.record_type is LogRecordType.INSERT_RUN]


@pytest.fixture
def recorded_scrub(tmp_path, monkeypatch):
    """``(pristine directory, write list, images, victims)`` of one scrub."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    live = str(tmp_path / "live")
    wal = WriteAheadLog(live)
    runs = _runs()
    assert len(runs) == 4
    images = {}
    for run in runs:
        wal.append(LogRecordType.INSERT_RUN, 0, table="t", row_key=run.row_key,
                   after=bytearray(run.after))
        images.update(run_images(run))
    keys = [[row_key for row_key, _image in run_images(run)] for run in runs]
    assert all(len(run_keys) >= 4 for run_keys in keys)
    for row in (keys[0][1], keys[2][-1]):       # a second image of two victims
        wal.append(LogRecordType.UPDATE, 0, table="t", row_key=row, attribute="secret",
                   before=images[row], after=images[row])
    wal.flush()
    assert wal.scrub_record("t", keys[2][0]) == 1   # an earlier, partial scrub
    wal.flush()                                     # (its audit record)
    assert len(os.listdir(live)) >= 2
    pristine = str(tmp_path / "pristine")
    shutil.copytree(live, pristine)
    victims = [keys[0][0], keys[0][1], keys[0][3], *keys[1], *keys[2][1:]]

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
    assert wal.scrub_records([("t", row) for row in victims]) == len(victims) + 2
    monkeypatch.undo()
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    return pristine, writes, images, {keys[2][0], *victims}


def _check_crash_state(tmp_path, recorded, applied, label):
    """Apply ``applied`` writes to a copy of the pristine log; load; check
    the rule."""
    pristine, _writes, images, victims = recorded
    target = str(tmp_path / "crashed")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    for _kind, name, offset, data in applied:
        with open(os.path.join(target, name), "r+b") as handle:
            handle.seek(offset)
            handle.write(data)
    loaded = WriteAheadLog(target)                     # never a load failure
    assert len(loaded) == 7, label
    live = {}
    for record in loaded:
        if record.record_type is LogRecordType.INSERT_RUN:
            live.update(run_images(record))
    updates = {record.row_key: record for record in loaded
               if record.record_type is LogRecordType.UPDATE}
    for record in updates.values():
        assert record.after is None or record.after == record.before == images[
            record.row_key], label
    disk = log_dir_bytes(target)
    for row, image in images.items():
        if row not in victims:
            assert live.get(row) == image, label
        else:                                          # intact, or gone whole
            assert live.get(row, image) == image, label
        held = (row in live) + 2 * (row in updates and updates[row].after is not None)
        # A sub-image that loaded as gone left no byte of its image on disk.
        assert disk.count(image) == held, label
        # And the reloaded index knows exactly the records that are left.
        assert len(loaded.records_for("t", row)) == (row in live) + (held > 1), label
    # Recovery onto an empty heap redoes exactly the live rows ...
    store = _store(loaded)
    report = RecoveryManager(loaded, {"t": store}).recover()
    assert sorted(store.row_keys()) == sorted(live), label
    assert report.redone_inserts == len(live), label
    # ... and nothing of a row that is gone is left in the log.
    gone = [_secret(row) for row in images if row not in live
            and not (row in updates and updates[row].after is not None)]
    assert scan_image(log_dir_bytes(target), gone).clean, label


def test_every_prefix_of_a_scrubs_writes_obeys_the_crash_rule(
        tmp_path, recorded_scrub):
    _pristine, writes, _images, _victims = recorded_scrub
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
    _pristine, writes, _images, _victims = recorded_scrub
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
    _pristine, writes, _images, _victims = recorded_scrub
    shape = "".join("F" if write[0] == "fsync"
                    else ("M" if len(write[3]) == 1 else "Z")
                    for write in writes)
    # One segment a run: the one left partly scrubbed — a mark, a write for
    # its two adjacent sub-images and one for the third; the bystander's
    # segment holds both UPDATEs; then the run scrubbed whole and the one an
    # earlier scrub had left partly scrubbed.
    assert shape == "MFZZF" + "MMFZZF" + "MFZF" + "MFZF"
