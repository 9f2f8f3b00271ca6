"""The crash rule of an in-place scrub, checked write by write.

One ``scrub_records`` call is recorded as the list of writes it issued
(``pwrite`` calls and the ``fsync`` barriers between them).  Every state of
the segment files a crash could leave behind is then rebuilt on a copy of the
pre-scrub directory and loaded:

* every *prefix* of the write list, the last write also torn in half;
* every *subset* of the writes issued since the last completed ``fsync`` —
  before a barrier the device may persist them in any order.

The rule: loading always succeeds; each targeted record loads either intact
(with its original images) or scrubbed — and a record that loads as scrubbed
is fully zeroed on disk by the time the load returns.  Never a decodable
image under a scrubbed mark, never a load failure, never a damaged bystander.
"""

import itertools
import os
import shutil

import pytest

from repro.storage import wal as wal_module
from repro.storage.wal import LogRecordType, WriteAheadLog

from ..conftest import log_dir_bytes

VICTIMS = (2, 3, 11, 12, 13)      # rows in two different segments
BYSTANDERS = tuple(row for row in range(16) if row not in VICTIMS)


def _secret(row: int) -> bytes:
    return b"SECRET-%02d-" % row + bytes([65 + row]) * 30


@pytest.fixture
def recorded_scrub(tmp_path, monkeypatch):
    """``(pristine directory, write list)`` of one scrub over VICTIMS."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    live = str(tmp_path / "live")
    wal = WriteAheadLog(live)
    for row in range(16):
        wal.append(LogRecordType.INSERT, 1, table="t", row_key=row,
                   after=_secret(row))
        if row in (3, 12):          # a second image of two of the victims
            wal.append(LogRecordType.UPDATE, 1, table="t", row_key=row,
                       attribute="a", before=_secret(row), after=_secret(row))
    wal.flush()
    assert len(os.listdir(live)) >= 2
    pristine = str(tmp_path / "pristine")
    shutil.copytree(live, pristine)

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
    assert wal.scrub_records([("t", row) for row in VICTIMS]) == 7
    monkeypatch.undo()
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 1024)
    assert sum(1 for write in writes if write[0] == "pwrite") == 14
    return pristine, writes


def _check_crash_state(tmp_path, pristine, applied, label):
    """Apply ``applied`` writes to a copy of ``pristine``; load; check the rule."""
    target = str(tmp_path / "crashed")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    for _kind, name, offset, data in applied:
        with open(os.path.join(target, name), "r+b") as handle:
            handle.seek(offset)
            handle.write(data)
    loaded = WriteAheadLog(target)                     # never a load failure
    records = loaded.records()
    assert len(records) == 18, label
    disk = log_dir_bytes(target)
    for record in records:
        original = _secret(record.row_key)
        if record.row_key in BYSTANDERS:
            assert record.after == original, label
            continue
        if record.after is None:                       # loaded as scrubbed
            assert record.before is None, label
        else:                                          # loaded intact
            assert record.after == original, label
            if record.record_type is LogRecordType.UPDATE:
                assert record.before == original, label
    for row in VICTIMS:
        held = [r for r in records if r.row_key == row and r.after is not None]
        images = sum(2 if r.record_type is LogRecordType.UPDATE else 1
                     for r in held)
        # A record that loaded as scrubbed left no byte of its image on disk.
        assert disk.count(_secret(row)) == images, label
        # And the reloaded index knows exactly the images that are left.
        assert len(loaded.records_for("t", row)) == len(held), label
    for row in BYSTANDERS:
        assert disk.count(_secret(row)) == 1, label


def test_every_prefix_of_a_scrubs_writes_obeys_the_crash_rule(
        tmp_path, recorded_scrub):
    pristine, writes = recorded_scrub
    pwrites = [write for write in writes if write[0] == "pwrite"]
    for count in range(len(pwrites) + 1):
        _check_crash_state(tmp_path, pristine, pwrites[:count],
                           f"prefix {count}")
        if count < len(pwrites) and len(pwrites[count][3]) > 1:
            kind, name, offset, data = pwrites[count]
            torn = (kind, name, offset, data[:len(data) // 2])
            _check_crash_state(tmp_path, pristine, pwrites[:count] + [torn],
                               f"prefix {count} + torn write")


def test_every_reordering_between_barriers_obeys_the_crash_rule(
        tmp_path, recorded_scrub):
    pristine, writes = recorded_scrub
    durable, epoch, states = [], [], 0
    for write in writes:
        if write[0] == "pwrite":
            epoch.append(write)
            continue
        # An fsync: before it completes, any subset of this epoch's writes
        # may be what reached the disk.
        for size in range(len(epoch) + 1):
            for subset in itertools.combinations(epoch, size):
                _check_crash_state(tmp_path, pristine, durable + list(subset),
                                   f"{len(durable)} durable + {subset!r}")
                states += 1
        durable += epoch
        epoch = []
    assert not epoch and states >= 4 * 2 ** 3


def test_marks_are_durable_before_any_zero_is_written(recorded_scrub):
    """The protocol itself: per segment, marks, a barrier, zeroes, a barrier."""
    _pristine, writes = recorded_scrub
    shape = "".join("F" if write[0] == "fsync"
                    else ("M" if len(write[3]) == 1 else "Z")
                    for write in writes)
    assert shape in ("MMMFZZZFMMMMFZZZZF", "MMMMFZZZZFMMMFZZZF")
