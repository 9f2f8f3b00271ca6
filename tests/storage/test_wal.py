"""Tests for the degradation-aware write-ahead log."""

import os

import pytest

from repro.core.errors import (
    DurabilityError,
    LogCorruptionError,
    LogFormatError,
    WALError,
)
from repro.faults import FaultPlan
from repro.storage import wal as wal_module
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog, encode_delta

from ..conftest import log_dir_bytes as disk_bytes


def change(wal, row_key, *images, txn_id=1, table="t"):
    """Append a one-row DELTA: ``row_key`` entering with its one image, or
    replaced — a −1 with the first image, a +1 with the second."""
    entries = [(row_key, 1, images[-1])]
    if len(images) == 2:
        entries.insert(0, (row_key, -1, images[0]))
    after, index = encode_delta(entries)
    return wal.append(LogRecordType.DELTA, txn_id, table=table, row_key=row_key,
                      after=after, images=index)


def payload(*entries):
    """The DELTA payload of ``entries``."""
    return encode_delta(entries)[0]


def segment_paths(path):
    """The log directory's segment files, oldest first."""
    return [os.path.join(path, name) for name in sorted(os.listdir(path))
            if name.endswith(".seg")]


def disk_size(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


@pytest.fixture
def small_segments(monkeypatch):
    """Roll segments every ~600 bytes so a few records span several files."""
    monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 600)


class TestBasicProtocol:
    def test_append_assigns_dense_lsns(self):
        wal = WriteAheadLog()
        first = wal.append(LogRecordType.BEGIN, txn_id=1)
        second = wal.append(LogRecordType.COMMIT, txn_id=1)
        assert (first.lsn, second.lsn) == (1, 2)
        assert wal.last_lsn == 2
        assert len(wal) == 2

    def test_flush_advances_flushed_lsn(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, txn_id=1)
        assert wal.flushed_lsn == 0
        wal.flush()
        assert wal.flushed_lsn == 1

    def test_records_for(self):
        """The row's records that still hold an image of it — what a scrub
        would hit; a scrub-exempt record naming the row holds none."""
        wal = WriteAheadLog()
        change(wal, 7, b"img", table="person")
        change(wal, 8, b"img", table="person")
        change(wal, 7, b"img", b"img2", table="person")
        wal.append(LogRecordType.TABLE_DROP, 0, table="person", row_key=7, after=b"1")
        assert [record.lsn for record in wal.records_for("person", 7)] == [1, 3]
        wal.scrub_records([("person", 7)])
        assert wal.records_for("person", 7) == []

    def test_no_record_carries_a_before_image(self):
        """No record has a before-image field: there is none to fill."""
        wal = WriteAheadLog()
        with pytest.raises(TypeError):
            wal.append(LogRecordType.DELTA, 0, table="t", row_key=1,
                       attribute="loc", before=b"accurate!")

    def test_record_encode_decode_roundtrip(self):
        record = LogRecord(lsn=3, txn_id=9, record_type=LogRecordType.DELTA,
                           table="person", row_key=4, attribute="name",
                           after=payload((4, -1, b"old"), (4, 1, b"new"), (2, -1, None)),
                           timestamp=12.5)
        decoded = LogRecord.decode(record.encode())
        assert decoded == record

    def test_empty_image_is_not_a_missing_image(self):
        record = LogRecord(lsn=1, txn_id=0, record_type=LogRecordType.CATALOG,
                           table="t", row_key=1, after=b"")
        assert LogRecord.decode(record.encode()) == record

    def test_decode_malformed_rejected(self):
        from repro.storage.serialization import encode_record
        with pytest.raises(WALError):
            LogRecord.decode(encode_record([1, 2, 3]))

    def test_decode_rejects_a_flipped_bit_anywhere(self):
        encoded = LogRecord(lsn=3, txn_id=9, record_type=LogRecordType.DELTA,
                            table="person", row_key=4, attribute="name",
                            after=payload((4, -1, b"old"), (4, 1, b"new"))).encode()
        for position in range(len(encoded)):
            damaged = bytearray(encoded)
            damaged[position] ^= 0x10
            with pytest.raises(LogCorruptionError):
                LogRecord.decode(bytes(damaged))


class TestScrubbing:
    def test_scrub_removes_images_but_keeps_structure(self):
        wal = WriteAheadLog()
        change(wal, 7, b"SENSITIVE", table="person")
        change(wal, 7, b"SENSITIVE", b"SENSITIVE2", table="person")
        scrubbed = wal.scrub_records([("person", 7)])
        assert scrubbed == 3               # the entering image, then the −1's and the +1's
        assert b"SENSITIVE" not in wal.raw_image()
        # The structural records are still there plus an audit SCRUB record.
        types = [record.record_type for record in wal]
        assert types.count(LogRecordType.DELTA) == 2
        assert LogRecordType.SCRUB in types

    def test_scrub_untouched_rows_left_alone(self):
        wal = WriteAheadLog()
        change(wal, 1, b"keep-me", table="person")
        change(wal, 2, b"scrub-me", table="person")
        wal.scrub_records([("person", 2)])
        assert b"keep-me" in wal.raw_image()
        assert b"scrub-me" not in wal.raw_image()

    def test_scrub_nothing_matching_returns_zero(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, 1)
        assert wal.scrub_records([("person", 99)]) == 0
        assert wal.stats.scrub_passes == 0

    def test_exempt_records_are_not_scrubbed(self):
        """A scrub-exempt record naming a row holds no image of it: a wave
        over rows whose images are already gone finds nothing to scrub."""
        wal = WriteAheadLog()
        wal.append(LogRecordType.CATALOG, 0, table="person", row_key=7,
                   attribute="loc", after=b"\x01")
        assert wal.scrub_records([("person", 7)]) == 0
        assert wal.records()[0].after == b"\x01"
        assert len(wal) == 1               # not even an audit record


class TestBulkScrubbing:
    def test_scrub_records_single_rewrite_for_many_keys(self):
        wal = WriteAheadLog()
        for row_key in range(1, 6):
            change(wal, row_key, f"SECRET-{row_key}".encode(), table="person")
        scrubbed = wal.scrub_records([("person", row_key) for row_key in range(1, 6)])
        assert scrubbed == 5
        assert wal.stats.scrubbed_records == 5
        # One pass for the whole batch, not one per key.
        assert wal.stats.scrub_passes == 1
        assert b"SECRET" not in wal.raw_image()
        # One aggregate SCRUB audit record for the whole batch: a mass-removal
        # wave grows the log by O(1) audit bytes, not one record per key.
        audits = [record for record in wal
                  if record.record_type is LogRecordType.SCRUB]
        assert len(audits) == 1
        assert audits[0].table == "person"
        assert audits[0].attribute == "batch:5"

    def test_scrub_records_empty_and_unmatched_keys(self):
        wal = WriteAheadLog()
        change(wal, 1, b"keep", table="person")
        assert wal.scrub_records([]) == 0
        assert wal.scrub_records([("person", 99), ("other", 1)]) == 0
        assert wal.stats.scrub_passes == 0
        assert b"keep" in wal.raw_image()

    def test_scrub_records_rewrites_file_once(self, tmp_path):
        """Only the image bytes are rewritten (with zeroes), in one pass."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        change(wal, 1, b"AAA-ONE")
        change(wal, 2, b"BBB-TWO")
        wal.flush()
        size = disk_size(path)
        wal.scrub_records([("t", 1), ("t", 2)])
        data = disk_bytes(path)
        assert b"AAA-ONE" not in data and b"BBB-TWO" not in data
        assert wal.stats.scrub_passes == 1
        assert disk_size(path) == size     # no byte moved; SCRUB is pending
        # The pass left the files consistent: reloading sees every flushed
        # record once, the two scrubbed ones without their images.
        wal.flush()
        reopened = WriteAheadLog(path)
        assert len(reopened) == len(wal)
        assert [record.after for record in reopened.records()[:2]] == [None, None]

    def test_unmatched_keys_cost_no_io(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        change(wal, 1, b"keep")
        wal.flush()
        wal.append(LogRecordType.SCHED_EVENT, 0, attribute="a", timestamp=2.0)
        written = wal.stats.bytes_written
        assert wal.scrub_records([("t", 2), ("t", 3)]) == 0
        assert wal.stats.bytes_written == written
        assert wal.flushed_lsn == 1        # not even the pending suffix


class TestAppendOnlyFlush:
    def test_flush_appends_only_new_records(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        size_after_first = disk_size(path)
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.flush()
        grown = disk_size(path) - size_after_first
        assert 0 < grown < size_after_first * 2
        reopened = WriteAheadLog(path)
        assert [record.lsn for record in reopened] == [1, 2]

    def test_flush_without_pending_records_writes_nothing(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        written = wal.stats.bytes_written
        wal.flush()
        wal.flush()
        assert wal.stats.bytes_written == written

    def test_flush_after_scrub_does_not_duplicate(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        change(wal, 1, b"img")
        wal.flush()
        wal.scrub_records([("t", 1)])       # zeroes in place (SCRUB appended too)
        wal.flush()                    # must not re-append already-persisted records
        reopened = WriteAheadLog(path)
        assert len(reopened) == len(wal)

    def test_append_after_torn_tail_survives_reload(self, tmp_path):
        """Reopening truncates a torn tail so appended records stay readable."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        with open(segment_paths(path)[-1], "ab") as handle:
            handle.write(b"\x07\x00")   # torn partial write
        reopened = WriteAheadLog(path)
        assert len(reopened) == 1
        reopened.append(LogRecordType.COMMIT, txn_id=1)
        reopened.flush()
        # The flushed record must not hide behind leftover garbage bytes.
        final = WriteAheadLog(path)
        assert [record.record_type for record in final] == \
            [LogRecordType.BEGIN, LogRecordType.COMMIT]

    def test_insert_run_does_linear_log_io(self, tmp_path):
        """1k appended+flushed records cost O(n) bytes of log I/O, not O(n^2)."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(1000):
            change(wal, row_key, b"payload-bytes", txn_id=row_key)
            wal.flush()                # one durability point per insert
        # Append-only: total bytes written == bytes on disk (records plus
        # one small header per segment).
        assert wal.stats.bytes_written == disk_size(path)
        assert wal.stats.flushed == 1000
        reopened = WriteAheadLog(path)
        assert len(reopened) == 1000


class TestTruncation:
    def test_truncate_until_drops_prefix(self):
        wal = WriteAheadLog()
        for _ in range(5):
            wal.append(LogRecordType.BEGIN, txn_id=1)
        dropped = wal.truncate_until(3)
        assert dropped == 3
        assert [record.lsn for record in wal] == [4, 5]

    def test_truncate_nothing(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.BEGIN, 1)
        assert wal.truncate_until(0) == 0

    def test_truncate_at_a_rolled_boundary_unlinks_whole_segments(
            self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):
            change(wal, row_key, b"x" * 40)
        wal.roll()
        anchor = wal.append(LogRecordType.CATALOG, 0, after=b"catalog")
        wal.append(LogRecordType.CHECKPOINT, 0)
        wal.flush()
        assert len(segment_paths(path)) > 3
        written = wal.stats.bytes_written
        assert wal.truncate_until(anchor.lsn - 1) == 30
        # Unlink only: nothing was rewritten, and exactly the post-anchor
        # records (one segment header + two records) are left on disk.
        assert wal.stats.bytes_written == written
        assert len(segment_paths(path)) == 1
        assert disk_size(path) == 24 + sum(
            len(record.encode()) for record in wal)
        assert [record.lsn for record in WriteAheadLog(path)] == \
            [anchor.lsn, anchor.lsn + 1]

    def test_truncate_inside_a_segment_keeps_that_segment_whole(
            self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):              # row key k is LSN k + 1
            change(wal, row_key, b"SECRET-%02d" % row_key)
        wal.flush()
        firsts = [int(os.path.basename(p)[:20]) for p in segment_paths(path)]
        boundary = max(first for first in firsts if first <= 13)
        assert boundary < 13 < firsts[firsts.index(boundary) + 1] - 1
        written = wal.stats.bytes_written
        assert wal.truncate_until(13) == boundary - 1
        assert [record.lsn for record in wal] == list(range(boundary, 31))
        assert wal.stats.bytes_written == written    # nothing rewritten
        data = disk_bytes(path)
        assert b"SECRET-%02d" % (boundary - 2) not in data
        assert b"SECRET-12" in data and b"SECRET-13" in data
        assert not [n for n in os.listdir(path) if n.endswith(".tmp")]
        # The boundary segment's records survive a reopen, and scrubs still
        # find them.
        reopened = WriteAheadLog(path)
        assert [record.lsn for record in reopened] == list(range(boundary, 31))
        assert reopened.scrub_records([("t", 12)]) == 1
        assert b"SECRET-12" not in disk_bytes(path)

    def test_truncate_everything_then_append(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for _ in range(3):
            wal.append(LogRecordType.BEGIN, txn_id=1)
        assert wal.truncate_until(99) == 3
        assert segment_paths(path) == []
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.flush()
        assert [record.lsn for record in WriteAheadLog(path)] == [4]


class TestPersistence:
    def test_reload_from_file(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        change(wal, 1, b"x")
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.flush()

        reopened = WriteAheadLog(path)
        assert len(reopened) == 3
        assert reopened.last_lsn == 3
        assert reopened.records()[1].after == payload((1, 1, b"x"))

    def test_torn_tail_ignored_on_reload(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.COMMIT, txn_id=1)
        wal.flush()
        # Simulate a torn write: chop the last few bytes of the last segment.
        segment = segment_paths(path)[-1]
        os.truncate(segment, os.path.getsize(segment) - 5)
        reopened = WriteAheadLog(path)
        assert len(reopened) == 1

    def test_scrub_rewrites_file(self, tmp_path):
        """The image bytes on disk are overwritten where they lie."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        change(wal, 1, b"PLAINTEXT")
        wal.flush()
        before = disk_bytes(path)
        assert b"PLAINTEXT" in before
        wal.scrub_records([("t", 1)])
        after = disk_bytes(path)
        assert b"PLAINTEXT" not in after
        assert len(after) == len(before)
        # The record's whole payload (its one entry) and the record CRC.
        assert wal.stats.scrub_bytes_zeroed == len(payload((1, 1, b"PLAINTEXT"))) + 4

    def test_old_single_file_log_is_refused(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"\x10\x00\x00\x00old-format")
        with pytest.raises(LogFormatError, match="format version 1"):
            WriteAheadLog(str(tmp_path / "wal"))
        with pytest.raises(LogFormatError, match="format version 1"):
            WriteAheadLog(str(tmp_path / "wal.log"))

    def test_segment_of_another_format_version_is_refused(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        segment = segment_paths(path)[0]
        data = bytearray(open(segment, "rb").read())
        # The header's version field.  Version 2 numbered its record types
        # differently (it had SEGMENT_DEGRADE): replaying it would misread them.
        data[8] = 2
        open(segment, "wb").write(bytes(data))
        with pytest.raises(LogFormatError, match="format version 2"):
            WriteAheadLog(path)

    def test_a_format_9_segment_is_refused(self, tmp_path):
        """A segment a format-9 build wrote — header intact, its CRC valid —
        numbers its record types differently (its DEGRADE had the code
        CHECKPOINT has now): it is refused, not misread."""
        from zlib import crc32
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.CHECKPOINT, txn_id=0)
        wal.flush()
        segment = segment_paths(path)[0]
        data = bytearray(open(segment, "rb").read())
        data[8:12] = (9).to_bytes(4, "little")
        data[20:24] = crc32(bytes(data[:20])).to_bytes(4, "little")
        open(segment, "wb").write(bytes(data))
        with pytest.raises(LogFormatError, match="format version 9"):
            WriteAheadLog(path)

    def test_a_version_3_data_directory_is_refused(self, tmp_path):
        # Version 3 logged one schedule registration per row and checkpointed
        # the schedule record by record; version 4 logged one INSERT per row
        # and numbered its types with DELETE among them; version 5 logged the
        # schedule in four record types this build no longer has; version 6
        # logged a row change as INSERT_RUN, UPDATE or REMOVE; version 7's row
        # images stored each level as a tagged 8-byte INT and its CATALOG
        # documents uncompressed; version 8 logged page ownership in a
        # record type of its own and in every CHECKPOINT's payload; version 9
        # logged each wave chunk as a DEGRADE record, whose code CHECKPOINT
        # took; version 10's row images held their values in declared
        # column order; version 11's stored every INT in 8 bytes and every
        # TEXT length in 4.
        from repro import InstantDB
        from repro.storage.wal import WAL_FORMAT_VERSION
        assert WAL_FORMAT_VERSION == 12
        for version in (3, 4, 5, 6, 7, 8, 9, 10, 11):
            data_dir = str(tmp_path / f"v{version}")
            db = InstantDB(data_dir=data_dir)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.executemany("INSERT INTO t VALUES (?)", [(1,), (2,)])
            db.close()
            for segment in segment_paths(str(tmp_path / f"v{version}" / "wal")):
                data = bytearray(open(segment, "rb").read())
                data[8] = version
                open(segment, "wb").write(bytes(data))
            with pytest.raises(LogFormatError, match=f"format version {version}"):
                InstantDB(data_dir=data_dir)


class TestSegments:
    def test_rollover_at_the_size_cap(self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(40):
            change(wal, row_key, b"y" * 50)
            if row_key % 7 == 0:
                wal.flush()
        wal.flush()
        segments = segment_paths(path)
        assert len(segments) > 5
        assert all(os.path.getsize(p) <= 600 for p in segments)
        # Files are named by the first LSN they hold.
        reopened = WriteAheadLog(path)
        assert [record.lsn for record in reopened] == list(range(1, 41))
        firsts = [int(os.path.basename(p).split(".")[0]) for p in segments]
        assert firsts[0] == 1 and firsts == sorted(firsts)

    def test_oversized_record_gets_a_segment_of_its_own(
            self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.append(LogRecordType.CATALOG, 0, after=b"s" * 5000)
        wal.append(LogRecordType.CHECKPOINT, 0)
        wal.flush()
        sizes = [os.path.getsize(p) for p in segment_paths(path)]
        assert len(sizes) == 3 and sizes[1] > 5000
        reopened = WriteAheadLog(path)
        assert reopened.records()[1].after == b"s" * 5000

    def test_no_preallocation(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        assert disk_size(path) == 24 + len(wal.records()[0].encode())

    def test_mid_log_damage_is_a_typed_error(self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):
            change(wal, row_key, b"z" * 40)
        wal.flush()
        sealed = segment_paths(path)[1]
        data = bytearray(open(sealed, "rb").read())
        data[-10] ^= 0x01                   # inside the last record's image
        open(sealed, "wb").write(bytes(data))
        with pytest.raises(LogCorruptionError, match="CRC"):
            WriteAheadLog(path)

    def test_missing_segment_is_a_typed_error(self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):
            change(wal, row_key, b"z" * 40)
        wal.flush()
        os.unlink(segment_paths(path)[1])
        with pytest.raises(LogCorruptionError, match="missing"):
            WriteAheadLog(path)

    def test_damaged_tail_of_the_last_segment_is_chopped(
            self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):
            change(wal, row_key, b"z" * 40)
        wal.flush()
        last = segment_paths(path)[-1]
        data = bytearray(open(last, "rb").read())
        data[-10] ^= 0x01
        open(last, "wb").write(bytes(data))
        reopened = WriteAheadLog(path)
        assert [record.lsn for record in reopened] == list(range(1, 30))
        assert os.path.getsize(last) < len(data)

    def test_segment_created_but_never_written_is_dropped(self, tmp_path):
        """A crash between creating a segment file and its header landing."""
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        open(os.path.join(path, f"{2:020d}.seg"), "wb").close()
        reopened = WriteAheadLog(path)
        assert len(reopened) == 1 and len(segment_paths(path)) == 1
        reopened.append(LogRecordType.COMMIT, txn_id=1)
        reopened.flush()
        assert [record.lsn for record in WriteAheadLog(path)] == [1, 2]

    def test_reopen_rebuilds_the_image_index(self, tmp_path, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        for row_key in range(30):
            change(wal, row_key, b"SECRET-%02d" % row_key)
        wal.flush()
        wal.scrub_records([("t", 4)])
        wal.flush()
        reopened = WriteAheadLog(path)
        assert reopened.records_for("t", 4) == []         # stayed scrubbed
        assert len(reopened.records_for("t", 21)) == 1
        assert reopened.scrub_records([("t", 21), ("t", 22), ("t", 4)]) == 2
        data = disk_bytes(path)
        assert b"SECRET-21" not in data and b"SECRET-22" not in data
        assert b"SECRET-20" in data


class TestScrubWriteAmplification:
    """Scrubbing k rows in a log of n >> k records costs O(k), not O(n)."""

    N, K = 2000, 5

    def test_scrub_cost_is_proportional_to_the_images_destroyed(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "SEGMENT_MAX_BYTES", 16 * 1024)
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        image = b"v" * 60
        for row_key in range(self.N):
            change(wal, row_key, image)
        wal.flush()
        segments = segment_paths(path)
        assert len(segments) > 8
        before = {p: open(p, "rb").read() for p in segments}
        victims = [3, 4, 5, self.N - 2, self.N - 1]   # first and last segment
        opened = []
        real_open = os.open

        def recording_open(file, flags, *args, **kwargs):
            opened.append(file)
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(wal_module.os, "open", recording_open)
        written = wal.stats.bytes_written
        assert wal.scrub_records([("t", k) for k in victims]) == self.K
        monkeypatch.undo()
        # One mark byte plus the zeroed payload (+ its CRC) per victim: O(k).
        zeroed = len(payload((0, 1, image))) + 4
        assert wal.stats.bytes_written - written == self.K * (1 + zeroed)
        assert wal.stats.scrub_bytes_zeroed == self.K * zeroed
        # Only the two segments holding victims were opened at all...
        assert set(opened) == {segments[0], segments[-1]}
        # ...and every other segment is byte-for-byte what it was.
        for segment in segments[1:-1]:
            assert open(segment, "rb").read() == before[segment]
        assert disk_size(path) == sum(len(data) for data in before.values())

    def test_memory_only_log_scrubs_without_io(self):
        wal = WriteAheadLog()
        for row_key in range(50):
            change(wal, row_key, b"SECRET")
        assert wal.scrub_records([("t", 1), ("t", 2)]) == 2
        assert wal.stats.bytes_written == 0
        assert wal.raw_image().count(b"SECRET") == 48


class TestForensicImageReadsTheDisk:
    def test_unzeroed_image_on_disk_is_reported_when_memory_is_clean(
            self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        change(wal, 1, b"PLAINTEXT-SALARY")
        wal.flush()
        # Scrub memory only, as a scrub that forgot the disk would.
        wal._records[0] = LogRecord(lsn=1, txn_id=1,
                                    record_type=LogRecordType.DELTA,
                                    table="t", row_key=1)
        assert all(record.after is None for record in wal)
        assert b"PLAINTEXT-SALARY" in wal.raw_image()
        assert b"PLAINTEXT-SALARY" in wal.forensic_image()

    def test_leftover_tmp_file_is_reported(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.BEGIN, txn_id=1)
        wal.flush()
        with open(os.path.join(path, f"{1:020d}.seg.tmp"), "wb") as handle:
            handle.write(b"....STALE-IMAGE....")
        assert b"STALE-IMAGE" in wal.forensic_image()
        # Reopening removes the stray file.
        assert b"STALE-IMAGE" not in WriteAheadLog(path).forensic_image()
        assert not [n for n in os.listdir(path) if n.endswith(".tmp")]

    def test_unflushed_suffix_is_part_of_the_image(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        change(wal, 1, b"NOT-YET-ON-DISK")
        assert b"NOT-YET-ON-DISK" in wal.forensic_image()

    def test_catalog_documents_are_blanked_by_offset(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        wal.append(LogRecordType.CATALOG, 0, after=b"DOMAIN-VOCABULARY")
        change(wal, 1, b"DOMAIN-VOCABULARY-row")
        wal.flush()
        wal.append(LogRecordType.CATALOG, 0, after=b"DOMAIN-VOCABULARY")
        assert wal.raw_image().count(b"DOMAIN-VOCABULARY") == 3
        image = wal.forensic_image()
        assert image.count(b"DOMAIN-VOCABULARY") == 1
        assert b"DOMAIN-VOCABULARY-row" in image
        assert len(image) == len(wal.raw_image()) - \
            len(wal.records()[-1].encode()) + \
            len(LogRecord(lsn=3, txn_id=0,
                          record_type=LogRecordType.CATALOG).encode())


class TestDurabilityOfScrubAndDirectory:
    def test_failed_zeroing_is_retried_by_the_next_flush(self, tmp_path):
        plan = FaultPlan(seed=1)
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path, faults=plan)
        for row_key in range(4):
            change(wal, row_key, b"SECRET-%d" % row_key)
        wal.flush()
        plan.fail_once("wal.scrub", "torn_write")
        with pytest.raises(DurabilityError):
            wal.scrub_records([("t", k) for k in range(4)])
        # Memory is clean already; the disk is half-zeroed...
        assert all(record.after is None for record in wal)
        leftovers = disk_bytes(path).count(b"SECRET-")
        assert 0 < leftovers < 4
        # ...and whoever reads the directory now already sees every hit
        # record as scrubbed (marks land before any zero) and finishes it.
        wal.flush()
        assert b"SECRET-" not in disk_bytes(path)
        assert [record.after for record in WriteAheadLog(path)] == [None] * 4

    def test_failed_scrub_fsync_is_a_durability_error(self, tmp_path):
        plan = FaultPlan(seed=1)
        wal = WriteAheadLog(str(tmp_path / "wal"), faults=plan)
        change(wal, 1, b"S")
        plan.fail_once("wal.scrub", "fsync")
        with pytest.raises(DurabilityError):
            wal.scrub_records([("t", 1)])
        assert plan.fired_kinds() == {"fsync"}

    def test_directory_fsync_follows_create_and_unlink(
            self, tmp_path, monkeypatch, small_segments):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path)
        synced = []
        real_sync = WriteAheadLog._sync_directory

        def counting_sync(self):
            synced.append(len(os.listdir(path)))
            real_sync(self)

        monkeypatch.setattr(WriteAheadLog, "_sync_directory", counting_sync)
        for row_key in range(12):
            change(wal, row_key, b"w" * 40)
        wal.flush()
        creates = len(segment_paths(path))
        assert len(synced) == creates       # one per segment created
        assert wal.truncate_until(7) > 0    # unlinks the first segment
        assert len(segment_paths(path)) == creates - 1
        assert len(synced) == creates + 1
        wal.truncate_until(wal.records()[0].lsn)   # inside a segment: none go
        assert len(synced) == creates + 1

    def test_directory_fsync_failure_is_a_durability_error(
            self, tmp_path, monkeypatch):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(LogRecordType.BEGIN, txn_id=1)

        def failing_sync(self):
            raise OSError(5, "injected: directory fsync failed")

        monkeypatch.setattr(WriteAheadLog, "_sync_directory", failing_sync)
        with pytest.raises(DurabilityError):
            wal.flush()
        assert wal.flushed_lsn == 0
        monkeypatch.undo()
        wal.flush()
        assert wal.flushed_lsn == 1
        assert len(WriteAheadLog(str(tmp_path / "wal"))) == 1


def test_the_side_table_a_live_insert_files_is_the_one_recovery_parses(tmp_path):
    """An insert batch hands the log each DELTA's entry index as it encoded
    the record; a reopened log parses the same records for it.  Both
    build the same side table — live, after a scrub of some rows too."""
    from repro.core.schema import Column, TableSchema
    from repro.storage.buffer import BufferPool
    from repro.storage.degradable_store import TableStore
    from repro.storage.pager import MemoryPager

    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    store = TableStore(TableSchema("t", [Column("id", "INT", primary_key=True),
                                         Column("note", "TEXT")]),
                       BufferPool(MemoryPager(), capacity=8), wal)
    keys = store.insert_many([(i, "n" * (i % 50)) for i in range(300)], now=1.0).keys
    store.insert_many([(1000, "late")], now=2.0)
    assert len(wal._run_live) > 2
    for live in (True, False):
        wal.flush()
        reopened = WriteAheadLog(path)
        assert (reopened._images, reopened._run_live) == (wal._images, wal._run_live)
        assert reopened._images and live == (("t", keys[3]) in reopened._images)
        wal.scrub_records([("t", key) for key in keys[::3]])
