"""Write-ahead log with degradation-aware retention.

Traditional WALs are one of the "unintended retention" channels the paper
singles out: even after a value has been degraded in the data store, its
accurate before-image survives in the log and can be recovered forensically.
This WAL therefore supports, besides the classic append/flush/replay protocol:

* ``DEGRADE`` log records that carry **no image at all** — one record per
  wave chunk names a column, a target accuracy level and the rows that reached
  it; degradation is deterministic and irreversible, so recovery never needs
  to undo it;
* :meth:`WriteAheadLog.scrub_record` / :meth:`WriteAheadLog.scrub_records` —
  destroy every row image of the given rows **in place**: a key → LSN side
  table finds the records, one mark byte per record flags it scrubbed and
  its image bytes are overwritten with zeroes where they lie.  Nothing else
  in the log moves or is rewritten, so a wave costs O(images it destroys);
* :meth:`WriteAheadLog.truncate_until` — drop the prefix made obsolete by a
  checkpoint by unlinking whole segment files.

The log also persists the **degradation schedule** (the ``SCHED_*`` record
types): registrations, applied steps, deferrals, event firings and — on clean
shutdown — a full snapshot of the due-queue.  These records carry row keys,
state indices and due times but never attribute values, so they survive
scrubbing untouched; :class:`~repro.txn.recovery.RecoveryManager` replays them
into a reconstructed :class:`~repro.core.scheduler.DegradationScheduler` (see
``docs/durability.md``).

On disk the log is a directory of append-grown **segment** files named by
the first LSN they were created for.  Every record is framed with its own
lengths and two CRCs (layout in ``docs/durability.md``), so zeroing an image
moves no byte and framing survives; a record never spans segments.  The
records still in the log are also held in memory (checkpoints bound them).
Without a path the log is memory-only and behaves the same minus the I/O.
"""

from __future__ import annotations

import errno
import os
import struct
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple
from zlib import crc32

from ..core.errors import (
    DurabilityError,
    LogCorruptionError,
    LogFormatError,
    WALError,
)
from ..faults import FaultPlan
from .serialization import decode_record, encode_record

#: Version of the on-disk format, stored in every segment header.  Version 1
#: was the single-file, unchecksummed ``wal.log``; version 2 had per-row
#: ``DEGRADE`` and per-step ``SCHED_STEP`` payloads and a ``SEGMENT_DEGRADE``
#: type whose code ``PAGE_ALLOC`` has now; version 3 had one ``SCHED_REGISTER``
#: per row, per-step ``SCHED_DEFER`` entries and per-record schedule
#: snapshots.  There is no reader for any of them.
WAL_FORMAT_VERSION = 4

#: A segment is rolled when the next record would grow it past this many
#: bytes.  A record larger than the cap gets a segment of its own.
SEGMENT_MAX_BYTES = 256 * 1024

_SEGMENT_MAGIC = b"IDBWAL\r\n"
_SEGMENT_SUFFIX = ".seg"
_TMP_SUFFIX = ".tmp"
#: magic · format version · first LSN · CRC-32 of the three.
_SEGMENT_HEADER = struct.Struct("<8sIQI")

#: Fixed record head: length of everything behind this field · header CRC ·
#: scrub mark · type code · lsn · txn id · row key · timestamp · table length
#: · attribute length · before length · after length.  The header CRC covers
#: the length field and everything from the type code to the end of the
#: attribute name — not the mark, which a scrub flips with a one-byte write.
_HEAD = struct.Struct("<IIBBqqqdHHII")
_MARK_OFFSET = 8
_CRC = struct.Struct("<I")
#: Image length standing for "no image" (``None``), as opposed to ``b""``.
_NO_IMAGE = 0xFFFFFFFF
#: The two valid scrub marks: a single flipped bit turns neither into the other.
_LIVE = 0x00
_SCRUBBED = 0xA5


class LogRecordType(Enum):
    """Record types.  A record stores its type as the member's position in
    this class, so new types are appended at the end, never inserted, and
    removing one — the last member then moves into its slot — is a new
    ``WAL_FORMAT_VERSION``."""

    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    # One chunk of a degradation wave: every listed row of ``table`` had
    # ``attribute`` advanced to the same accuracy level.  The payload carries
    # the target level and the row keys (``row_key`` is unused) — never an
    # attribute value — so the record is scrub-exempt by construction.
    DEGRADE = "DEGRADE"
    # Heap page allocated to a table (``row_key`` holds the page id).  The
    # row→page map is rebuilt by scanning the heap at recovery, but *which*
    # pager pages belong to which table must itself be durable: degraded rows
    # exist only on their flushed pages (their accurate log images are
    # scrubbed), so losing page ownership would lose the rows.  CHECKPOINT
    # records fold the full directory into their payload; PAGE_ALLOC covers
    # the tail behind the last checkpoint.  (It sits here because it took the
    # slot of ``SEGMENT_DEGRADE``, which format version 3 retired: one type
    # renumbered instead of every type behind the hole.)
    PAGE_ALLOC = "PAGE_ALLOC"
    REMOVE = "REMOVE"          # final removal at end of life cycle
    CHECKPOINT = "CHECKPOINT"
    SCRUB = "SCRUB"            # audit trace of a log scrubbing action
    # Degradation-schedule records: the durable image of the scheduler's
    # due-queue.  They carry row keys, attribute names, state indices and due
    # times — never attribute values — so they are exempt from scrubbing by
    # construction (nothing in them can leak a degraded value).
    SCHED_REGISTER = "SCHED_REGISTER"      # rows entered the schedule (a cohort)
    SCHED_STEP = "SCHED_STEP"              # step(s) applied (batch payload)
    SCHED_DEFER = "SCHED_DEFER"            # step(s) re-queued (batch payload)
    SCHED_EVENT = "SCHED_EVENT"            # named event fired
    SCHED_CHECKPOINT = "SCHED_CHECKPOINT"  # full queue snapshot (clean shutdown)
    # DDL marker: the table was dropped.  Recovery skips records of tables
    # that are absent from the reopened catalog *and* carry this marker;
    # an absent table without one is still a hard configuration error.
    TABLE_DROP = "TABLE_DROP"
    # Catalog snapshot: the full DDL state (domains, policies, tables,
    # purposes, indexes) serialized into the ``after``
    # payload, appended on DDL commit and folded into every checkpoint so
    # ``recover()`` reopens without re-running DDL.  Like the SCHED_* records
    # it carries names, structure and selector keys — never degradable
    # attribute values — so it is scrub-exempt by construction.
    CATALOG = "CATALOG"


_TYPES: Tuple[LogRecordType, ...] = tuple(LogRecordType)
_TYPE_CODES: Dict[LogRecordType, int] = {
    record_type: code for code, record_type in enumerate(_TYPES)}

#: Record types whose before/after images hold row payloads: when a row
#: degrades past an accuracy level, these are the records whose images
#: :meth:`WriteAheadLog.scrub_records` zeroes so the accurate value cannot be
#: resurrected from the log (the paper's bounded-retention guarantee).  Every
#: :class:`LogRecordType` must appear in exactly one of ``_SCRUB_TARGETS`` /
#: ``_SCRUB_EXEMPT`` — enforced by the *wal-exhaustive* reprolint rule; see
#: the new-record-type checklist in docs/invariants.md.
_SCRUB_TARGETS = frozenset({
    LogRecordType.INSERT,
    LogRecordType.UPDATE,
    LogRecordType.DELETE,
    LogRecordType.REMOVE,
})

#: Record types whose payloads carry no attribute values and must survive
#: scrubbing: transaction control and checkpoint markers, the SCRUB audit
#: trail itself, the degradation schedule, and storage-structure records.
_SCRUB_EXEMPT = frozenset({
    LogRecordType.BEGIN,
    LogRecordType.COMMIT,
    LogRecordType.ABORT,
    LogRecordType.CHECKPOINT,
    LogRecordType.SCRUB,
    LogRecordType.SCHED_REGISTER,
    LogRecordType.SCHED_STEP,
    LogRecordType.SCHED_DEFER,
    LogRecordType.SCHED_EVENT,
    LogRecordType.SCHED_CHECKPOINT,
    LogRecordType.TABLE_DROP,
    LogRecordType.CATALOG,
    LogRecordType.PAGE_ALLOC,
    # Its payload is a target accuracy level and row keys: no attribute
    # value (and never a before-image, enforced at append).
    LogRecordType.DEGRADE,
})


@dataclass(frozen=True)
class LogRecord:
    """One log entry.

    ``before`` and ``after`` are opaque byte images (encoded records).  For
    ``DEGRADE`` records ``before`` is always ``None`` by construction.
    """

    lsn: int
    txn_id: int
    record_type: LogRecordType
    table: str = ""
    row_key: int = -1
    attribute: str = ""
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    timestamp: float = 0.0

    def encode(self) -> bytes:
        """The record as it is framed on disk (length prefix included)."""
        table = self.table.encode("utf-8")
        attribute = self.attribute.encode("utf-8")
        before, after = self.before, self.after
        images = (before or b"") + (after or b"")
        head = _HEAD.pack(
            _HEAD.size - 4 + len(table) + len(attribute) + len(images) + 4,
            0, _LIVE, _TYPE_CODES[self.record_type], self.lsn, self.txn_id,
            self.row_key, float(self.timestamp), len(table), len(attribute),
            _NO_IMAGE if before is None else len(before),
            _NO_IMAGE if after is None else len(after))
        covered = head[_MARK_OFFSET + 1:] + table + attribute
        return b"".join((
            head[:4], _CRC.pack(crc32(covered, crc32(head[:4]))),
            head[_MARK_OFFSET:_MARK_OFFSET + 1], covered,
            images, _CRC.pack(crc32(images))))

    @classmethod
    def decode(cls, data: bytes) -> "LogRecord":
        """Inverse of :meth:`encode` for exactly one framed record."""
        record, end, _image_offset = _parse_record(data, 0, len(data))
        if end != len(data):
            raise LogCorruptionError("trailing bytes behind a log record")
        return record


def _parse_record(data: bytes, offset: int, limit: int
                  ) -> Tuple[LogRecord, int, int]:
    """Parse the record framed at ``data[offset:limit]``.

    Returns ``(record, end offset, image offset)``.  A record marked scrubbed
    comes back without images whatever its image bytes hold (the caller
    checks they are zero); a live record's images must match their CRC.
    Anything that does not check out raises :class:`LogCorruptionError`.
    """
    if offset + _HEAD.size > limit:
        raise LogCorruptionError("truncated log record head")
    (length, header_crc, mark, code, lsn, txn_id, row_key, timestamp,
     table_len, attribute_len, before_len, after_len) = \
        _HEAD.unpack_from(data, offset)
    end = offset + 4 + length
    names_end = offset + _HEAD.size + table_len + attribute_len
    image_len = ((0 if before_len == _NO_IMAGE else before_len)
                 + (0 if after_len == _NO_IMAGE else after_len))
    if end > limit or names_end + image_len + 4 != end:
        raise LogCorruptionError("log record framing does not add up")
    if crc32(data[offset + _MARK_OFFSET + 1:names_end],
             crc32(data[offset:offset + 4])) != header_crc:
        raise LogCorruptionError(f"log record header CRC mismatch at {offset}")
    if code >= len(_TYPES):
        raise LogCorruptionError(f"unknown log record type code {code}")
    table_end = offset + _HEAD.size + table_len
    before = after = None
    if mark == _LIVE:
        if crc32(data[names_end:end - 4]) != \
                _CRC.unpack_from(data, end - 4)[0]:
            raise LogCorruptionError(
                f"log record image CRC mismatch (lsn {lsn})")
        if before_len != _NO_IMAGE:
            before = bytes(data[names_end:names_end + before_len])
        if after_len != _NO_IMAGE:
            after = bytes(data[end - 4 - after_len:end - 4])
    elif mark != _SCRUBBED:
        raise LogCorruptionError(f"invalid scrub mark {mark:#x} (lsn {lsn})")
    record = LogRecord(
        lsn=lsn, txn_id=txn_id, record_type=_TYPES[code],
        table=str(data[offset + _HEAD.size:table_end], "utf-8"),
        row_key=row_key,
        attribute=str(data[table_end:names_end], "utf-8"),
        before=before, after=after, timestamp=timestamp)
    return record, end, names_end


# -- wave record payloads --------------------------------------------------------
#
# A degradation wave reaches the log as *chunks*: DEGRADE says "these rows of
# this column are now at this level", SCHED_STEP "these rows took this step
# of the schedule", SCHED_DEFER "these steps were put off".  Their ``after``
# payloads are flat encoded lists.  The table name lives in the record header
# (for DEGRADE the column too); row keys identify the tuples within it.

#: Row keys one DEGRADE record lists at most: the record codec stops at
#: 65,535 fields.
DEGRADE_RECORD_KEYS = 60_000


def encode_degrade_chunk(to_level: int, row_keys: Sequence[int]) -> Iterator[bytes]:
    """DEGRADE payloads — target level, then row keys — for one wave chunk,
    its key list cut under the codec's field cap."""
    for start in range(0, len(row_keys), DEGRADE_RECORD_KEYS):
        yield encode_record(
            [int(to_level), *row_keys[start:start + DEGRADE_RECORD_KEYS]])


def decode_degrade_chunk(payload: bytes) -> Tuple[int, List[int]]:
    """One DEGRADE payload back as ``(to_level, row keys)``."""
    flat = decode_record(payload)
    if not flat:
        raise WALError("malformed DEGRADE payload: no target level")
    return int(flat[0]), [int(row_key) for row_key in flat[1:]]


def _encode_groups(groups: Mapping[Tuple[Any, ...], Sequence[int]],
                   limit: int) -> Iterator[bytes]:
    """Payloads for ``header → row keys`` groups: ``*header, n, key × n``
    runs back to back, at most ``limit`` row keys per payload (a group is
    split where it must be; the fields have to fit the codec's cap)."""
    flat: List[Any] = []
    room = limit
    for header, row_keys in groups.items():
        for start in range(0, len(row_keys), limit):
            part = row_keys[start:start + limit]
            if len(part) > room:
                yield encode_record(flat)
                flat, room = [], limit
            flat += (*header, len(part), *part)
            room -= len(part)
    if flat:
        yield encode_record(flat)


def _decode_groups(payload: bytes, width: int, kind: str
                   ) -> List[Tuple[Tuple[Any, ...], List[int]]]:
    """Inverse of :func:`_encode_groups` for headers of ``width`` fields."""
    flat = decode_record(payload)
    groups = []
    cursor = 0
    while cursor < len(flat):
        if cursor + width + 1 > len(flat):
            raise WALError(f"malformed {kind} payload with {len(flat)} fields")
        header, count = flat[cursor:cursor + width], int(flat[cursor + width])
        cursor += width + 1 + count
        if cursor > len(flat):
            raise WALError(f"malformed {kind} payload with {len(flat)} fields")
        groups.append((header, [int(row_key) for row_key in flat[cursor - count:cursor]]))
    return groups


def encode_schedule_steps(groups: Mapping[Tuple[str, int, float], Sequence[int]],
                          limit: int) -> Iterator[bytes]:
    """SCHED_STEP payloads for ``(attribute, to_state, due) → row keys``
    groups, at most ``limit`` row keys per payload."""
    return _encode_groups({(attribute, int(to_state), float(due)): row_keys
                           for (attribute, to_state, due), row_keys in groups.items()},
                          limit)


def decode_schedule_steps(payload: bytes
                          ) -> List[Tuple[str, int, float, List[int]]]:
    """One SCHED_STEP payload back as ``(attribute, to_state, due, row keys)``
    groups."""
    return [(str(attribute), int(to_state), float(due), row_keys)
            for (attribute, to_state, due), row_keys
            in _decode_groups(payload, 3, "SCHED_STEP")]


def encode_schedule_defers(groups: Mapping[Tuple[str, int, float, float], Sequence[int]],
                           limit: int) -> Iterator[bytes]:
    """SCHED_DEFER payloads for ``(attribute, from_state, due, until) → row
    keys`` groups, at most ``limit`` row keys per payload."""
    return _encode_groups({(attribute, int(from_state), float(due), float(until)): row_keys
                           for (attribute, from_state, due, until), row_keys
                           in groups.items()}, limit)


def decode_schedule_defers(payload: bytes
                           ) -> List[Tuple[str, int, float, float, List[int]]]:
    """One SCHED_DEFER payload back as ``(attribute, from_state, due, until,
    row keys)`` groups."""
    return [(str(attribute), int(from_state), float(due), float(until), row_keys)
            for (attribute, from_state, due, until), row_keys
            in _decode_groups(payload, 4, "SCHED_DEFER")]


def encode_schedule_registration(policies: Dict[str, str], row_keys: Sequence[int],
                                 limit: int) -> Iterator[bytes]:
    """SCHED_REGISTER payloads: the attribute → policy-name map the rows
    were registered under, then their row keys (at most ``limit`` a payload).

    Policy *names* are not sensitive (unlike the selector value that picked
    them, which must never enter the log): they let recovery re-resolve
    per-tuple overrides even after the selector value degraded.
    """
    names: List[Any] = [len(policies)]
    for attribute in sorted(policies):
        names += (attribute, policies[attribute])
    for start in range(0, len(row_keys), limit):
        yield encode_record([*names, *row_keys[start:start + limit]])


def decode_schedule_registration(payload: bytes) -> Tuple[Dict[str, str], List[int]]:
    """One SCHED_REGISTER payload back as ``(policy names, row keys)``."""
    flat = decode_record(payload)
    keys_at = 1 + 2 * int(flat[0]) if flat else 1
    if keys_at > len(flat):
        raise WALError(f"malformed SCHED_REGISTER payload with {len(flat)} fields")
    return ({str(flat[i]): str(flat[i + 1]) for i in range(1, keys_at, 2)},
            [int(row_key) for row_key in flat[keys_at:]])


def encode_page_directory(directory: Dict[str, List[int]]) -> bytes:
    """Encode the table → heap-page-ids directory (CHECKPOINT payload)."""
    flat: List[Any] = [len(directory)]
    for table in sorted(directory):
        pages = directory[table]
        flat.append(table)
        flat.append(len(pages))
        flat.extend(int(page_id) for page_id in pages)
    return encode_record(flat)


def decode_page_directory(payload: bytes) -> Dict[str, List[int]]:
    """Inverse of :func:`encode_page_directory`."""
    flat = decode_record(payload)
    cursor = 0
    count = int(flat[cursor]); cursor += 1
    directory: Dict[str, List[int]] = {}
    for _ in range(count):
        table = str(flat[cursor]); cursor += 1
        n_pages = int(flat[cursor]); cursor += 1
        directory[table] = [int(p) for p in flat[cursor:cursor + n_pages]]
        cursor += n_pages
    if cursor != len(flat):
        raise WALError("malformed page-directory payload")
    return directory


@dataclass
class WALStats:
    appended: int = 0
    flushed: int = 0
    scrubbed_records: int = 0
    #: :meth:`WriteAheadLog.scrub_records` calls that found an image to
    #: destroy (a batch of keys is one pass, however many records it hits).
    scrub_passes: int = 0
    #: Bytes of zeroes written over images in segment files.
    scrub_bytes_zeroed: int = 0
    truncations: int = 0
    #: Bytes physically written to the log directory — appended records,
    #: segment headers, scrub marks and zeroes, boundary-segment rewrites;
    #: the guard that the durability path stays O(n) and scrubbing O(k).
    bytes_written: int = 0


class _Segment:
    """One segment file and where each of its records starts."""

    __slots__ = ("path", "first_lsn", "size", "offsets")

    def __init__(self, path: str, first_lsn: int) -> None:
        self.path = path
        #: LSN of the first record (the header's value; the file *name* is
        #: the LSN the file was created for and only orders the files).
        self.first_lsn = first_lsn
        #: Length of the known-good prefix.  A failed or torn append leaves
        #: garbage past it; the next append truncates back to it first.
        self.size = _SEGMENT_HEADER.size
        #: Byte offset of record ``first_lsn + i`` (LSNs are dense).
        self.offsets = array("I")

    @property
    def end_lsn(self) -> int:
        """One past the last LSN held."""
        return self.first_lsn + len(self.offsets)


def _fsync_directory(path: str) -> None:
    """Make a create, rename or unlink inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_header(first_lsn: int) -> bytes:
    body = _SEGMENT_HEADER.pack(
        _SEGMENT_MAGIC, WAL_FORMAT_VERSION, first_lsn, 0)[:-4]
    return body + _CRC.pack(crc32(body))


class WriteAheadLog:
    """Segmented, checksummed append-only log with in-place scrubbing."""

    def __init__(self, path: Optional[str] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        #: The log *directory*, or ``None`` for a memory-only log.
        self.path = path
        self.faults = faults
        #: Every record still in the log, LSNs dense: record ``lsn`` sits at
        #: index ``lsn - self._records[0].lsn``.
        self._records: List[LogRecord] = []
        self._next_lsn = 1
        self._flushed_lsn = 0
        self._segments: List[_Segment] = []
        #: LSN whose record must open a new segment (:meth:`roll`).
        self._roll_at = 0
        #: ``(table, row_key)`` → LSNs of the records that still hold a row
        #: image of that row.  What a scrub looks up instead of scanning.
        self._images: Dict[Tuple[str, int], List[int]] = {}
        #: Images already dropped from memory whose on-disk bytes are not
        #: durably zeroed yet: ``(lsn, image offset in the record, length)``.
        #: Emptied by a successful zeroing pass; one that failed leaves it
        #: for the next :meth:`flush` to retry first.
        self._unzeroed: List[Tuple[int, int, int]] = []
        #: Transactions that have begun but logged nothing yet: txn id → begin
        #: timestamp.  Their BEGIN is written just ahead of their first record
        #: (see :meth:`begin`), so a read-only transaction never reaches the log.
        self._unlogged: Dict[int, float] = {}
        self.stats = WALStats()
        if path is not None:
            self._open_directory(path)

    # -- basic protocol -----------------------------------------------------

    def begin(self, txn_id: int, timestamp: float = 0.0) -> None:
        """Note that ``txn_id`` began; its BEGIN record is emitted lazily.

        Nothing is appended here: :meth:`append` writes the BEGIN (carrying
        this begin timestamp) immediately before the first record logged
        under ``txn_id``.  A transaction that never logs a record of its own
        therefore leaves no BEGIN behind, and whoever ends it learns from
        :meth:`end_unlogged` that it needs no COMMIT/ABORT and no flush.
        Keyed per transaction, so interleaved sessions cannot steal or
        suppress one another's BEGIN.
        """
        self._unlogged[txn_id] = timestamp

    def end_unlogged(self, txn_id: int) -> bool:
        """Forget ``txn_id`` if it never logged; True when that was the case."""
        return self._unlogged.pop(txn_id, None) is not None

    def append(self, record_type: LogRecordType, txn_id: int, *, table: str = "",
               row_key: int = -1, attribute: str = "",
               before: Optional[bytes] = None, after: Optional[bytes] = None,
               timestamp: float = 0.0) -> LogRecord:
        if txn_id in self._unlogged:
            self.append(LogRecordType.BEGIN, txn_id,
                        timestamp=self._unlogged.pop(txn_id))
        if before is not None and record_type is LogRecordType.DEGRADE:
            raise WALError(
                "DEGRADE log records must not carry an accurate before-image"
            )
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            record_type=record_type,
            table=table,
            row_key=row_key,
            attribute=attribute,
            before=before,
            after=after,
            timestamp=timestamp,
        )
        self._next_lsn += 1
        self._records.append(record)
        if (before or after) and record_type in _SCRUB_TARGETS:
            self._images.setdefault((table, row_key), []).append(record.lsn)
        self.stats.appended += 1
        return record

    def flush(self) -> None:
        """Persist every appended record (durability point).

        Append-only: only records with ``lsn > flushed_lsn`` are written,
        behind the last segment's known-good end (a new segment is opened
        when the cap or :meth:`roll` says so), followed by one fsync per
        segment written to.  An unfinished zeroing pass is retried first.

        Failure semantics: any I/O error — real or injected via the fault
        plan — surfaces as :class:`DurabilityError` *without* advancing
        ``flushed_lsn`` or the segment's known-good size past what an fsync
        confirmed, so a retry (or the next flush after recovery) first
        truncates any torn tail and rewrites the whole pending suffix.
        Bytes an earlier flush made durable are never touched.
        """
        if self.path is not None:
            if self._unzeroed:
                self._zero_images()
            self._flush_pending()
        elif self._records:
            self._flushed_lsn = self._records[-1].lsn
        self.stats.flushed += 1

    def roll(self) -> None:
        """Make the next record appended the first of a new segment.

        Checkpoints call this ahead of their anchor record, so truncating up
        to the anchor unlinks whole segments and rewrites none.
        """
        self._roll_at = self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def records(self) -> List[LogRecord]:
        return list(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records_for(self, table: str, row_key: int) -> List[LogRecord]:
        """The records still holding a row image of ``(table, row_key)``."""
        first = self._records[0].lsn if self._records else 0
        return [self._records[lsn - first]
                for lsn in self._images.get((table, row_key), ())]

    # -- degradation-aware maintenance -----------------------------------------

    def scrub_record(self, table: str, row_key: int, now: float = 0.0) -> int:
        """Destroy every row image of ``(table, row_key)`` in the log.

        The images of its INSERT/UPDATE/DELETE/REMOVE records are dropped
        (the structural entry remains so LSNs stay dense and recovery still
        knows a record existed) and zeroed in the segment files, so no byte
        of them survives on disk.  Returns the number of records scrubbed.
        """
        return self.scrub_records([(table, row_key)], now=now)

    def scrub_records(self, keys: Iterable[Tuple[str, int]], now: float = 0.0) -> int:
        """Bulk :meth:`scrub_record`: one pass for all ``keys``.

        Each key costs one lookup in the image side table; a key with no
        image left in the log costs nothing else and a batch of such keys
        does no I/O at all.  Otherwise the pending suffix is written first
        (every record then has a place on disk, and — as scrubbing always
        did — everything appended so far is durable when this returns), the
        hit records are marked scrubbed and their image bytes overwritten
        with zeroes in place (:meth:`_zero_images`), and one *aggregate*
        SCRUB audit record is appended per batch (its ``attribute`` names
        the touched-key count and its ``after`` payload carries the count),
        so a mass-removal wave grows the log by O(1) audit bytes.  A
        single-key scrub keeps the per-row audit shape (table + row key).
        Returns the total number of records scrubbed.

        A zeroing pass that fails raises :class:`DurabilityError` with the
        images already gone from memory; the next :meth:`flush` finishes it.
        """
        images = self._images
        touched = [key for key in dict.fromkeys(keys) if key in images]
        if not touched:
            return 0
        on_disk = self.path is not None
        if on_disk:
            self._flush_pending()
        records = self._records
        first = records[0].lsn
        scrubbed = 0
        for key in touched:
            for lsn in images.pop(key):
                record = records[lsn - first]
                if on_disk:
                    self._unzeroed.append((
                        lsn,
                        _HEAD.size + len(record.table.encode("utf-8"))
                        + len(record.attribute.encode("utf-8")),
                        len(record.before or b"") + len(record.after or b"")
                        + _CRC.size))
                records[lsn - first] = replace(record, before=None, after=None)
                scrubbed += 1
        self.stats.scrubbed_records += scrubbed
        self.stats.scrub_passes += 1
        if on_disk:
            self._zero_images()
        if len(touched) == 1:
            table, row_key = touched[0]
            self.append(LogRecordType.SCRUB, txn_id=0, table=table,
                        row_key=row_key, timestamp=now)
        else:
            tables = {table for table, _row_key in touched}
            self.append(
                LogRecordType.SCRUB, txn_id=0,
                table=tables.pop() if len(tables) == 1 else "",
                row_key=-1, attribute=f"batch:{len(touched)}",
                after=encode_record([len(touched), scrubbed]),
                timestamp=now,
            )
        return scrubbed

    def truncate_until(self, lsn: int) -> int:
        """Drop every record with ``record.lsn <= lsn`` (post-checkpoint cleanup).

        Segments lying wholly at or below ``lsn`` are unlinked; when ``lsn``
        falls inside a segment, that one boundary segment is rewritten
        without its dropped prefix (tmp file + rename) — the only rewrite
        the log ever does, and one a checkpoint avoids through :meth:`roll`.
        Memory follows the disk segment by segment, so an I/O failure
        (:class:`DurabilityError`) leaves a shorter but consistent truncation.
        """
        if not self._records or lsn < self._records[0].lsn:
            return 0
        before = len(self._records)
        lsn = min(lsn, self._records[-1].lsn)
        try:
            if self.path is None:
                self._drop_records(lsn)
            else:
                self._flush_pending()
                self._truncate_segments(lsn)
        except OSError as exc:
            raise DurabilityError(f"WAL truncation failed: {exc}") from exc
        finally:
            # Whatever prefix did go: forget its side-table entries.
            kept = self._records[0].lsn if self._records else self._next_lsn
            self._flushed_lsn = max(self._flushed_lsn, kept - 1)
            self._images = {
                key: live for key, lsns in self._images.items()
                if (live := [held for held in lsns if held >= kept])}
            self._unzeroed = [entry for entry in self._unzeroed
                              if entry[0] >= kept]
        self.stats.truncations += 1
        return before - len(self._records)

    def _drop_records(self, lsn: int) -> None:
        """Drop the in-memory records up to ``lsn``."""
        if self._records:
            del self._records[:max(0, lsn + 1 - self._records[0].lsn)]

    # -- segment files -------------------------------------------------------------

    def _sync_directory(self) -> None:
        """fsync the log directory after a segment create, rename or unlink."""
        _fsync_directory(self.path)

    def _create_segment(self, first_lsn: int) -> _Segment:
        segment = _Segment(
            os.path.join(self.path, f"{first_lsn:020d}{_SEGMENT_SUFFIX}"),
            first_lsn)
        header = _segment_header(first_lsn)
        fd = os.open(segment.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, header)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._sync_directory()
        self.stats.bytes_written += len(header)
        self._segments.append(segment)
        return segment

    def _flush_pending(self) -> None:
        """Write the records past ``flushed_lsn`` to the segment files."""
        records = self._records
        if not records or self._flushed_lsn >= records[-1].lsn:
            return
        start = max(0, self._flushed_lsn + 1 - records[0].lsn)
        event = self.faults.fire("wal.flush") if self.faults else None
        segment = self._segments[-1] if self._segments else None
        # Of ``segment`` once the buffered records are in it: bytes, records.
        size = segment.size if segment is not None else 0
        held = len(segment.offsets) if segment is not None else 0
        roll_at, cap = self._roll_at, SEGMENT_MAX_BYTES
        buffer = bytearray()
        offsets: List[int] = []
        try:
            if event is not None and event.kind == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            for record in records[start:]:
                data = record.encode()
                if segment is None or (held and (
                        record.lsn == roll_at or size + len(data) > cap)):
                    if offsets:
                        self._write_tail(segment, buffer, offsets, event)
                        event = None
                        buffer = bytearray()
                        offsets = []
                    segment = self._create_segment(record.lsn)
                    size, held = segment.size, 0
                offsets.append(size)
                buffer += data
                size += len(data)
                held += 1
            self._write_tail(segment, buffer, offsets, event)
        except OSError as exc:
            raise DurabilityError(f"WAL flush failed: {exc}") from exc

    def _write_tail(self, segment: _Segment, buffer: bytearray,
                    offsets: List[int], event: Any) -> None:
        """Append ``buffer`` (whole records) to ``segment`` and fsync it."""
        if segment.end_lsn != self._flushed_lsn + 1:
            raise WALError(
                f"log segment {segment.path} ends at LSN {segment.end_lsn - 1}"
                f" but the log is flushed up to {self._flushed_lsn}")
        fd = os.open(segment.path, os.O_RDWR)
        try:
            os.ftruncate(fd, segment.size)
            try:
                if event is not None and event.kind == "torn_write":
                    os.pwrite(fd, bytes(buffer[:max(1, len(buffer) // 2)]),
                              segment.size)
                    raise OSError(errno.EIO, "injected: torn write")
                os.pwrite(fd, buffer, segment.size)
                if event is not None and event.kind == "fsync":
                    raise OSError(errno.EIO, "injected: fsync failed")
                os.fsync(fd)
            except OSError:
                # Best-effort immediate repair: chop whatever the failed
                # attempt managed to write back to the known-good prefix.
                # A torn half-buffer can end exactly on a record boundary,
                # and a crash before the next flush would then make _load
                # accept records whose durability was *denied* to the
                # caller.  If this repair fails too, the next flush (or
                # _load's framing check) still truncates first.
                try:
                    os.ftruncate(fd, segment.size)
                    os.fsync(fd)
                except OSError:  # reprolint: disable=no-swallowed-io-error -- best-effort torn-tail repair while propagating the original failure
                    pass
                raise
        finally:
            os.close(fd)
        segment.size += len(buffer)
        segment.offsets.extend(offsets)
        self.stats.bytes_written += len(buffer)
        self._flushed_lsn = segment.end_lsn - 1

    def _locate(self, lsn: int) -> Tuple[_Segment, int]:
        """The segment holding flushed record ``lsn`` and its offset there."""
        for segment in reversed(self._segments):
            if lsn >= segment.first_lsn:
                return segment, segment.offsets[lsn - segment.first_lsn]
        raise WALError(f"log record {lsn} is in no segment")

    def _zero_images(self) -> None:
        """Make the scrubs in ``_unzeroed`` durable, in place.

        Mark before zero, with a barrier between: first every hit record's
        mark byte is set to *scrubbed* (one byte each — it cannot tear, and
        it lies outside the header CRC so nothing else is rewritten) and the
        segment is fsynced; only then are the image bytes and their CRC
        overwritten with zeroes and the segment fsynced again.  Whatever
        subset of these writes a crash lets through, every record loads
        either intact (its mark never landed, so no zero was written) or
        scrubbed (:meth:`_load` queues a marked record whose image bytes are
        not all zero and runs this pass again) — never half an image under a
        live mark.
        """
        by_segment: Dict[_Segment, List[Tuple[int, int, int]]] = {}
        for lsn, image_offset, length in self._unzeroed:
            segment, offset = self._locate(lsn)
            by_segment.setdefault(segment, []).append(
                (offset, offset + image_offset, length))
        event = self.faults.fire("wal.scrub") if self.faults else None
        mark = bytes([_SCRUBBED])
        written = zeroed = 0
        try:
            for segment, places in by_segment.items():
                fd = os.open(segment.path, os.O_RDWR)
                try:
                    for offset, _image_at, _length in places:
                        written += os.pwrite(fd, mark, offset + _MARK_OFFSET)
                    os.fsync(fd)
                    if event is not None and event.kind == "torn_write":
                        places = places[:len(places) // 2]
                    for _offset, image_at, length in places:
                        zeroed += os.pwrite(fd, bytes(length), image_at)
                    if event is not None:
                        raise OSError(errno.EIO, f"injected: {event.kind}")
                    os.fsync(fd)
                finally:
                    os.close(fd)
        except OSError as exc:
            raise DurabilityError(f"WAL scrub failed: {exc}") from exc
        finally:
            self.stats.bytes_written += written + zeroed
            self.stats.scrub_bytes_zeroed += zeroed
        self._unzeroed.clear()

    def _truncate_segments(self, lsn: int) -> None:
        changed = False
        try:
            while self._segments and self._segments[0].first_lsn <= lsn:
                segment = self._segments[0]
                if segment.end_lsn - 1 <= lsn:
                    os.unlink(segment.path)
                    changed = True
                    del self._segments[0]
                    self._drop_records(segment.end_lsn - 1)
                else:
                    self._rewrite_boundary(segment, lsn)
                    changed = True
                    self._drop_records(lsn)
        finally:
            if changed:
                self._sync_directory()

    def _rewrite_boundary(self, segment: _Segment, lsn: int) -> None:
        """Rewrite ``segment`` without its records up to ``lsn``."""
        cut = segment.offsets[lsn + 1 - segment.first_lsn]
        with open(segment.path, "rb") as handle:
            handle.seek(cut)
            body = handle.read(segment.size - cut)
        data = _segment_header(lsn + 1) + body
        tmp_path = segment.path + _TMP_SUFFIX
        try:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp_path, segment.path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:  # reprolint: disable=no-swallowed-io-error -- best-effort tmp cleanup while propagating the original failure
                pass
            raise
        self.stats.bytes_written += len(data)
        shift = cut - _SEGMENT_HEADER.size
        segment.offsets = array("I", (
            offset - shift
            for offset in segment.offsets[lsn + 1 - segment.first_lsn:]))
        segment.first_lsn = lsn + 1
        segment.size = len(data)

    # -- opening ---------------------------------------------------------------------

    def _open_directory(self, path: str) -> None:
        """Create the log directory or load the segments it holds."""
        for legacy in (path, path + ".log"):
            if os.path.isfile(legacy):
                raise LogFormatError(
                    f"{legacy} is a single-file log of format version 1; "
                    f"this build reads only format version "
                    f"{WAL_FORMAT_VERSION} (a directory of segments) and has "
                    "no reader for older logs")
        try:
            if os.path.isdir(path):
                self._load()
            else:
                os.makedirs(path)
                _fsync_directory(os.path.dirname(os.path.abspath(path)))
        except OSError as exc:
            raise DurabilityError(f"cannot open WAL at {path}: {exc}") from exc

    def _load(self) -> None:
        """Read every segment back, repairing what a crash left half-done.

        * a stray ``*.tmp`` (an interrupted boundary rewrite) is removed;
        * in the *last* segment a record that does not check out is a torn
          append: the file is chopped there.  Anywhere else — or an LSN out
          of sequence — it is corruption and raises
          :class:`LogCorruptionError` instead of replaying garbage;
        * a record marked scrubbed whose image bytes are not all zero is an
          interrupted scrub: the zeroing is finished (and fsynced) before
          this returns, so a record that loads as scrubbed is scrubbed on
          disk.
        """
        names = sorted(os.listdir(self.path))
        stray = [name for name in names if name.endswith(_TMP_SUFFIX)]
        for name in stray:
            os.unlink(os.path.join(self.path, name))
        if stray:
            self._sync_directory()
        names = [name for name in names if name.endswith(_SEGMENT_SUFFIX)]
        for position, name in enumerate(names):
            last = position == len(names) - 1
            segment_path = os.path.join(self.path, name)
            with open(segment_path, "rb") as handle:
                data = handle.read()
            try:
                segment = _Segment(segment_path,
                                   self._read_header(name, data))
            except LogCorruptionError:
                if not last or len(data) > _SEGMENT_HEADER.size:
                    raise
                # Crash inside _create_segment: no record ever followed.
                os.unlink(segment_path)
                self._sync_directory()
                break
            expected = segment.first_lsn
            if self._records and expected != self._records[-1].lsn + 1:
                raise LogCorruptionError(
                    f"log segment {name} starts at LSN {expected}, behind "
                    f"LSN {self._records[-1].lsn}: a segment is missing")
            offset = _SEGMENT_HEADER.size
            while offset < len(data):
                try:
                    record, end, image_at = _parse_record(
                        data, offset, len(data))
                except LogCorruptionError:
                    if not last:
                        raise
                    self._chop(segment_path, offset)
                    break
                if record.lsn != expected:
                    raise LogCorruptionError(
                        f"log segment {name} holds LSN {record.lsn} where "
                        f"{expected} belongs")
                if data[offset + _MARK_OFFSET] == _SCRUBBED:
                    if data.count(0, image_at, end) != end - image_at:
                        self._unzeroed.append(
                            (record.lsn, image_at - offset, end - image_at))
                elif (record.before or record.after) and \
                        record.record_type in _SCRUB_TARGETS:
                    self._images.setdefault(
                        (record.table, record.row_key), []).append(record.lsn)
                self._records.append(record)
                segment.offsets.append(offset)
                offset = end
                expected += 1
            segment.size = offset
            self._segments.append(segment)
        if self._segments:
            self._next_lsn = self._segments[-1].end_lsn
            self._flushed_lsn = self._next_lsn - 1
        if self._unzeroed:
            self._zero_images()

    @staticmethod
    def _read_header(name: str, data: bytes) -> int:
        """Validate a segment header; returns the segment's first LSN."""
        if len(data) < _SEGMENT_HEADER.size:
            raise LogCorruptionError(f"log segment {name} has no header")
        magic, version, first_lsn, header_crc = \
            _SEGMENT_HEADER.unpack_from(data, 0)
        if magic == _SEGMENT_MAGIC and version != WAL_FORMAT_VERSION:
            raise LogFormatError(
                f"log segment {name} is format version {version}; this "
                f"build reads only format version {WAL_FORMAT_VERSION}")
        if magic != _SEGMENT_MAGIC or \
                crc32(data[:_SEGMENT_HEADER.size - 4]) != header_crc:
            raise LogCorruptionError(f"log segment {name} has a bad header")
        return first_lsn

    @staticmethod
    def _chop(segment_path: str, size: int) -> None:
        """Cut a torn tail off: appends go behind the end of the file, and
        bytes appended behind garbage would be unreachable on the next load."""
        fd = os.open(segment_path, os.O_RDWR)
        try:
            os.ftruncate(fd, size)
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- forensics ---------------------------------------------------------------------

    def raw_image(self) -> bytes:
        """Every byte currently held by the log (forensic scanning).

        For a file-backed log that is what is *on disk* — every file in the
        log directory, a stray temporary file included — followed by the
        records not flushed yet; for a memory-only log, every record.
        """
        return self._image(redact_catalog=False)

    def forensic_image(self) -> bytes:
        """Scanner input: every log byte except CATALOG ``after`` documents.

        CATALOG records persist the DDL state, and a generalization *domain*
        is part of it — including its level-0 vocabulary, i.e. every accurate
        value the domain admits.  That vocabulary is schema, not data: it is
        fixed at DDL time and identical whether zero or a million tuples were
        inserted, so a value's presence in it proves nothing about any tuple's
        retention.  :meth:`raw_image` stays complete (the bytes *are* on
        disk); this view is what the non-recoverability scanner greps so the
        ontology is not flagged as a retained tuple value.
        """
        return self._image(redact_catalog=True)

    def _image(self, redact_catalog: bool) -> bytes:
        records = self._records
        flushed = 0          # how many of ``records`` are in the files
        parts: List[bytes] = []
        if self.path is not None:
            if records:
                flushed = max(0, self._flushed_lsn + 1 - records[0].lsn)
            files: Dict[str, bytearray] = {}
            for name in sorted(os.listdir(self.path)):
                with open(os.path.join(self.path, name), "rb") as handle:
                    files[os.path.join(self.path, name)] = \
                        bytearray(handle.read())
            if redact_catalog:
                for record in records[:flushed]:
                    if record.record_type is LogRecordType.CATALOG \
                            and record.after:
                        segment, offset = self._locate(record.lsn)
                        data = files[segment.path]
                        # ``after`` ends where the image CRC (the record's
                        # last 4 bytes) begins.
                        end = offset + _HEAD.unpack_from(data, offset)[0]
                        data[end - len(record.after):end] = \
                            bytes(len(record.after))
            parts.extend(bytes(data) for data in files.values())
        for record in records[flushed:]:
            if redact_catalog and record.after and \
                    record.record_type is LogRecordType.CATALOG:
                record = replace(record, after=None)
            parts.append(record.encode())
        return b"".join(parts)

    def close(self) -> None:
        if self.path is not None:
            self.flush()


__all__ = ["WriteAheadLog", "LogRecord", "LogRecordType", "WALStats",
           "WAL_FORMAT_VERSION",
           "encode_degrade_chunk", "decode_degrade_chunk",
           "encode_schedule_steps", "decode_schedule_steps",
           "encode_schedule_defers", "decode_schedule_defers",
           "encode_schedule_registration", "decode_schedule_registration",
           "encode_page_directory", "decode_page_directory"]
