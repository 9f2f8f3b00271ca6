"""Write-ahead log with degradation-aware retention.

Traditional WALs are one of the "unintended retention" channels the paper
singles out: even after a value has been degraded in the data store, its
accurate before-image survives in the log and can be recovered forensically.
This WAL therefore supports, besides the classic append/flush/replay protocol:

* ``DELTA`` records — one per statement and heap page, every row change as
  a weighted entry: a row entering (+1, its image), a row replaced (−1 with
  the old image, +1 with the new) or a row leaving (−1, no image); each
  entry has its own length and CRC, so one row's image can go while its
  neighbours stay;
* :meth:`WriteAheadLog.scrub_records` — destroy every row image of the given
  rows **in place**: a key → (LSN, entry) side table finds them, one mark
  byte per record flags it (partly) scrubbed and the entries are
  overwritten with zeroes where they lie.  Nothing else in the log moves or
  is rewritten, so a wave costs O(images it destroys);
* :meth:`WriteAheadLog.truncate_until` — drop the prefix made obsolete by a
  checkpoint by unlinking whole segment files.

A **degradation step** is not in the log at all: its durable record is the
heap page it rewrote, synced before the step's images are scrubbed, so a
wave that removes no row appends nothing but the scrub's audit record.  The
**degradation schedule** is not in the log either: recovery derives it from
the heap (each row's insertion time and stored levels).  The one schedule
input the heap cannot give back is an event firing, logged as a
``SCHED_EVENT`` record (an event name and a time, never an attribute value)
and logged again by every checkpoint for as long as a live row can need it
(see ``docs/durability.md``).

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
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from zlib import crc32

from ..core.errors import (
    DurabilityError,
    LogCorruptionError,
    LogFormatError,
    WALError,
)
from ..faults import FaultPlan
from .serialization import encode_record

#: Version of the on-disk format, stored in every segment header.  Version 1
#: was the single-file, unchecksummed ``wal.log``; version 2 had per-row
#: ``DEGRADE`` and per-step schedule payloads and a ``SEGMENT_DEGRADE`` type;
#: version 3 had one schedule registration per row, per-step deferral
#: entries and per-record schedule snapshots; version 4 had one ``INSERT``
#: record per row and a reserved ``DELETE`` code; version 5 logged the
#: schedule itself (registrations, steps, deferrals and checkpoint
#: snapshots: four record types), which recovery now derives from the heap;
#: version 6 logged a row change as one of three record types
#: (``INSERT_RUN`` per page, ``UPDATE`` and ``REMOVE`` per row) and had a
#: before-image field in every record head; version 7's row images stored
#: each level as a tagged 8-byte INT and its ``CATALOG`` documents
#: uncompressed; version 8 logged each heap page's allocation to its table
#: as a record of its own and folded the table → pages directory into every
#: ``CHECKPOINT``: a page's header names its owner now; version 9 logged
#: each wave chunk as a ``DEGRADE`` record; version 10's row images held
#: their values in declared order; version 11's stored every INT in 8 bytes
#: and every TEXT length in 4.  There is no reader for any of them.
WAL_FORMAT_VERSION = 12

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
#: · attribute length · payload length.  The header CRC covers the length
#: field and everything from the type code to the end of the attribute name
#: — not the mark, which a scrub flips with a one-byte write.
_HEAD = struct.Struct("<IIBBqqqdHHI")
_MARK_OFFSET = 8
_CRC = struct.Struct("<I")
#: Payload length standing for "no payload" (``None``), as opposed to ``b""``.
_NO_IMAGE = 0xFFFFFFFF
#: Length field of a DELTA entry: the bytes of its key, weight and image.
_SUB_LENGTH = struct.Struct("<I")
#: A DELTA entry's row key and weight, ahead of its image; with its length.
_KEYED = struct.Struct("<qb")
_ENTRY = struct.Struct("<Iqb")
#: The valid scrub marks: a single flipped bit turns none into another.
#: ``_PARTIAL`` marks a ``DELTA`` some of whose entries are zeroed: its
#: record CRC no longer holds, each entry's own CRC does.
_LIVE = 0x00
_SCRUBBED = 0xA5
_PARTIAL = 0x5A


class LogRecordType(Enum):
    """Record types.  A record stores its type as the member's position in
    this class, so new types are appended at the end, never inserted, and
    removing one — the last member then moves into its slot — is a new
    ``WAL_FORMAT_VERSION``."""

    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    # One statement's row changes on one heap page: ``after`` holds its
    # ``(row key, weight, image?)`` entries back to back, each as ``length ·
    # key · weight · image · CRC`` (see :func:`encode_delta`); ``row_key`` is
    # the highest key.  It took the slot of ``INSERT_RUN`` (format 6), which
    # had taken the per-row ``INSERT``'s (format 5).
    DELTA = "DELTA"
    # DDL marker: the table was dropped.  Recovery skips records of tables
    # that are absent from the reopened catalog *and* carry this marker;
    # an absent table without one is still a hard configuration error.
    # (It took the slot of ``UPDATE``, which format version 7 retired.)
    TABLE_DROP = "TABLE_DROP"
    # Catalog snapshot: the full DDL state (domains, policies, tables,
    # purposes, indexes) serialized into the ``after`` payload, appended on
    # DDL commit and folded into every checkpoint so ``recover()`` reopens
    # without re-running DDL.  Like SCHED_EVENT it carries names,
    # structure and selector keys — never degradable attribute values — so
    # it is scrub-exempt by construction.  (It took the slot of the reserved
    # ``DELETE`` — never appended, retired in format version 5 — as the
    # last member.)
    CATALOG = "CATALOG"
    # The truncation anchor of a checkpoint; it carries no payload.  (It
    # took the slot of ``DEGRADE``, which format version 10 retired: the
    # synced heap page is the record of a degradation step.)
    CHECKPOINT = "CHECKPOINT"
    # Audit trace of a log scrubbing action.  (It took the slot of the
    # page-allocation type, which format version 9 retired: a page's header
    # names its owner.)
    SCRUB = "SCRUB"
    # A named event fired (``attribute`` holds the event, ``timestamp`` the
    # time): the one input of the degradation schedule the heap cannot give
    # back.  No attribute value is in it, so it is scrub-exempt.  (It took
    # the slot of ``REMOVE``, which format version 7 retired.)
    SCHED_EVENT = "SCHED_EVENT"


_TYPES: Tuple[LogRecordType, ...] = tuple(LogRecordType)
_TYPE_CODES: Dict[LogRecordType, int] = {
    record_type: code for code, record_type in enumerate(_TYPES)}
_DELTA_CODE = _TYPE_CODES[LogRecordType.DELTA]

#: Record types whose payloads hold row images: when a row
#: degrades past an accuracy level, these are the records whose images
#: :meth:`WriteAheadLog.scrub_records` zeroes so the accurate value cannot be
#: resurrected from the log (the paper's bounded-retention guarantee).  Every
#: :class:`LogRecordType` must appear in exactly one of ``_SCRUB_TARGETS`` /
#: ``_SCRUB_EXEMPT`` — enforced by the *wal-exhaustive* reprolint rule; see
#: the new-record-type checklist in docs/invariants.md.
_SCRUB_TARGETS = (LogRecordType.DELTA,)    # a tuple: ``in`` tests identity, no Enum.__hash__

#: Record types whose payloads carry no attribute values and must survive
#: scrubbing: transaction control and checkpoint markers, the SCRUB audit
#: trail itself, event firings, and storage-structure records.
_SCRUB_EXEMPT = frozenset({
    LogRecordType.BEGIN,
    LogRecordType.COMMIT,
    LogRecordType.ABORT,
    LogRecordType.CHECKPOINT,
    LogRecordType.SCRUB,
    LogRecordType.SCHED_EVENT,
    LogRecordType.TABLE_DROP,
    LogRecordType.CATALOG,
})


@dataclass(slots=True)
class LogRecord:
    """One log entry.  ``after`` is its opaque payload.  A ``DELTA``'s is a
    ``bytearray``: a scrub zeroes one row's entries in it where they lie,
    and sets it to ``None`` once the last live one is gone."""

    lsn: int
    txn_id: int
    record_type: LogRecordType
    table: str = ""
    row_key: int = -1
    attribute: str = ""
    after: Optional[bytes] = None
    timestamp: float = 0.0

    def encode(self) -> bytes:
        """The record as it is framed on disk (length prefix included)."""
        table = self.table.encode("utf-8")
        attribute = self.attribute.encode("utf-8")
        after = self.after
        image = after or b""
        head = _HEAD.pack(
            _HEAD.size - 4 + len(table) + len(attribute) + len(image) + 4,
            0, _LIVE, _TYPE_CODES[self.record_type], self.lsn, self.txn_id,
            self.row_key, float(self.timestamp), len(table), len(attribute),
            _NO_IMAGE if after is None else len(after))
        covered = head[_MARK_OFFSET + 1:] + table + attribute
        return b"".join((
            head[:4], _CRC.pack(crc32(covered, crc32(head[:4]))),
            head[_MARK_OFFSET:_MARK_OFFSET + 1], covered,
            image, _CRC.pack(crc32(image))))

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

    Returns ``(record, end offset, payload offset)``.  A record marked
    scrubbed comes back without payload whatever its bytes hold (the caller
    checks they are zero); a live record's payload must match its CRC.
    Anything that does not check out raises :class:`LogCorruptionError`.
    """
    if offset + _HEAD.size > limit:
        raise LogCorruptionError("truncated log record head")
    (length, header_crc, mark, code, lsn, txn_id, row_key, timestamp,
     table_len, attribute_len, after_len) = _HEAD.unpack_from(data, offset)
    end = offset + 4 + length
    names_end = offset + _HEAD.size + table_len + attribute_len
    if end > limit or names_end + (0 if after_len == _NO_IMAGE else after_len) + 4 != end:
        raise LogCorruptionError("log record framing does not add up")
    if crc32(data[offset + _MARK_OFFSET + 1:names_end],
             crc32(data[offset:offset + 4])) != header_crc:
        raise LogCorruptionError(f"log record header CRC mismatch at {offset}")
    if code >= len(_TYPES):
        raise LogCorruptionError(f"unknown log record type code {code}")
    table_end = offset + _HEAD.size + table_len
    after = None
    delta = code == _DELTA_CODE
    if mark == _LIVE or (mark == _PARTIAL and delta):
        if mark == _LIVE and crc32(data[names_end:end - 4]) != \
                _CRC.unpack_from(data, end - 4)[0]:
            raise LogCorruptionError(
                f"log record image CRC mismatch (lsn {lsn})")
        if after_len != _NO_IMAGE:
            after = data[names_end:end - 4]
            after = bytearray(after) if delta else bytes(after)
            if delta and not any(live for *_place, live in _entry_spans(after)):
                after = None
    elif mark != _SCRUBBED:
        raise LogCorruptionError(f"invalid scrub mark {mark:#x} (lsn {lsn})")
    record = LogRecord(
        lsn=lsn, txn_id=txn_id, record_type=_TYPES[code],
        table=str(data[offset + _HEAD.size:table_end], "utf-8"),
        row_key=row_key,
        attribute=str(data[table_end:names_end], "utf-8"),
        after=after, timestamp=timestamp)
    return record, end, names_end


#: A ``DELTA`` entry: ``(row key, weight ±1, image or None)``.
Entry = Tuple[int, int, Optional[bytes]]


def encode_delta(entries: Sequence[Entry]) -> Tuple[bytearray, List[Tuple[int, int, int]]]:
    """The DELTA payload of ``entries``: each as ``length · row key · weight ·
    image · CRC-32 of key, weight and image``, back to back, in a
    ``bytearray`` of exactly that size — and the ``(offset, length, row key)``
    of each, what a scrub zeroes (the length stays)."""
    parts: List[bytes] = []
    index, offset = [], 4
    for row_key, weight, image in entries:
        image = image or b""
        length = _KEYED.size + len(image)
        head = _ENTRY.pack(length, row_key, weight)
        parts += head, image, _CRC.pack(crc32(head[4:] + image))
        index.append((offset, length, row_key))
        offset += length + 8
    return bytearray(b"".join(parts)), index


def _entry_spans(payload: Any) -> Iterator[Tuple[int, int, bool]]:
    """``(offset, length, live)`` of each entry of a DELTA payload.

    An entry is live when its CRC matches, gone when its bytes and CRC are
    all zero (a scrub zeroes both and keeps the length); anything else is a
    scrub a crash interrupted, and counts as gone too.  Framing that does not
    add up raises :class:`LogCorruptionError`."""
    offset, size = 0, len(payload)
    while offset < size:
        if offset + 4 > size:
            raise LogCorruptionError("DELTA payload ends inside an entry length")
        length = _SUB_LENGTH.unpack_from(payload, offset)[0]
        offset += 4
        if length < _KEYED.size or offset + length + 4 > size:
            raise LogCorruptionError("DELTA entry runs past its record")
        yield offset, length, \
            crc32(payload[offset:offset + length]) == _CRC.unpack_from(payload, offset + length)[0]
        offset += length + 4


def _live_entries(payload: Any) -> List[Tuple[int, int, int]]:
    """``(offset, length, row key)`` of each live entry of ``payload``."""
    return [(offset, length, _KEYED.unpack_from(payload, offset)[0])
            for offset, length, live in _entry_spans(payload) if live]


def delta_entries(record: LogRecord) -> List[Entry]:
    """``(row key, weight, image or None)`` of each live entry of a DELTA record."""
    payload = record.after or b""
    return [(*_KEYED.unpack_from(payload, offset),
             bytes(payload[offset + _KEYED.size:offset + length])
             if length > _KEYED.size else None)
            for offset, length, _row_key in _live_entries(payload)]


@dataclass
class WALStats:
    appended: int = 0
    #: Appends per record type name, ``appended`` split by kind.
    appended_by_type: Counter = field(default_factory=Counter)
    flushed: int = 0
    #: Row images destroyed: ``DELTA`` entries zeroed.
    scrubbed_records: int = 0
    #: :meth:`WriteAheadLog.scrub_records` calls that found an image to
    #: destroy (a batch of keys is one pass, however many records it hits).
    scrub_passes: int = 0
    #: Bytes written over images in segment files: zeroes, and the length
    #: fields between adjacent entries, rewritten as they are.
    scrub_bytes_zeroed: int = 0
    truncations: int = 0
    #: Bytes physically written to the log directory — appended records,
    #: segment headers, scrub marks and zeroes;
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
    """Make a create or unlink inside ``path`` durable."""
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
        #: ``(table, row_key)`` → ``(LSN, entry offset, length)`` of each
        #: ``DELTA`` entry that still holds an image of that row: where in the
        #: record's ``after`` the entry starts and how long it is.  What a
        #: scrub looks up instead of scanning.
        self._images: Dict[Tuple[str, int], List[Tuple[int, int, int]]] = {}
        #: LSN of a ``DELTA`` holding an image → how many of its entries are
        #: live (imageless ones included: they are never scrubbed).
        self._run_live: Dict[int, int] = {}
        #: Images already dropped from memory whose on-disk bytes are not
        #: durably zeroed yet: ``(lsn, mark, offset in the record, bytes)`` —
        #: the mark to set, then the bytes to write there.  Emptied by a
        #: successful zeroing pass; one that failed leaves it for the next
        #: :meth:`flush` to retry first.
        self._unzeroed: List[Tuple[int, int, int, bytes]] = []
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
               row_key: int = -1, attribute: str = "", after: Optional[bytes] = None,
               timestamp: float = 0.0, images: Optional[List[Tuple]] = None) -> LogRecord:
        """``images``: a DELTA's entries as :func:`encode_delta` indexes them."""
        if txn_id in self._unlogged:
            self.append(LogRecordType.BEGIN, txn_id,
                        timestamp=self._unlogged.pop(txn_id))
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            record_type=record_type,
            table=table,
            row_key=row_key,
            attribute=attribute,
            after=after,
            timestamp=timestamp,
        )
        self._next_lsn += 1
        self._records.append(record)
        if after and record_type in _SCRUB_TARGETS:
            self._index_images(record, images)
        self.stats.appended += 1
        self.stats.appended_by_type[record_type._value_] += 1   # a str: no Enum.__hash__ call
        return record

    def _index_images(self, record: LogRecord, index: Optional[List[Tuple]] = None) -> None:
        """Enter the row images ``record`` holds (``index``: unparsed) in the side table."""
        images, lsn, table = self._images, record.lsn, record.table
        index = _live_entries(record.after) if index is None else index
        imaged = 0
        for offset, length, row_key in index:
            if length > _KEYED.size:        # an imageless entry has nothing to scrub
                images.setdefault((table, row_key), []).append((lsn, offset, length))
                imaged += 1
        if imaged:
            self._run_live[lsn] = len(index)

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

        A truncating checkpoint calls this ahead of its anchor record, so
        truncating up to the anchor drops every record before it.
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
                for lsn in dict.fromkeys(lsn for lsn, _offset, _length
                                         in self._images.get((table, row_key), ()))]

    # -- degradation-aware maintenance -----------------------------------------

    def scrub_records(self, keys: Iterable[Tuple[str, int]], now: float = 0.0) -> int:
        """Destroy every row image of the ``(table, row key)`` ``keys`` in the
        log, in memory and in the segment files, in one pass: no byte of them
        survives on disk (a record itself remains, so LSNs stay dense and
        recovery still knows it existed).

        Each key costs one lookup in the image side table; a key with no
        image left in the log costs nothing else and a batch of such keys
        does no I/O at all.  Otherwise the pending suffix is written first
        (every record then has a place on disk, and — as scrubbing always
        did — everything appended so far is durable when this returns), the
        hit entries are zeroed in place (:meth:`_zero_images`): a record that
        keeps no live entry is marked scrubbed and its whole payload zeroed,
        one that keeps some is marked partly scrubbed and only the hit
        entries are.  One SCRUB audit record is appended per pass (its
        ``attribute`` names the touched-key count and its ``after`` payload
        carries the count), so a mass-removal wave grows the log by O(1)
        audit bytes.  Returns the number of images destroyed.

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
        hits: Dict[int, List[Tuple[int, int]]] = {}
        for key in touched:
            for lsn, offset, length in images.pop(key):
                hits.setdefault(lsn, []).append((offset, length))
        records = self._records
        first = records[0].lsn
        scrubbed = 0
        for lsn, spans in hits.items():
            record = records[lsn - first]
            hit = len(spans)
            scrubbed += hit
            live = self._run_live[lsn] - hit
            image_at = _HEAD.size + len(record.table.encode("utf-8")) \
                + len(record.attribute.encode("utf-8")) if on_disk else None
            if live:
                self._run_live[lsn] = live
                self._zero_entries(lsn, record.after, spans, image_at)
                continue
            del self._run_live[lsn]
            if on_disk:
                self._unzeroed.append((lsn, _SCRUBBED, image_at,
                                       bytes(len(record.after) + _CRC.size)))
            record.after = None
        self.stats.scrubbed_records += scrubbed
        self.stats.scrub_passes += 1
        if on_disk:
            self._zero_images()
        tables, count = set(map(itemgetter(0), touched)), len(touched)
        self.append(LogRecordType.SCRUB, txn_id=0,
                    table=tables.pop() if len(tables) == 1 else "",
                    attribute=f"batch:{count}", timestamp=now,
                    after=encode_record([count, scrubbed]))
        return scrubbed

    def _zero_entries(self, lsn: int, run: bytearray, spans: List[Tuple[int, int]],
                         image_at: Optional[int]) -> None:
        """Zero the ``(offset, length)`` entries of the DELTA record ``lsn``
        (key, weight, image and CRC; the length stays) in its payload
        ``run``, and — with the record's payload offset ``image_at`` — queue
        the disk writes: one per stretch of adjacent entries, the length
        fields between them rewritten as they are."""
        stretch_at = stretch_end = -1
        for offset, length in spans if image_at is None else sorted(spans):
            end = offset + length + _CRC.size
            run[offset:end] = bytes(end - offset)
            if image_at is None:
                continue
            if offset - _SUB_LENGTH.size != stretch_end:
                if stretch_end >= 0:
                    self._unzeroed.append((lsn, _PARTIAL, image_at + stretch_at,
                                           bytes(run[stretch_at:stretch_end])))
                stretch_at = offset
            stretch_end = end
        if stretch_end >= 0:
            self._unzeroed.append((lsn, _PARTIAL, image_at + stretch_at,
                                   bytes(run[stretch_at:stretch_end])))

    def truncate_until(self, lsn: int) -> int:
        """Drop the records with ``record.lsn <= lsn`` (post-checkpoint cleanup).

        On disk a segment goes whole or not at all: the segments lying wholly
        at or below ``lsn`` are unlinked, and a segment ``lsn`` falls inside
        is kept whole, so the log keeps a longer prefix — one recovery
        replays as it replays an untruncated log.  A truncating checkpoint
        calls :meth:`roll` ahead of its anchor, so only a transaction left open
        across it keeps such a segment.  A memory-only log drops exactly
        up to ``lsn``.  Memory follows the disk segment by segment, so an
        I/O failure (:class:`DurabilityError`) leaves a shorter but
        consistent truncation.  Returns the number of records dropped.
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
                key: live for key, held in self._images.items()
                if (live := [entry for entry in held if entry[0] >= kept])}
            self._run_live = {held: live for held, live in self._run_live.items()
                              if held >= kept}
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
        """fsync the log directory after a segment create or unlink."""
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
        mark byte is set — *scrubbed*, or *partly scrubbed* for a ``DELTA``
        that keeps live entries (one byte each: it cannot
        tear, and it lies outside the header CRC so nothing else is
        rewritten) — and the segment is fsynced; only then are the image
        bytes overwritten with zeroes and the segment fsynced again.
        Whatever subset of these writes a crash lets through, every image
        loads either intact (its mark never landed, so no zero was written)
        or gone (:meth:`_load` queues a marked image whose bytes are not all
        zero and runs this pass again) — never half an image under a live
        mark.
        """
        by_segment: Dict[_Segment, Dict[int, Tuple[int, List[Tuple[int, bytes]]]]] = {}
        for lsn, mark, at, data in self._unzeroed:
            segment, offset = self._locate(lsn)
            marks = by_segment.setdefault(segment, {})
            _earlier, writes = marks.get(offset, (mark, []))
            writes.append((offset + at, data))
            marks[offset] = (mark, writes)      # a later pass's mark wins
        event = self.faults.fire("wal.scrub") if self.faults else None
        written = zeroed = 0
        try:
            for segment, marks in by_segment.items():
                fd = os.open(segment.path, os.O_RDWR)
                try:
                    for offset, (mark, _writes) in marks.items():
                        written += os.pwrite(fd, bytes((mark,)), offset + _MARK_OFFSET)
                    os.fsync(fd)
                    places = [write for _mark, writes in marks.values() for write in writes]
                    if event is not None and event.kind == "torn_write":
                        places = places[:len(places) // 2]
                    for at, data in places:
                        zeroed += os.pwrite(fd, data, at)
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
            while self._segments and self._segments[0].end_lsn - 1 <= lsn:
                segment = self._segments[0]
                os.unlink(segment.path)
                changed = True
                del self._segments[0]
                self._drop_records(segment.end_lsn - 1)
        finally:
            if changed:
                self._sync_directory()

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

        * a stray ``*.tmp`` (an interrupted segment rewrite of an older
          build) is removed;
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
                mark = data[offset + _MARK_OFFSET]
                if mark == _SCRUBBED:
                    if data.count(0, image_at, end) != end - image_at:
                        self._unzeroed.append((record.lsn, _SCRUBBED, image_at - offset,
                                               bytes(end - image_at)))
                elif mark == _PARTIAL:
                    self._finish_entries(record, data[image_at:end - _CRC.size],
                                            image_at - offset)
                if record.after and record.record_type in _SCRUB_TARGETS:
                    self._index_images(record)
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

    def _finish_entries(self, record: LogRecord, run: bytes, at: int) -> None:
        """Queue the zeroing of a partly scrubbed DELTA's entries that are
        neither live nor all zero — writes a crash cut short — and zero them
        in memory too; ``run`` is the record's payload, ``at`` where it
        starts in the record."""
        for offset, length, live in _entry_spans(run):
            end = offset + length + _CRC.size
            if not live and run.count(0, offset, end) != end - offset:
                self._unzeroed.append((record.lsn, _PARTIAL, at + offset, bytes(end - offset)))
                if record.after is not None:
                    record.after[offset:end] = bytes(end - offset)

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
           "WAL_FORMAT_VERSION", "encode_delta", "delta_entries"]
