"""Write-ahead log with degradation-aware retention.

Traditional WALs are one of the "unintended retention" channels the paper
singles out: even after a value has been degraded in the data store, its
accurate before-image survives in the log and can be recovered forensically.
This WAL therefore supports, besides the classic append/flush/replay protocol:

* ``DEGRADE`` log records that carry **no accurate before-image** — degradation
  is deterministic and irreversible, so recovery never needs to undo it;
* :meth:`WriteAheadLog.scrub_record` / :meth:`WriteAheadLog.scrub_records` —
  physically rewrite the log so that no image of the given records survives
  (used when tuples reach their final state or are deleted); the bulk form is
  the one the batch degradation pipeline uses, paying one rewrite for a whole
  expiry wave;
* :meth:`WriteAheadLog.truncate_until` — drop the prefix made obsolete by a
  checkpoint.

The log also persists the **degradation schedule** (the ``SCHED_*`` record
types): registrations, applied steps, deferrals, event firings and — on clean
shutdown — a full snapshot of the due-queue.  These records carry row keys,
state indices and due times but never attribute values, so they survive
scrubbing untouched; :class:`~repro.txn.recovery.RecoveryManager` replays them
into a reconstructed :class:`~repro.core.scheduler.DegradationScheduler` (see
``docs/durability.md``).

The log is held in memory and optionally mirrored to a file so that crash
recovery tests can reopen it.  The durability path is append-only: ``flush``
writes only the records past ``flushed_lsn`` and fsyncs once, so a run of n
commits costs O(n) bytes of log I/O; only scrubbing and truncation pay a full
rewrite (that is their point — removing bytes from the middle of the file).
"""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import DurabilityError, WALError
from ..faults import FaultPlan
from .serialization import decode_record, encode_record

_LEN_STRUCT = struct.Struct("<I")


class LogRecordType(Enum):
    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    DEGRADE = "DEGRADE"
    # One degradation-wave chunk applied through the columnar segment layer:
    # every listed row of one segment had ``attribute`` advanced to the same
    # accuracy level.  ``row_key`` holds the *segment id* (not a heap row key)
    # and the payload carries only the target level plus the affected row
    # keys — never attribute values — so the record replaces N per-row
    # DEGRADE records with one, and is scrub-exempt by construction.
    SEGMENT_DEGRADE = "SEGMENT_DEGRADE"
    REMOVE = "REMOVE"          # final removal at end of life cycle
    CHECKPOINT = "CHECKPOINT"
    SCRUB = "SCRUB"            # audit trace of a log scrubbing action
    # Degradation-schedule records: the durable image of the scheduler's
    # due-queue.  They carry row keys, attribute names, state indices and due
    # times — never attribute values — so they are exempt from scrubbing by
    # construction (nothing in them can leak a degraded value).
    SCHED_REGISTER = "SCHED_REGISTER"      # record entered the schedule
    SCHED_STEP = "SCHED_STEP"              # step(s) applied (batch payload)
    SCHED_DEFER = "SCHED_DEFER"            # step(s) re-queued after a conflict
    SCHED_EVENT = "SCHED_EVENT"            # named event fired
    SCHED_CHECKPOINT = "SCHED_CHECKPOINT"  # full queue snapshot (clean shutdown)
    # DDL marker: the table was dropped.  Recovery skips records of tables
    # that are absent from the reopened catalog *and* carry this marker;
    # an absent table without one is still a hard configuration error.
    TABLE_DROP = "TABLE_DROP"
    # Catalog snapshot: the full DDL state (domains, policies, tables,
    # purposes, indexes, columnar mirrors) serialized into the ``after``
    # payload, appended on DDL commit and folded into every checkpoint so
    # ``recover()`` reopens without re-running DDL.  Like the SCHED_* records
    # it carries names, structure and selector keys — never degradable
    # attribute values — so it is scrub-exempt by construction.
    CATALOG = "CATALOG"
    # Heap page allocated to a table (``row_key`` holds the page id).  The
    # row→page map is rebuilt by scanning the heap at recovery, but *which*
    # pager pages belong to which table must itself be durable: degraded rows
    # exist only on their flushed pages (their accurate log images are
    # scrubbed), so losing page ownership would lose the rows.  CHECKPOINT
    # records fold the full directory into their payload; PAGE_ALLOC covers
    # the tail behind the last checkpoint.
    PAGE_ALLOC = "PAGE_ALLOC"


#: Record types whose before/after images hold row payloads: when a row
#: degrades past an accuracy level, these are the records whose images
#: :meth:`WriteAheadLog.scrub_records` rewrites to ``None`` so the accurate
#: value cannot be resurrected from the log (the paper's bounded-retention
#: guarantee).  Every :class:`LogRecordType` must appear in exactly one of
#: ``_SCRUB_TARGETS`` / ``_SCRUB_EXEMPT`` — enforced by the *wal-exhaustive*
#: reprolint rule; see the new-record-type checklist in docs/invariants.md.
_SCRUB_TARGETS = frozenset({
    LogRecordType.INSERT,
    LogRecordType.UPDATE,
    LogRecordType.DELETE,
    LogRecordType.DEGRADE,
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
    # Carries a target level + row keys only (its ``row_key`` field is a
    # segment id, so the (table, row_key) scrub match must never touch it).
    LogRecordType.SEGMENT_DEGRADE,
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
    #: Memoized wire encoding.  Records are immutable, so the payload is
    #: computed at most once; ``dataclasses.replace`` (scrubbing) builds a new
    #: record and therefore a fresh encoding.
    _encoded: Optional[bytes] = field(default=None, init=False, repr=False,
                                      compare=False)

    def encode(self) -> bytes:
        cached = self._encoded
        if cached is None:
            cached = encode_record([
                self.lsn,
                self.txn_id,
                self.record_type.value,
                self.table,
                self.row_key,
                self.attribute,
                self.before if self.before is not None else False,
                self.after if self.after is not None else False,
                float(self.timestamp),
            ])
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def encoding_cached(self) -> bool:
        return self._encoded is not None

    @classmethod
    def decode(cls, payload: bytes) -> "LogRecord":
        values = decode_record(payload)
        if len(values) != 9:
            raise WALError(f"malformed log record with {len(values)} fields")
        before = values[6] if isinstance(values[6], (bytes, bytearray)) else None
        after = values[7] if isinstance(values[7], (bytes, bytearray)) else None
        return cls(
            lsn=int(values[0]),
            txn_id=int(values[1]),
            record_type=LogRecordType(values[2]),
            table=str(values[3]),
            row_key=int(values[4]),
            attribute=str(values[5]),
            before=bytes(before) if before is not None else None,
            after=bytes(after) if after is not None else None,
            timestamp=float(values[8]),
        )


# -- schedule record payloads -------------------------------------------------
#
# SCHED_STEP and SCHED_DEFER records cover a whole degradation batch with one
# log record: their ``after`` payload is a flat encoded list with a leading
# entry count.  The table name lives in the record header; row keys identify
# the tuples within it.

def encode_schedule_steps(entries: List[Tuple[int, str, int, float]]) -> bytes:
    """Encode ``(row_key, attribute, to_state, due)`` step entries."""
    flat: List[Any] = [len(entries)]
    for row_key, attribute, to_state, due in entries:
        flat.extend([int(row_key), attribute, int(to_state), float(due)])
    return encode_record(flat)


def decode_schedule_steps(payload: bytes) -> List[Tuple[int, str, int, float]]:
    """Inverse of :func:`encode_schedule_steps`."""
    flat = decode_record(payload)
    count = int(flat[0])
    if len(flat) != 1 + 4 * count:
        raise WALError(f"malformed SCHED_STEP payload with {len(flat)} fields")
    entries = []
    for index in range(count):
        offset = 1 + 4 * index
        entries.append((int(flat[offset]), str(flat[offset + 1]),
                        int(flat[offset + 2]), float(flat[offset + 3])))
    return entries


def encode_schedule_defers(entries: List[Tuple[int, str, int, float, float]]) -> bytes:
    """Encode ``(row_key, attribute, from_state, due, until)`` defer entries."""
    flat: List[Any] = [len(entries)]
    for row_key, attribute, from_state, due, until in entries:
        flat.extend([int(row_key), attribute, int(from_state),
                     float(due), float(until)])
    return encode_record(flat)


def decode_schedule_defers(payload: bytes) -> List[Tuple[int, str, int, float, float]]:
    """Inverse of :func:`encode_schedule_defers`."""
    flat = decode_record(payload)
    count = int(flat[0])
    if len(flat) != 1 + 5 * count:
        raise WALError(f"malformed SCHED_DEFER payload with {len(flat)} fields")
    entries = []
    for index in range(count):
        offset = 1 + 5 * index
        entries.append((int(flat[offset]), str(flat[offset + 1]),
                        int(flat[offset + 2]), float(flat[offset + 3]),
                        float(flat[offset + 4])))
    return entries


def encode_segment_degrade(to_level: int, row_keys: List[int]) -> bytes:
    """Encode a SEGMENT_DEGRADE payload: target level + affected row keys."""
    flat: List[Any] = [int(to_level), len(row_keys)]
    flat.extend(int(row_key) for row_key in row_keys)
    return encode_record(flat)


def decode_segment_degrade(payload: bytes) -> Tuple[int, List[int]]:
    """Inverse of :func:`encode_segment_degrade`."""
    flat = decode_record(payload)
    count = int(flat[1])
    if len(flat) != 2 + count:
        raise WALError(
            f"malformed SEGMENT_DEGRADE payload with {len(flat)} fields")
    return int(flat[0]), [int(row_key) for row_key in flat[2:]]


def encode_policy_names(policies: Dict[str, str]) -> bytes:
    """Encode the attribute → policy-name map a SCHED_REGISTER record carries.

    Policy *names* are not sensitive (unlike the selector value that picked
    them, which must never enter the log): they let recovery re-resolve
    per-tuple overrides even after the selector value degraded.
    """
    flat: List[Any] = [len(policies)]
    for attribute in sorted(policies):
        flat.extend([attribute, policies[attribute]])
    return encode_record(flat)


def decode_policy_names(payload: bytes) -> Dict[str, str]:
    """Inverse of :func:`encode_policy_names`."""
    flat = decode_record(payload)
    count = int(flat[0])
    if len(flat) != 1 + 2 * count:
        raise WALError(f"malformed policy-name payload with {len(flat)} fields")
    return {str(flat[1 + 2 * i]): str(flat[2 + 2 * i]) for i in range(count)}


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
    scrub_rewrites: int = 0
    truncations: int = 0
    #: Bytes physically written to the log file (appends and rewrites alike);
    #: the benchmark guard that the durability path stays O(n), not O(n^2).
    bytes_written: int = 0
    #: Payload encodings actually computed (vs. served from the per-record
    #: cache); the guard that scrub/truncate rewrites do not re-encode every
    #: surviving record.
    payload_encodes: int = 0
    payload_cache_hits: int = 0


class WriteAheadLog:
    """Append-only log with degradation-aware scrubbing."""

    def __init__(self, path: Optional[str] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        self.path = path
        self.faults = faults
        self._records: List[LogRecord] = []
        self._next_lsn = 1
        self._flushed_lsn = 0
        #: Byte length of the known-good on-disk prefix.  A failed or torn
        #: flush leaves garbage past this point; the next flush truncates back
        #: to it before appending, so the file never accumulates torn tails.
        self._disk_bytes = 0
        #: Set when a scrub/truncate rewrite failed mid-way: the in-memory log
        #: and the file have diverged beyond the append protocol's reach, so
        #: the next flush must retry the full rewrite instead of appending.
        self._rewrite_pending = False
        #: Transactions that have begun but logged nothing yet: txn id → begin
        #: timestamp.  Their BEGIN is written just ahead of their first record
        #: (see :meth:`begin`), so a read-only transaction never reaches the log.
        self._unlogged: Dict[int, float] = {}
        self.stats = WALStats()
        if path is not None and os.path.exists(path):
            self._load(path)

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
        if before is not None and (
                record_type is LogRecordType.DEGRADE
                or record_type is LogRecordType.SEGMENT_DEGRADE):
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
        self.stats.appended += 1
        return record

    def flush(self) -> None:
        """Persist every appended record (durability point).

        Append-only: only records with ``lsn > flushed_lsn`` are written (they
        form a suffix of the in-memory list), followed by one fsync.  Full
        rewrites happen only in :meth:`scrub_records` and
        :meth:`truncate_until`, which must remove bytes already on disk.

        Failure semantics: any I/O error — real or injected via the fault
        plan — surfaces as :class:`DurabilityError` *without* advancing
        ``flushed_lsn`` or the known-good byte mark, so a retry (or the next
        flush after recovery) first truncates any torn tail back to the last
        good byte and rewrites the whole pending suffix.  The on-disk prefix
        up to the last successful flush is never touched.
        """
        if self.path is not None:
            if self._rewrite_pending:
                # A scrub/truncate rewrite failed earlier; appending would
                # persist images the in-memory log already dropped.
                self._rewrite_file()
                self.stats.flushed += 1
                return
            start = len(self._records)
            while start > 0 and self._records[start - 1].lsn > self._flushed_lsn:
                start -= 1
            pending = self._records[start:]
            if pending:
                buffer = bytearray()
                for record in pending:
                    payload = self._payload(record)
                    buffer += _LEN_STRUCT.pack(len(payload))
                    buffer += payload
                event = self.faults.fire("wal.flush") if self.faults else None
                try:
                    if event is not None and event.kind == "enospc":
                        raise OSError(errno.ENOSPC,
                                      "injected: no space left on device")
                    mode = "r+b" if os.path.exists(self.path) else "w+b"
                    with open(self.path, mode) as handle:
                        handle.truncate(self._disk_bytes)
                        handle.seek(self._disk_bytes)
                        if event is not None and event.kind == "torn_write":
                            handle.write(bytes(buffer[:max(1, len(buffer) // 2)]))
                            handle.flush()
                            raise OSError(errno.EIO, "injected: torn write")
                        handle.write(bytes(buffer))
                        handle.flush()
                        if event is not None and event.kind == "fsync":
                            raise OSError(errno.EIO, "injected: fsync failed")
                        os.fsync(handle.fileno())
                except OSError as exc:
                    # Best-effort immediate repair: chop whatever the failed
                    # attempt managed to write back to the known-good prefix.
                    # A torn half-buffer can end exactly on a record boundary,
                    # and a crash before the next flush would then make _load
                    # accept records whose durability was *denied* to the
                    # caller.  If this repair fails too, the next flush (or
                    # _load's framing check) still truncates first.
                    try:
                        with open(self.path, "r+b") as handle:
                            handle.truncate(self._disk_bytes)
                            handle.flush()
                            os.fsync(handle.fileno())
                    except OSError:  # reprolint: disable=no-swallowed-io-error -- best-effort torn-tail repair while propagating the original failure
                        pass
                    raise DurabilityError(f"WAL flush failed: {exc}") from exc
                self.stats.bytes_written += len(buffer)
                self._disk_bytes += len(buffer)
        self._flushed_lsn = self._records[-1].lsn if self._records else self._flushed_lsn
        self.stats.flushed += 1

    def _payload(self, record: LogRecord) -> bytes:
        """Wire encoding of ``record``, tracking cache effectiveness."""
        if record.encoding_cached:
            self.stats.payload_cache_hits += 1
        else:
            self.stats.payload_encodes += 1
        return record.encode()

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
        return [
            record for record in self._records
            if record.table == table and record.row_key == row_key
        ]

    # -- degradation-aware maintenance -----------------------------------------

    def scrub_record(self, table: str, row_key: int, now: float = 0.0) -> int:
        """Remove every image of ``(table, row_key)`` from the log.

        The payloads of matching INSERT/UPDATE/DELETE records are dropped (the
        structural entry remains so LSNs stay dense and recovery still knows a
        record existed); the log file is rewritten so no byte of the images
        survives on disk.  Returns the number of records scrubbed.
        """
        return self.scrub_records([(table, row_key)], now=now)

    def scrub_records(self, keys: Iterable[Tuple[str, int]], now: float = 0.0) -> int:
        """Bulk :meth:`scrub_record`: one log pass and one rewrite for all ``keys``.

        This is what makes scrubbing affordable on the degradation hot path:
        a batch of n expiring rows pays a single O(log) scan and a single file
        rewrite instead of n of each.  One *aggregate* SCRUB audit record is
        appended per batch (its ``attribute`` names the touched-key count and
        its ``after`` payload carries the count), so a mass-removal wave grows
        the log by O(1) audit bytes instead of O(n).  A single-key scrub keeps
        the per-row audit shape (table + row key).  Returns the total number
        of records scrubbed.
        """
        targets = set(keys)
        if not targets:
            return 0
        scrubbed = 0
        touched = set()
        for index, record in enumerate(self._records):
            if record.record_type in _SCRUB_EXEMPT:
                # Schedule/structure records never hold attribute values —
                # their payloads (policy names, state indices, page ids) must
                # survive scrubbing for recovery to work.
                continue
            key = (record.table, record.row_key)
            if key not in targets:
                continue
            if record.before is None and record.after is None:
                continue
            self._records[index] = replace(record, before=None, after=None)
            scrubbed += 1
            touched.add(key)
        if scrubbed:
            self.stats.scrubbed_records += scrubbed
            self.stats.scrub_rewrites += 1
            tables = sorted({table for table, _row_key in touched})
            if len(touched) == 1:
                table, row_key = next(iter(touched))
                self.append(LogRecordType.SCRUB, txn_id=0, table=table,
                            row_key=row_key, timestamp=now)
            else:
                self.append(
                    LogRecordType.SCRUB, txn_id=0,
                    table=tables[0] if len(tables) == 1 else "",
                    row_key=-1, attribute=f"batch:{len(touched)}",
                    after=encode_record([len(touched), scrubbed]),
                    timestamp=now,
                )
            if self.path is not None:
                self._rewrite_file()
        return scrubbed

    def truncate_until(self, lsn: int) -> int:
        """Drop every record with ``record.lsn <= lsn`` (post-checkpoint cleanup)."""
        before = len(self._records)
        self._records = [record for record in self._records if record.lsn > lsn]
        dropped = before - len(self._records)
        if dropped:
            self.stats.truncations += 1
            if self.path is not None:
                self._rewrite_file()
        return dropped

    # -- persistence -------------------------------------------------------------

    def _rewrite_file(self) -> None:
        assert self.path is not None
        # Armed until the atomic replace lands: a failure here (the in-memory
        # log has already dropped images the file still holds) forces the next
        # flush to retry the full rewrite instead of appending.
        self._rewrite_pending = True
        event = self.faults.fire("wal.rewrite") if self.faults else None
        tmp_path = self.path + ".tmp"
        total = 0
        try:
            if event is not None and event.kind == "enospc":
                raise OSError(errno.ENOSPC,
                              "injected: no space left on device")
            with open(tmp_path, "wb") as handle:
                for record in self._records:
                    payload = self._payload(record)
                    handle.write(_LEN_STRUCT.pack(len(payload)))
                    handle.write(payload)
                    total += _LEN_STRUCT.size + len(payload)
                handle.flush()
                if event is not None and event.kind == "fsync":
                    raise OSError(errno.EIO, "injected: fsync failed")
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:  # reprolint: disable=no-swallowed-io-error -- best-effort tmp cleanup while propagating the original failure
                pass
            raise DurabilityError(f"WAL rewrite failed: {exc}") from exc
        self.stats.bytes_written += total
        self._disk_bytes = total
        # A rewrite persists everything currently in memory, so later flushes
        # must not re-append those records.
        self._flushed_lsn = self._records[-1].lsn if self._records else 0
        self._rewrite_pending = False

    def _load(self, path: str) -> None:
        with open(path, "rb") as handle:
            data = handle.read()
        offset = 0
        valid_until = 0
        while offset < len(data):
            if offset + _LEN_STRUCT.size > len(data):
                # Torn tail write: ignore the incomplete record.
                break
            (length,) = _LEN_STRUCT.unpack_from(data, offset)
            offset += _LEN_STRUCT.size
            if offset + length > len(data):
                break
            payload = data[offset:offset + length]
            record = LogRecord.decode(payload)
            # The bytes just read *are* the encoding; seed the cache so a
            # later rewrite does not re-encode recovered records.
            object.__setattr__(record, "_encoded", payload)
            self._records.append(record)
            offset += length
            valid_until = offset
        if valid_until < len(data):
            # Chop the torn tail now: the append-only flush writes after the
            # end of the file, and bytes appended behind garbage would be
            # unreachable on the next load.
            with open(path, "r+b") as handle:
                handle.truncate(valid_until)
                handle.flush()
                os.fsync(handle.fileno())
        self._disk_bytes = valid_until
        if self._records:
            self._next_lsn = self._records[-1].lsn + 1
            self._flushed_lsn = self._records[-1].lsn

    def raw_image(self) -> bytes:
        """Every byte currently held by the log (forensic scanning)."""
        return b"".join(self._payload(record) for record in self._records)

    def forensic_image(self) -> bytes:
        """Scanner input: every payload byte except CATALOG ``after`` documents.

        CATALOG records persist the DDL state, and a generalization *domain*
        is part of it — including its level-0 vocabulary, i.e. every accurate
        value the domain admits.  That vocabulary is schema, not data: it is
        fixed at DDL time and identical whether zero or a million tuples were
        inserted, so a value's presence in it proves nothing about any tuple's
        retention.  :meth:`raw_image` stays complete (the bytes *are* on
        disk); this view is what the non-recoverability scanner greps so the
        ontology is not flagged as a retained tuple value.
        """
        parts = []
        for record in self._records:
            if record.record_type is LogRecordType.CATALOG and record.after:
                parts.append(replace(record, after=None).encode())
            else:
                parts.append(self._payload(record))
        return b"".join(parts)

    def close(self) -> None:
        if self.path is not None:
            self.flush()


__all__ = ["WriteAheadLog", "LogRecord", "LogRecordType", "WALStats",
           "encode_schedule_steps", "decode_schedule_steps",
           "encode_schedule_defers", "decode_schedule_defers",
           "encode_segment_degrade", "decode_segment_degrade",
           "encode_policy_names", "decode_policy_names",
           "encode_page_directory", "decode_page_directory"]
