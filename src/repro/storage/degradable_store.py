"""Degradation-aware table storage.

:class:`TableStore` combines the heap file, the write-ahead log and (optionally)
the cryptographic key store into the storage manager of one table.  It is the
layer that makes a degradation step *effective*: after
:meth:`TableStore.degrade` returns, the accurate value is gone from the data
page (physically overwritten or crypto-erased), the log holds no accurate
image of it, and readers observe only the degraded value.

Each degradable attribute of a stored row carries its current **accuracy
level** (0 = collection accuracy, ``scheme.max_level`` = suppressed), which
degradation drives forward and reads compare against the purpose's demand.
Two non-recoverability strategies are benchmarked against each other (C2):
``"rewrite"`` rewrites the record in place and the page's secure reclamation
zeroes the stale bytes; ``"crypto"`` stores degradable values encrypted under
a per ``(row, column, level)`` key that a degradation step destroys.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain, islice
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.errors import (
    KeyDestroyedError,
    PolicyError,
    RecordNotFoundError,
    StorageError,
)
from ..core.generalization import GeneralizationScheme
from ..core.schema import TableSchema
from ..core.values import SUPPRESSED, is_missing
from ..devtools import invariants
from .buffer import BufferPool
from .crypto import KeyStore
from .heap import HeapFile, RecordId
from .serialization import (
    decode_fields,
    decode_value,
    encode_value,
    fixed_prefix,
    record_field_count,
    skip_values,
)
from .wal import LogRecordType, WriteAheadLog, encode_degrade_chunk

#: Strategies for making degradation non-recoverable.
STRATEGIES = ("rewrite", "crypto")

#: Decodes one page run (page buffer, record spans): ``(rows kept, each one's
#: position in the run, records the level rule had excluded before each,
#: records it excluded in the whole run)``; ``.caps`` are its level caps.
RunReader = Callable[..., Tuple[List[Any], List[int], List[int], int]]


@dataclass
class StoredRow:
    """A materialized row as seen by the execution layer (plaintext values)."""

    row_key: int
    values: Dict[str, Any]
    levels: Dict[str, int]
    inserted_at: float


@dataclass
class DegradeChunk:
    """One cohort of a degradation wave — the rows that took ``column`` from
    ``from_level`` to ``to_level`` — and what one ``DEGRADE`` log record says."""

    column: str
    from_level: int
    to_level: int
    scheme: GeneralizationScheme = field(repr=False)
    #: ``(old value, new value)`` → keys of the rows that made that move.
    transitions: Dict[Tuple[Any, Any], List[int]] = field(default_factory=dict)
    #: Encoded old field → ``(encoded new field, new value, that transition's
    #: row keys)``: ``generalize`` is pure, each distinct value pays it once.
    memo: Dict[bytes, Tuple[bytes, Any, List[int]]] = field(
        default_factory=dict, repr=False, compare=False)

    def row_keys(self) -> List[int]:
        return [row_key for moved in self.transitions.values() for row_key in moved]


@dataclass
class TableStoreStats:
    inserts: int = 0
    reads: int = 0
    degrade_steps: int = 0
    removals: int = 0
    deletes: int = 0
    stable_updates: int = 0
    relocations: int = 0


class TableStore:
    """Storage manager of one table with degradable attributes."""

    def __init__(self, schema: TableSchema, buffer_pool: BufferPool,
                 wal: WriteAheadLog, keystore: Optional[KeyStore] = None,
                 strategy: str = "rewrite") -> None:
        if strategy not in STRATEGIES:
            raise StorageError(f"unknown non-recoverability strategy {strategy!r}")
        if strategy == "crypto" and keystore is None:
            keystore = KeyStore()
        self.schema = schema
        self.strategy = strategy
        self.buffer_pool = buffer_pool
        self.wal = wal
        self.keystore = keystore
        self.stats = TableStoreStats()
        self._degradable = [column.name for column in schema.degradable_columns()]
        #: Degradable column → (its position among the record's levels, its
        #: position among the record's values).
        self._degradable_fields = {
            name: (position, schema.column_index(name))
            for position, name in enumerate(self._degradable)}
        #: The record prefix — count, row key, insertion time, one level per
        #: degradable column — as one struct, and the tags it must carry.
        self._header, self._header_tags = fixed_prefix(
            "if" + "i" * len(self._degradable))
        self._field_count = 2 + len(self._degradable) + len(schema.columns)
        # The heap's level summary reads a record's levels off its prefix, unchecked: each
        # record it holds was encoded here or passed :meth:`rebuild_locations`'s checked read.
        levels = len(self._degradable)
        self.heap = HeapFile(buffer_pool, name=schema.name, levels=struct.Struct(
            f"<{self._header.size - 9 * levels}x" + "xq" * levels).unpack_from
            if levels else None, on_allocate=self._log_page_allocation)
        self._locations: Dict[int, RecordId] = {}
        #: Pages a relocating rewrite (a page full in total) moved a record
        #: *out of*: their zeroed old image is in the buffer pool only, so
        #: whatever scrubs the log afterwards flushes them first.
        self._vacated_pages: set = set()
        self._next_row_key = 1
        #: Bumped whenever a stored record is rewritten or erased, so a lazy
        #: reader can tell its decoded batch went stale (:meth:`_read_keys`).
        self._version = 0
        #: Memoized per column-subset: which fields to decode vs. byte-skip.
        self._decode_plans: Dict[Tuple, Any] = {}

    # -- encoding helpers -----------------------------------------------------

    def _encode_row(self, row_key: int, inserted_at: float,
                    levels: Dict[str, int], values: Dict[str, Any]) -> bytes:
        return self._encode_values(row_key, inserted_at,
                                   [levels[column] for column in self._degradable],
                                   [values[column.name] for column in self.schema.columns])

    def _encode_values(self, row_key: int, inserted_at: float,
                       levels: Sequence[int], values: Sequence[Any]) -> bytes:
        """The record of a row — levels in degradable-column order, values in
        column order — byte for byte :func:`encode_record` of ``[row_key,
        inserted_at, *levels, *values]``, its fixed prefix in one pack."""
        if self.strategy == "crypto":
            values = list(values)
            for name, (level_at, value_at) in self._degradable_fields.items():
                if not is_missing(values[value_at]):
                    values[value_at] = self.keystore.encrypt(
                        (self.schema.name, row_key, name, levels[level_at]),
                        encode_value(values[value_at]))
        prefix = zip(self._header_tags, (row_key, float(inserted_at), *levels))
        return self._header.pack(self._field_count, *chain.from_iterable(prefix)) \
            + b"".join(map(encode_value, values))

    def _decode_row(self, payload: bytes,
                    columns: Optional[frozenset] = None) -> StoredRow:
        """Decode a stand-alone record image (a log image, a fresh encode)."""
        return self._decode_plan(columns)(payload, ((0, len(payload)),))[0][0]

    def _decrypt(self, row_key: int, column: str, level: int, blob: bytes) -> Any:
        """The value a ciphertext field holds.  Fail safe: a destroyed key
        means the value is, by design, unrecoverable — it reads suppressed."""
        try:
            return decode_value(self.keystore.decrypt(
                (self.schema.name, row_key, column, level), blob), 0)[0]
        except KeyDestroyedError:
            return SUPPRESSED

    def _malformed(self, data: Any, start: int, end: int) -> StorageError:
        """Why ``data[start:end]`` does not begin with this table's record prefix."""
        count, _ = record_field_count(data, start, end)
        if count != self._field_count:
            return StorageError(f"table {self.schema.name!r}: malformed record with "
                                f"{count} fields (expected {self._field_count})")
        if end - start < self._header.size:
            return StorageError("truncated record: short header")
        return StorageError(f"table {self.schema.name!r}: malformed record header (row "
                            "key, insertion time and levels must be INT, FLOAT, INT...)")

    def _decode_plan(self, columns: Optional[frozenset],
                     level_caps: Tuple[Tuple[str, int], ...] = ()) -> RunReader:
        """The (memoized) run reader that makes :class:`StoredRow` objects
        carrying ``columns`` (``None``: all), less the rows ``level_caps``
        exclude — what DML, maintenance and recovery read through; it
        generalizes nothing and keeps no memo."""
        plan = self._decode_plans.get((columns, level_caps))
        if plan is None:
            names = [column.name for column in self.schema.columns
                     if columns is None or column.name in columns]
            degradable = self._degradable
            plan = self._decode_plans[columns, level_caps] = self.row_reader(
                tuple((name, slot) for slot, name in enumerate(names, 1)),
                frozenset(names), level_caps,
                {name: (None, True) for name in names if name in degradable},
                make=lambda head, values: StoredRow(
                    head[2], dict(zip(names, values[1:])),
                    dict(zip(degradable, head[6::2])), head[4]))
        return plan

    def _field_plan(self, slots: Dict[str, int]) -> Tuple[Tuple, bool]:
        """The :func:`~repro.storage.serialization.decode_fields` schedule
        that decodes the columns of ``slots`` into those positions: ``(slot,
        0)`` per field to decode, ``(None, run length)`` per run of skipped
        ones — collapsed, so a 2-of-20 projection pays one ``skip_values``
        call per gap, and dropped after the last decoded column — and whether
        that is the record's last field (its end is then verified)."""
        entries: List[Tuple[Optional[int], int]] = []
        for column in self.schema.columns:
            if column.name in slots:
                entries.append((slots[column.name], 0))
            elif entries and entries[-1][0] is None:
                entries[-1] = (None, entries[-1][1] + 1)
            else:
                entries.append((None, 1))
        ends = bool(entries) and entries[-1][0] is not None
        while entries and entries[-1][0] is None:
            entries.pop()
        return tuple(entries), ends

    def _log_page_allocation(self, page_id: int) -> None:
        """Make heap page ownership durable (see ``LogRecordType.PAGE_ALLOC``).

        Degraded rows survive a crash only on their flushed pages — their
        accurate WAL images are scrubbed by design — so the table must be able
        to find its pages again after a reopen.  The record carries the page
        id in the row-key field and no payload, which keeps it exempt from
        scrubbing.
        """
        self.wal.append(LogRecordType.PAGE_ALLOC, 0, table=self.schema.name,
                        row_key=page_id)

    # -- basic operations ----------------------------------------------------

    def insert(self, row: Any, now: float, txn_id: int = 0,
               returning: bool = False) -> Union[int, StoredRow]:
        """Insert one row — :meth:`insert_many` with one — and return its
        logical row key (with ``returning``, the stored row)."""
        stored = self.insert_many((row,), now, txn_id)[0]
        return stored if returning else stored.row_key

    def insert_many(self, rows: Sequence[Any], now: float,
                    txn_id: int = 0) -> List[StoredRow]:
        """Insert ``rows`` (mappings or value sequences, most accurate state)
        and return them exactly as :meth:`read` would decode them.

        Every row is coerced and encoded before any is placed, so a bad row
        inserts none; the pages fill through one :meth:`HeapFile.insert_many`
        (placement as one-by-one inserts); each row keeps an ``INSERT`` image
        of its own, so each stays individually scrubbable."""
        first, table = self._next_row_key, self.schema.name
        values = [self.schema.coerce_row(row) for row in rows]
        zero = [0] * len(self._degradable)
        payloads = [self._encode_values(first + offset, now, zero, row)
                    for offset, row in enumerate(values)]
        self._locations.update(zip(range(first, first + len(payloads)),
                                   self.heap.insert_many(payloads)))
        self._next_row_key = first + len(payloads)
        stored = []
        for row_key, payload, row in zip(range(first, self._next_row_key), payloads, values):
            self.wal.append(LogRecordType.INSERT, txn_id, table=table,
                            row_key=row_key, after=payload, timestamp=now)
            stored.append(StoredRow(row_key, self.schema.row_dict(row),
                                    dict(zip(self._degradable, zero)), float(now)))
        self.stats.inserts += len(stored)
        return stored

    def exists(self, row_key: int) -> bool:
        return row_key in self._locations

    def missing(self, row_keys: Iterable[int]) -> List[int]:
        """The ones of ``row_keys`` the table does not hold."""
        return [row_key for row_key in row_keys if row_key not in self._locations]

    def read(self, row_key: int,
             columns: Optional[frozenset] = None) -> StoredRow:
        record_id = self._location(row_key)
        self.stats.reads += 1
        data, spans = self.heap.read_run(record_id.page_id, (record_id.slot,))
        return self._decode_plan(columns)(data, spans)[0][0]

    def row_reader(self, slots: Tuple[Tuple[str, int], ...], early: frozenset,
                   level_caps: Sequence[Tuple[str, int]] = (),
                   schemes: Optional[Dict[str, Tuple[Optional[int], Any]]] = None,
                   predicate: Optional[Callable[[List[Any]], bool]] = None,
                   make: Optional[Callable[[Tuple, List[Any]], Any]] = None
                   ) -> RunReader:
        """The record reader, one page run at a time: positional rows ``(row
        key, column, ...)``, ``slots`` naming each decoded column's position
        (or what ``make`` builds from the record prefix and such a row).
        Every read of this table decodes here, in place in the page frame.

        *Level first.*  The prefix ``count, row_key, inserted_at, level×n`` is
        fixed-width: one precompiled struct decodes it in a single call, and a
        row storing a column of ``level_caps`` above its cap is excluded
        before a value byte is touched.  *Then the filter.*  Only the
        ``early`` columns are decoded (the others skipped byte-wise: no
        object, no UTF-8 decode, no decryption), decrypted and generalized to
        the demanded level of ``schemes`` (``column → (demanded level,
        scheme)``) through a ``(stored level, value) → generalized`` memo
        that lives and dies with this reader; ``predicate`` sees the row so
        far.  *Survivors* get the remaining columns: a second schedule over
        the same bytes (late materialization).  A wrong field count or header
        tag, a truncated field and trailing bytes raise :class:`StorageError`.
        """
        plans = self._decode_plans.get((slots, early))
        if plans is None:
            plans = self._decode_plans[slots, early] = [
                self._field_plan({name: slot for name, slot in slots
                                  if (name in early) == first})
                for first in (True, False)]
        crypto = self.strategy == "crypto"
        #: early columns then the rest, each: schedule, whether it ends the
        #: record, its columns to decrypt / generalize, the test that follows
        phases = [(*plan, [], test) for plan, test in zip(plans, (predicate, None))]
        for name, slot in slots:
            demanded, scheme = (schemes or {}).get(name, (None, None))
            if demanded is not None or (crypto and scheme is not None):
                phases[name not in early][2].append(
                    (slot, name, self._degradable.index(name), demanded, scheme, {}))
        if not phases[1][0]:
            del phases[1]
        named_caps = [(self._degradable.index(name), cap) for name, cap in level_caps]
        header, tags, count = self._header, self._header_tags, self._field_count
        unpack, size = header.unpack_from, header.size
        blank = [None] * (len(slots) + 1)

        def fix(values: List[Any], levels: Tuple[int, ...], todo: List[Tuple]) -> None:
            for slot, name, at, demanded, scheme, memo in todo:
                value, stored = values[slot], levels[at]
                if crypto and isinstance(value, bytes):
                    value = self._decrypt(values[0], name, stored, value)
                if demanded is not None and stored < demanded \
                        and not is_missing(value):
                    coarse = memo.get((stored, value), memo)
                    if coarse is memo:
                        coarse = memo[stored, value] = scheme.generalize(
                            value, demanded, from_level=stored)
                    value = coarse
                values[slot] = value

        def read(data: Any, spans: Sequence[Tuple[int, int]]):
            rows, positions, drops = [], [], []
            excluded = 0
            for position, (start, end) in enumerate(spans):
                body = start + size
                if body > end:
                    raise self._malformed(data, start, end)
                head = unpack(data, start)
                if head[0] != count or head[1::2] != tags:
                    raise self._malformed(data, start, end)
                levels = head[6::2]
                for at, cap in named_caps:
                    if levels[at] > cap:
                        excluded += 1
                        break
                else:
                    values = blank[:]
                    values[0] = head[2]
                    for fields, ends, todo, test in phases:
                        if decode_fields(data, body, end, fields, values) != end \
                                and ends:
                            raise StorageError("trailing bytes after record payload")
                        if todo:
                            fix(values, levels, todo)
                        if test is not None and not test(values):
                            break
                    else:
                        drops.append(excluded)
                        positions.append(position)
                        rows.append(tuple(values) if make is None
                                    else make(head, values))
            return rows, positions, drops, excluded

        read.caps = named_caps      # type: ignore[attr-defined]
        return read

    def scan(self, columns: Optional[frozenset] = None,
             level_caps: Iterable[Tuple[str, int]] = (),
             tally: Any = None, reader: Optional[RunReader] = None) -> Iterator[Any]:
        """Every row of the table, in row-key order of insertion — as
        :class:`StoredRow` objects carrying ``columns``, less the rows storing
        a ``(degradable column, level)`` of ``level_caps`` above that level;
        or whatever ``reader`` (:meth:`row_reader`) makes of the records.
        ``tally.examined`` / ``tally.excluded`` count, exact at every row
        handed out, the records read so far and those the level rule dropped.
        """
        if reader is None:
            reader = self._decode_plan(columns, tuple(
                (name.lower(), cap) for name, cap in level_caps))
        return self._read_keys(list(self._locations), reader, tally)

    def _read_keys(self, row_keys: Sequence[int], reader: RunReader,
                   tally: Any = None) -> Iterator[Any]:
        """Materialize ``row_keys`` in order, one page run at a time.

        Consecutive keys that currently live on the same page form a run —
        the batch.  If the page's level floor (:attr:`HeapFile.floors`) is
        over a cap of the reader, the run is counted examined and excluded
        and skipped unread; else ``reader`` decodes all of it before its first
        row is yielded, so no page frame is held across a ``yield`` and an
        early-exit consumer over-reads at most one page.  Keys are resolved
        when their run is formed: vanished rows are skipped, relocated ones
        found, each key produced at most once.  If the consumer changes the
        table between two pulls, what follows the row just handed out is
        dropped and re-read: a lazy reader never sees — or judges — an image
        older than the last completed degradation step.
        """
        if tally is None:
            tally = SimpleNamespace(examined=0, excluded=0, pages_skipped=0)
        locations, floors, caps = self._locations, self.heap.floors, reader.caps
        total = len(row_keys)
        index = 0
        while index < total:
            record_id = locations.get(row_keys[index])
            if record_id is None:
                index += 1
                continue
            first = index
            page_id = record_id.page_id
            slots = []
            while record_id is not None and record_id.page_id == page_id:
                slots.append(record_id.slot)
                index += 1
                if index == total:
                    break
                record_id = locations.get(row_keys[index])
            if caps and any(floors[page_id][at] > cap for at, cap in caps):
                if invariants.enabled():    # the level rule must drop the page
                    live = self.heap.live_slots(page_id)
                    if reader(*self.heap.read_run(page_id, live))[3] != len(live):
                        raise invariants.InvariantViolation(
                            f"{self.schema.name}: page {page_id} skipped holds a visible row")
                tally.pages_skipped += 1
                rows, positions, drops, excluded = (), (), (), len(slots)
            else:
                rows, positions, drops, excluded = reader(
                    *self.heap.read_run(page_id, slots))
                self.stats.reads += len(slots)
            version = self._version
            seen = dropped = 0
            for row, position, drop in zip(rows, positions, drops):
                tally.examined += position + 1 - seen
                tally.excluded += drop - dropped
                seen, dropped = position + 1, drop
                yield row
                if self._version != version:
                    index = first + seen
                    break
            else:
                tally.examined += len(slots) - seen
                tally.excluded += excluded - dropped

    #: fetch() chunks grow geometrically from this size up to the cap: small
    #: first chunks keep LIMIT-k consumers at O(k) heap reads, large later
    #: chunks amortize the page-locality sort over big fetches.
    _FETCH_CHUNK_START = 8
    _FETCH_CHUNK_MAX = 512

    def fetch(self, row_keys: Iterator[int], columns: Optional[frozenset] = None,
              reader: Optional[RunReader] = None, tally: Any = None) -> Iterator[Any]:
        """Materialize the rows with the given keys, skipping vanished ones
        (``columns``, ``reader`` and ``tally`` as in :meth:`scan`).

        Keys are read in chunks sorted by heap page, so a large index fetch
        sweeps each page's records together instead of ping-ponging across
        the buffer pool; the chunk size starts small and doubles, keeping
        early-exit consumers (``LIMIT k``) at O(k) reads.  The addresses only
        order a chunk: :meth:`_read_keys` resolves each key again when it
        reads it (the row may have vanished or moved since it was queued).
        """
        if reader is None:
            reader = self._decode_plan(columns)
        keys, locations = iter(row_keys), self._locations
        limit = self._FETCH_CHUNK_START
        while batch := list(islice(keys, limit)):
            chunk = sorted((record_id.page_id, record_id.slot, row_key)
                           for row_key in batch
                           if (record_id := locations.get(row_key)) is not None)
            yield from self._read_keys([row_key for _page, _slot, row_key in chunk],
                                       reader, tally)
            limit = min(limit * 2, self._FETCH_CHUNK_MAX)

    def row_keys(self) -> List[int]:
        return list(self._locations)

    @property
    def row_count(self) -> int:
        return len(self._locations)

    def page_of(self, row_key: int) -> Optional[int]:
        """Heap page currently holding ``row_key`` (the row→page map)."""
        record_id = self._locations.get(row_key)
        return record_id.page_id if record_id is not None else None

    def _location(self, row_key: int) -> RecordId:
        try:
            return self._locations[row_key]
        except KeyError:
            raise RecordNotFoundError(
                f"table {self.schema.name!r}: no row with key {row_key}"
            ) from None

    def _rewrite(self, row_key: int, payload: bytes) -> None:
        record_id = self._location(row_key)
        self._version += 1
        new_id = self.heap.update(record_id, payload)
        if new_id != record_id:
            self._locations[row_key] = new_id
            self._vacated_pages.add(record_id.page_id)
            self.stats.relocations += 1

    def _erase(self, row_key: int, record_id: RecordId) -> None:
        """Physically delete a record (secure page reclamation) and destroy
        every crypto key of the row."""
        self._version += 1
        self.heap.delete(record_id)
        del self._locations[row_key]
        if self.keystore is not None:
            self.keystore.destroy_matching((self.schema.name, row_key))

    def _flush_pages(self, page_ids: List[int]) -> None:
        """Make ``page_ids`` — and every page vacated by a relocation since
        the last call — durable with one pager sync: the overwritten pages
        reach stable storage *before* the accurate log images are scrubbed,
        both pages of a relocation included (with only the one it landed on
        on disk, recovery would pick the stale, more accurate image up)."""
        for page_id in dict.fromkeys((*page_ids, *self._vacated_pages)):
            self.buffer_pool.flush_page(page_id)    # no-op on a clean page
        self.buffer_pool.sync()
        self._vacated_pages.clear()

    # -- degradation ------------------------------------------------------------

    def degrade(self, row_key: int, column: str, scheme: GeneralizationScheme,
                to_level: int, now: float, txn_id: int = 0) -> StoredRow:
        """One degradation step — a wave of one (:meth:`degrade_many`);
        returns the row as now visible to readers."""
        self.degrade_many([([row_key], column, scheme, to_level)], now, txn_id)
        return self.read(row_key)

    def degrade_many(self, items: Iterable[Tuple[Sequence[int], str, GeneralizationScheme, int]],
                     now: float, txn_id: int = 0,
                     on_chunk: Optional[Callable[[DegradeChunk], None]] = None
                     ) -> List[DegradeChunk]:
        """Apply a wave of ``(row keys, column, scheme, to_level)`` steps —
        a cohort's each — the only degradation routine; returns its chunks,
        handed to ``on_chunk`` once the pages are rewritten, before any I/O.

        Per page one :meth:`HeapFile.read_run`, one new image per row with a
        step to take (:meth:`_degraded_record`), one :meth:`HeapFile.update_many`;
        one ``DEGRADE`` record per chunk (column, level, row keys, never a
        value).  The rewritten pages reach stable storage (one sync) *before*
        the rows' accurate log images are scrubbed, in one pass (under crypto
        the logged ciphertext's key is destroyed here).  A row already at its
        target is in no chunk; if the log still holds an image of it, an
        earlier attempt died between page flush and scrub: flush, then scrub.
        """
        pages: Dict[int, Dict[int, Tuple[int, list]]] = {}
        for row_keys, column, scheme, to_level in items:
            place = self._degradable_fields.get(column.lower())
            if place is None:
                raise PolicyError(
                    f"table {self.schema.name!r}: column {column!r} is not degradable")
            step = (place, scheme, to_level)
            for row_key in row_keys:
                record_id = self._location(row_key)
                pages.setdefault(record_id.page_id, {}).setdefault(
                    record_id.slot, (row_key, []))[1].append(step)
        chunks: Dict[Tuple, DegradeChunk] = {}
        rewrite = self.strategy == "rewrite"
        dirty_pages: List[int] = []
        settled: List[Tuple[str, int]] = []       # scrub keys: rows at their target
        for page_id in sorted(pages):
            rows = pages[page_id]
            slots = sorted(rows)
            data, spans = self.heap.read_run(page_id, slots)
            rewrites: List[Tuple[int, bytes]] = []
            for slot, (start, end) in zip(slots, spans):
                row_key, steps = rows[slot]
                payload = self._degraded_record(data, start, end, steps, chunks)
                if payload is not None:
                    rewrites.append((slot, payload))
                elif not (rewrite and self.wal.records_for(self.schema.name, row_key)):
                    continue
                settled.append((self.schema.name, row_key))
                dirty_pages.append(page_id)
            if rewrites:
                self._version += 1
                moved = self.heap.update_many(page_id, rewrites)
                for slot, record_id in moved.items():
                    self._locations[rows[slot][0]] = record_id
                    self._vacated_pages.add(page_id)
                    dirty_pages.append(record_id.page_id)
                self.stats.relocations += len(moved)
        for chunk in chunks.values():
            if on_chunk is not None:
                on_chunk(chunk)
            for payload in encode_degrade_chunk(chunk.to_level, chunk.row_keys()):
                self.wal.append(
                    LogRecordType.DEGRADE, txn_id, table=self.schema.name,
                    attribute=chunk.column, after=payload, timestamp=now)
        if dirty_pages:
            self._flush_pages(dirty_pages)
        if settled and rewrite:
            self.wal.scrub_records(settled, now=now)
        return list(chunks.values())

    def _degraded_record(self, data: Any, start: int, end: int,
                         steps: Sequence[Tuple[Tuple[int, int], GeneralizationScheme, int]],
                         chunks: Dict[Tuple, DegradeChunk]) -> Optional[bytes]:
        """The record at ``data[start:end]`` after ``steps`` — ``((level
        position, value position), scheme, to_level)`` each — or ``None`` when
        the row already is at every target.

        *Levels first*: one unpack of the fixed prefix decides which steps
        apply.  Only their fields are then located (:func:`skip_values` over
        what lies between) and replaced (:meth:`_degraded_field`); the new
        record is the old one with those fields spliced in and the levels
        patched in the prefix — byte for byte what :meth:`_encode_row` makes
        of the degraded row, with no other value decoded or encoded.
        """
        fused = self._header
        if start + fused.size > end:
            raise self._malformed(data, start, end)
        header = fused.unpack_from(data, start)
        if header[0] != self._field_count or header[1::2] != self._header_tags:
            raise self._malformed(data, start, end)
        levels = list(header[6::2])
        #: value position → the chunks its field passes through, in order
        fields: Dict[int, List[DegradeChunk]] = {}
        for (level_at, value_at), scheme, to_level in steps:
            from_level = levels[level_at]
            if to_level < from_level:
                raise PolicyError("degradation is irreversible: cannot decrease the level")
            if to_level == from_level:
                continue
            key = (value_at, from_level, to_level, scheme)
            chunk = chunks.get(key)
            if chunk is None:
                chunk = chunks[key] = DegradeChunk(
                    self._degradable[level_at], from_level, to_level, scheme)
            fields.setdefault(value_at, []).append(chunk)
            levels[level_at] = to_level
            self.stats.degrade_steps += 1
        if not fields:
            return None
        prefix = list(header)
        prefix[6::2] = levels
        pieces: List[Any] = [fused.pack(*prefix)]
        cursor = start + fused.size
        passed = 0
        for value_at in sorted(fields):
            first = skip_values(data, cursor, value_at - passed, end)
            last = skip_values(data, first, 1, end)
            image = bytes(data[first:last])
            for chunk in fields[value_at]:
                image = self._degraded_field(chunk, header[2], image)
            pieces += (data[cursor:first], image)
            cursor, passed = last, value_at + 1
        pieces.append(data[cursor:end])
        return b"".join(pieces)

    def _degraded_field(self, chunk: DegradeChunk, row_key: int, image: bytes) -> bytes:
        """``image`` — one encoded value of ``chunk.column`` at the chunk's
        old level — degraded to its new one; ``row_key`` is entered under the
        value transition it makes.

        Missing and already-suppressed values carry no information to
        degrade: only the stored level advances.  Under the crypto strategy
        the field is ciphertext under the row's key of the old level: it is
        decrypted first, the result encrypted under a fresh key of the new
        level, and every key of a more accurate level destroyed — the
        accurate and intermediate ciphertexts become unreadable everywhere.
        """
        crypto = self.strategy == "crypto"
        if crypto:
            key_id = (self.schema.name, row_key, chunk.column)
            blob = decode_value(image)[0]
            if isinstance(blob, bytes):
                try:
                    image = self.keystore.decrypt((*key_id, chunk.from_level), blob)
                except KeyDestroyedError:
                    image = encode_value(SUPPRESSED)    # fail safe, as in reads
        entry = chunk.memo.get(image)
        if entry is None:
            old_value = decode_value(image)[0]
            new_value = old_value if is_missing(old_value) else \
                chunk.scheme.generalize(old_value, chunk.to_level,
                                        from_level=chunk.from_level)
            entry = chunk.memo[image] = (
                encode_value(new_value), new_value,
                chunk.transitions.setdefault((old_value, new_value), []))
        image, new_value, row_keys = entry
        row_keys.append(row_key)
        if crypto:
            if not is_missing(new_value):
                image = encode_value(
                    self.keystore.encrypt((*key_id, chunk.to_level), image))
            for level in range(chunk.from_level, chunk.to_level):
                self.keystore.destroy_key((*key_id, level))
        return image

    def remove(self, row_key: int, now: float, txn_id: int = 0,
               scrub_log: bool = True) -> None:
        """Final removal at the end of the life cycle (or explicit delete) of
        one row that must exist: :meth:`remove_many` with one key."""
        self._location(row_key)
        self.remove_many([row_key], now, txn_id, scrub_log)

    def remove_many(self, row_keys: Sequence[int], now: float, txn_id: int = 0,
                    scrub_log: bool = True,
                    on_rows: Optional[Callable[[List[StoredRow]], None]] = None) -> int:
        """Physically delete rows (secure page reclamation), destroy every
        crypto key of theirs and scrub their images from the WAL: one scrub
        pass and one flush per touched page for the lot.  Rows that vanished
        meanwhile are skipped.  ``on_rows`` gets the rows as they were, read
        in page runs before the first is erased.  Returns how many went."""
        if on_rows is not None:
            on_rows(list(self._read_keys(row_keys, self._decode_plan(None))))
        removed: List[Tuple[str, int]] = []
        dirty_pages: List[int] = []
        for row_key in row_keys:
            record_id = self._locations.get(row_key)
            if record_id is None:
                continue
            self._erase(row_key, record_id)
            self.wal.append(
                LogRecordType.REMOVE, txn_id, table=self.schema.name,
                row_key=row_key, timestamp=now,
            )
            dirty_pages.append(record_id.page_id)
            removed.append((self.schema.name, row_key))
        self.stats.removals += len(removed)
        if removed and scrub_log:
            self.wal.scrub_records(removed, now=now)
        if removed:
            self._flush_pages(dirty_pages)
        return len(removed)

    def replay_remove(self, row_key: int, now: float,
                      scrub_log: bool = False) -> None:
        """Physically remove a row during recovery replay.

        Unlike :meth:`remove` this appends no REMOVE record (the log record
        being replayed already proves the removal) and defers page flushing
        to recovery's final :meth:`flush` — a redo pass over a mass-removal
        wave must not pay one fsync and one log append per row.
        ``scrub_log=True`` still scrubs the row's log images (needed when
        undoing a loser insert).
        """
        record_id = self._location(row_key)
        self._erase(row_key, record_id)
        if scrub_log:
            self.wal.scrub_record(self.schema.name, row_key, now=now)
        self.stats.removals += 1

    def delete(self, row_key: int, now: float, txn_id: int = 0) -> None:
        """Explicit user delete — same non-recoverability guarantees as removal."""
        self.remove(row_key, now, txn_id=txn_id, scrub_log=True)
        self.stats.deletes += 1
        self.stats.removals -= 1

    def update_stable(self, row_key: int, column: str, value: Any,
                      now: float, txn_id: int = 0) -> StoredRow:
        """Update a stable attribute (degradable attributes are immutable)."""
        column = column.lower()
        column_def = self.schema.column(column)
        if column_def.degradable:
            raise PolicyError(
                f"table {self.schema.name!r}: degradable column {column!r} cannot be "
                "updated after the tuple creation has been committed"
            )
        row = self.read(row_key)
        before_payload = self._encode_row(row.row_key, row.inserted_at, row.levels, row.values)
        new_values = dict(row.values)
        new_values[column] = column_def.coerce(value)
        payload = self._encode_row(row_key, row.inserted_at, row.levels, new_values)
        self._rewrite(row_key, payload)
        self.wal.append(
            LogRecordType.UPDATE, txn_id, table=self.schema.name, row_key=row_key,
            attribute=column, before=before_payload, after=payload, timestamp=now,
        )
        self.stats.stable_updates += 1
        return self._decode_row(payload)

    def undo_update(self, before: StoredRow, now: float) -> None:
        """Abort-undo of stable updates: write the row as it was ``before``
        them back, and log that as an ``UPDATE`` of system transaction 0.

        Recovery does not undo a transaction whose ``ABORT`` it finds — it
        takes the undo as done — but always redoes transaction 0: the log
        itself leads back to this image, even when the updated page had
        reached disk before the abort and the restored one has not yet.
        """
        payload = self._encode_row(before.row_key, before.inserted_at,
                                   before.levels, before.values)
        self._rewrite(before.row_key, payload)
        self.wal.append(LogRecordType.UPDATE, 0, table=self.schema.name,
                        row_key=before.row_key, after=payload, timestamp=now)

    # -- maintenance / recovery / forensics -----------------------------------------

    def flush(self) -> None:
        self.heap.flush()
        self.wal.flush()

    def raw_image(self) -> bytes:
        """Raw bytes of the heap pages and the log (forensic scanning input)."""
        return self.heap.raw_image() + self.wal.raw_image()

    def restore_row(self, payload: bytes) -> int:
        """Write a logged row image (an INSERT/UPDATE record's) back into the
        store — in place, or at a fresh location for a missing row (recovery
        redo/undo).  Returns the row key."""
        row = self._decode_row(payload)
        if row.row_key in self._locations:
            self._rewrite(row.row_key, payload)
        else:
            record_id = self.heap.insert(payload)
            self._locations[row.row_key] = record_id
        self._next_row_key = max(self._next_row_key, row.row_key + 1)
        return row.row_key

    def reserve_row_keys_after(self, row_key: int) -> None:
        """Never hand out a key at or below ``row_key`` — recovery's highest
        key in the log: a key freed by a removal and reused would have its
        old incarnation's REMOVE records delete the new row on a later
        recovery (the row-key analogue of ``TransactionManager.resume_after``)."""
        self._next_row_key = max(self._next_row_key, int(row_key) + 1)

    def rebuild_locations(self) -> None:
        """Rebuild the row-key → record-id map by scanning the heap's record
        headers (recovery)."""
        self._locations.clear()
        plan = self._decode_plan(frozenset())
        max_key = 0
        for page_id in self.heap.page_ids():
            slots = self.heap.live_slots(page_id)
            for slot, row in zip(slots, plan(*self.heap.read_run(page_id, slots))[0]):
                self._locations[row.row_key] = RecordId(page_id, slot)
                max_key = max(max_key, row.row_key)
        self._next_row_key = max_key + 1


__all__ = ["TableStore", "StoredRow", "DegradeChunk", "TableStoreStats",
           "STRATEGIES"]
