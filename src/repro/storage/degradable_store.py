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

from collections import defaultdict
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, islice, repeat
from operator import attrgetter, itemgetter, lt
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.errors import KeyDestroyedError, PolicyError, RecordNotFoundError, StorageError
from ..core.generalization import GeneralizationScheme
from ..core.schema import TableSchema
from ..core.values import SUPPRESSED, is_missing
from ..devtools import invariants
from .buffer import BufferPool
from .crypto import KeyStore
from .heap import HeapFile, RecordId
from .kernels import (RowShape, Shape, WaveShape, compile_kernel, compile_row_kernel,
                      compile_wave_kernel)
from .serialization import decode_value, encode_value, record_field_count, record_prefix
from .wal import Entry, LogRecordType, WriteAheadLog, encode_delta

#: Strategies for making degradation non-recoverable.
STRATEGIES = ("rewrite", "crypto")

#: Decodes one page run (page buffer, slots): ``(rows kept, each one's
#: position in the run, records the level rule had excluded before each,
#: records it excluded in the whole run)``; ``.caps`` are its level caps.
RunReader = Callable[..., Tuple[List[Any], List[int], List[int], int]]

#: ``(page, slots, index of the first key)`` of a run of keys on one page.
PageRun = Tuple[int, List[int], int]
#: Keys in order, and their page runs.
PageRuns = Tuple[List[int], List[PageRun]]


@dataclass
class StoredRow:
    """A materialized row as seen by the execution layer (plaintext values)."""

    row_key: int
    values: Dict[str, Any]
    levels: Dict[str, int]
    inserted_at: float


class RowBatch(SequenceABC):
    """Rows that enter or leave the table together, held column by column —
    what the fan-out reads, one sequence per column — and, as a sequence,
    each row as the :class:`StoredRow` a read decodes."""

    def __init__(self, keys: Sequence[int], columns: Dict[str, Sequence[Any]],
                 levels: Dict[str, Sequence[int]], inserted_at: Sequence[float]) -> None:
        self.keys, self.columns, self.levels, self.inserted_at = keys, columns, levels, inserted_at

    @classmethod
    def of(cls, rows: Sequence[StoredRow]) -> "RowBatch":
        """Whole stored rows as a batch (a batch as it is)."""
        if isinstance(rows, RowBatch):
            return rows
        rows = list(rows)
        names, degradable = (rows[0].values, rows[0].levels) if rows else ((), ())
        return cls([row.row_key for row in rows],
                   {name: [row.values[name] for row in rows] for name in names},
                   {name: [row.levels[name] for row in rows] for name in degradable},
                   [row.inserted_at for row in rows])

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: Any) -> Any:
        return StoredRow(self.keys[index],
                         {name: values[index] for name, values in self.columns.items()},
                         {name: levels[index] for name, levels in self.levels.items()},
                         self.inserted_at[index])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SequenceABC) and list(self) == list(other)


@dataclass
class DegradeChunk:
    """One cohort of a degradation wave: the rows that took ``column`` from
    ``from_level`` to ``to_level``, and their value transitions."""

    column: str
    from_level: int
    to_level: int
    scheme: GeneralizationScheme = field(repr=False)
    #: ``(old value, new value)`` → keys of the rows that made that move.
    transitions: Dict[Tuple[Any, Any], List[int]] = field(default_factory=dict)


@dataclass
class TableStoreStats:
    inserts: int = 0
    reads: int = 0
    degrade_steps: int = 0
    removals: int = 0
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
        #: The record prefix — count, one level per degradable column, row
        #: key, insertion time (:class:`~.serialization.RecordPrefix`).
        self._prefix = prefix = record_prefix(len(self._degradable))
        #: The declared index of each value a record stores, in record order, and
        #: the names in that order (:meth:`~.serialization.RecordPrefix.order`).
        self._order = prefix.order(schema.columns)
        stored = [schema.columns[index] for index in self._order]
        self._names = [column.name for column in stored]
        #: Degradable column → (its position among the record's levels, its
        #: position among the record's values).
        self._degradable_fields = {
            name: (position, self._names.index(name))
            for position, name in enumerate(self._degradable)}
        #: The kernels' wide prefix (:meth:`~.serialization.RecordPrefix.widened`).
        self._wide = prefix.widened(stored)
        self._field_count = 2 + len(self._degradable) + len(schema.columns)
        # The heap's level summary reads a record's levels off its prefix, unchecked: each
        # record it holds was encoded here or passed :meth:`rebuild_locations`'s checked read.
        self.heap = HeapFile(buffer_pool, name=schema.name,
                             levels=prefix.read_levels if self._degradable else None)
        self._locations: Dict[int, RecordId] = {}
        #: The address map's page runs, derived from it (map order).  Built by
        #: the first full read (:meth:`runs`), extended by an insert, dropped
        #: wherever else the map changes; replaced, never mutated, so a lazy
        #: reader keeps the snapshot it started from.  No value, ever.
        self._runs: Optional[PageRuns] = None
        #: Pages a relocating rewrite (a page full in total) moved a record
        #: *out of*: their zeroed old image is in the buffer pool only, so
        #: whatever scrubs the log afterwards flushes them first.
        self._vacated_pages: set = set()
        self._next_row_key = 1
        #: Bumped whenever a stored record is rewritten or erased, so a lazy
        #: reader can tell its decoded batch went stale (:meth:`_read_keys`).
        self._version = 0
        #: Reader shape → its compiled kernel factory: code, no value.
        self._kernels: Dict[Tuple, Callable[..., RunReader]] = {}
        #: :meth:`row_reader`'s argument shape → kernel key, factory, fixed arguments.
        self._reader_plans: Dict[Tuple, Tuple] = {}
        #: The :class:`StoredRow` readers, per (columns, level caps).
        self._decode_plans: Dict[Tuple, RunReader] = {}
        #: The row encoder's view of the table (:class:`RowShape`), the slow
        #: path of each column's values and the fields after a record's key.
        self._columns = tuple((column.value_type.python_type.__name__,
                               column.nullable and not column.primary_key)
                              for column in stored)
        self._sealed = tuple((value_at, level_at) for level_at, value_at
                             in self._degradable_fields.values()) if strategy == "crypto" else ()
        self._slow = [partial(_coerced, column) for column in stored]
        whole = (tuple(range(len(schema.columns))),)
        self._row_encoder = self._encoder("row", whole, len(schema.columns))
        self._image_encoder = self._encoder("image", whole, len(schema.columns))

    # -- encoding helpers -----------------------------------------------------

    def image(self, row: StoredRow) -> bytes:
        """The record of ``row`` as this table stores it, its values encoded
        as they are (no coercion) by the table's row encoder."""
        images: List[bytes] = []
        levels = tuple(map(row.levels.__getitem__, self._degradable))
        self._image_encoder(row.row_key, (tuple(map(row.values.__getitem__,
                                                    self.schema.column_names())),),
                            self._prefix.lead(self._field_count, levels),
                            self._prefix.stamp(row.inserted_at), levels, images.append, None)
        return images[0]

    def _encoder(self, mode: str, records: Tuple[Tuple[int, ...], ...], width: int,
                 literals: Tuple[Any, ...] = (), sized: Optional[Callable] = None) -> Callable:
        """The row encoder (:mod:`.kernels`) for ``mode`` and ``records`` (declared
        order), compiled once per store and shape, bound to a statement's ``literals``
        and count check ``sized`` (by default: :meth:`TableSchema.values_of`)."""
        key = ("row", mode, records, width)
        factory = self._kernels.get(key)
        if factory is None:
            factory = self._kernels[key] = compile_row_kernel(RowShape(self._columns, tuple(
                tuple(map(record.__getitem__, self._order)) for record in records), width,
                mode, self._sealed))
        return factory(literals, sized or self.schema.values_of, self._slow,
                       self.keystore.encrypt if self._sealed else None, self.schema.name,
                       self._names)

    def _stored(self, row_keys: Sequence[int]) -> List[StoredRow]:
        """The rows of ``row_keys`` the table holds, read in whole page runs."""
        return [*chain.from_iterable(self._read_keys(row_keys, self._decode_plan(None),
                                                     drain=lambda: True))]

    def _malformed(self, data: Any, start: int, end: int) -> StorageError:
        """Why ``data[start:end]`` does not begin with this table's record prefix."""
        count, _ = record_field_count(data, start, end)
        if count != self._field_count:
            return StorageError(f"table {self.schema.name!r}: malformed record with "
                                f"{count} fields (expected {self._field_count})")
        if end - start < self._prefix.size:
            return StorageError("truncated record: short header")
        return StorageError(f"table {self.schema.name!r}: malformed record header (row "
                            "key and insertion time must be INT and FLOAT)")

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
            degradable, prefix = self._degradable, self._prefix
            key_at, time_at, levels = prefix.key_at, prefix.time_at, slice(1, prefix.tags_at)
            plan = self._decode_plans[columns, level_caps] = self.row_reader(
                tuple((name, slot) for slot, name in enumerate(names, 1)),
                frozenset(names), level_caps,
                {name: (None, True) for name in names if name in degradable},
                make=lambda head, values: StoredRow(
                    head[key_at], dict(zip(names, values[1:])),
                    dict(zip(degradable, head[levels])), head[time_at]))
        return plan

    def _log_delta(self, entries: Iterable[Entry], now: float, txn_id: int) -> None:
        """Log a statement's ``(row key, weight, image)`` entries: one ``DELTA``
        per heap page holding their rows, keyed by its highest row key."""
        pages: Dict[int, List[Entry]] = defaultdict(list)
        for entry in entries:
            pages[self._locations[entry[0]].page_id].append(entry)
        for changes in pages.values():
            after, index = encode_delta(changes)
            self.wal.append(LogRecordType.DELTA, txn_id, table=self.schema.name, timestamp=now,
                            row_key=max(map(itemgetter(0), changes)), after=after, images=index)

    # -- basic operations ----------------------------------------------------

    def insert(self, row: Any, now: float, txn_id: int = 0,
               returning: bool = False) -> Union[int, StoredRow]:
        """Insert one row — :meth:`insert_many` with one — and return its
        logical row key (with ``returning``, the stored row)."""
        stored = self.insert_many((row,), now, txn_id)
        return stored[0] if returning else stored.keys[0]

    def insert_many(self, rows: Sequence[Any], now: float, txn_id: int = 0,
                    sources: Any = None) -> RowBatch:
        """Insert ``rows`` (mappings or value sequences, most accurate state;
        given an INSERT's ``sources`` — :class:`~repro.query.parameters.InsertSources`
        — its parameter sequences) and return them exactly as :meth:`read`
        would decode them.

        The row encoder checks, coerces and encodes every row before any is
        placed, so a bad row inserts none; the pages fill through one
        :meth:`HeapFile.insert_many` (placement as one-by-one inserts); each
        page filled gets one ``DELTA`` (:meth:`_log_delta`), each new record
        a +1 entry that stays individually scrubbable."""
        first, table = self._next_row_key, self.schema.name
        encode = self._row_encoder if sources is None else self._encoder(
            "param", sources.records, sources.width, sources.literals, sources.sized)
        zero = (0,) * len(self._degradable)
        payloads: List[bytes] = []
        values: List[Tuple[Any, ...]] = []
        end = encode(first, rows, self._prefix.lead(self._field_count, zero),
                     self._prefix.stamp(now), zero, payloads.append, values.append)
        with self.buffer_pool.unlogged():       # its pages wait for their DELTAs
            record_ids = self.heap.insert_many(payloads)
            keys = range(first, end)
            self._locations.update(zip(keys, record_ids))
            if self._runs is not None:      # the new keys are the largest: runs at the tail
                self._runs = self._grouped(keys, record_ids, self._runs)
            self._next_row_key = end
            self._log_delta(zip(keys, repeat(1), payloads), now, txn_id)
        self.stats.inserts += len(keys)
        return RowBatch(keys, dict(zip(self._names, zip(*values) if values else repeat(()))),
                        dict.fromkeys(self._degradable, zero[:1] * len(keys)),
                        (float(now),) * len(keys))

    def exists(self, row_key: int) -> bool:
        return row_key in self._locations

    def missing(self, row_keys: Iterable[int]) -> List[int]:
        """The ones of ``row_keys`` the table does not hold."""
        return [row_key for row_key in row_keys if row_key not in self._locations]

    def read(self, row_key: int,
             columns: Optional[frozenset] = None) -> StoredRow:
        record_id = self._location(row_key)
        self.stats.reads += 1
        return self._decode_plan(columns)(self.heap.frame(record_id.page_id),
                                          (record_id.slot,))[0][0]

    def row_reader(self, slots: Tuple[Tuple[str, int], ...], early: frozenset,
                   level_caps: Sequence[Tuple[str, int]] = (),
                   schemes: Optional[Dict[str, Tuple[Optional[int], Any]]] = None,
                   predicate: Optional[Callable[[Tuple[Any, ...]], bool]] = None,
                   make: Optional[Callable[[Tuple, Tuple[Any, ...]], Any]] = None,
                   comparisons: Sequence[Tuple[int, str, Any]] = ()) -> RunReader:
        """The record reader, one page run at a time: positional rows ``(row
        key, column, ...)``, ``slots`` naming each decoded column's position
        (or what ``make`` builds from the record prefix and such a row).
        Every read of this table decodes here, in place in the page frame.

        *Level first.*  The prefix ``count, level×n, row_key, inserted_at`` is
        fixed-width: one precompiled struct decodes it in a single call, and a
        row storing a column of ``level_caps`` above its cap is excluded
        before a value byte is touched.  *Then the filter.*  Only the
        ``early`` columns are decoded (the others skipped byte-wise: no
        object, no UTF-8 decode, no decryption), decrypted and generalized to
        the demanded level of ``schemes`` (``column → (demanded level,
        scheme)``) through a ``(stored level, value) → generalized`` memo
        that lives and dies with this reader; ``comparisons`` (``(slot,
        operator, number)``) test it, then ``predicate`` sees the row so far.
        *Survivors* get the remaining columns (late materialization).
        A wrong field count or header tag, a truncated field and trailing
        bytes raise :class:`StorageError`.

        The reader is the kernel (:mod:`.kernels`) compiled for the shape of
        these arguments, once per store; its key, caps, demanded levels and
        schemes are derived once per shape (:attr:`_reader_plans`: a cached
        statement pays none of it again); this call hands them, fresh memos,
        the comparisons' numbers, ``predicate`` and ``make`` to its factory.
        """
        shape = (slots, early, tuple(level_caps), tuple(schemes.items()) if schemes else (),
                 predicate is not None, make is not None,
                 tuple([(slot, operator) for slot, operator, _number in comparisons]))
        plan = self._reader_plans.get(shape)
        if plan is None:
            crypto, by_name = self.strategy == "crypto", dict(shape[3])
            fixes = [(name, slot, demanded, scheme) for name, slot in slots
                     for demanded, scheme in (by_name.get(name, (None, None)),)
                     if demanded is not None or (crypto and scheme is not None)]
            key = (slots, early, tuple([name for name, _cap in level_caps]),
                   tuple([(name, slot, demanded is not None)
                          for name, slot, demanded, _scheme in fixes]), *shape[4:])
            factory = self._kernels.get(key)
            if factory is None:
                factory = self._kernels[key] = compile_kernel(self._shape(*key))
            wide, wide_tags, _covered, _text = self._wide
            decrypt = self.keystore.decrypt if crypto else None
            plan = self._reader_plans[shape] = key, factory, (
                self._prefix.struct.unpack_from, self._prefix.tags, wide.unpack_from, wide_tags,
                self._malformed, [cap for _name, cap in level_caps]), [
                (demanded, None if demanded is None else scheme.generalize, decrypt,
                 self.schema.name, name) for name, _slot, demanded, scheme in fixes]
        key, factory, head, fixes = plan
        args = (*head, [(demanded, generalize, {}, decrypt, table, name)
                        for demanded, generalize, decrypt, table, name in fixes],
                [number for _slot, _operator, number in comparisons], predicate, make)
        reader = factory(*args)
        reader.spec = key, args
        return reader

    def _drained(self, reader: RunReader) -> Callable[..., Tuple]:
        """``reader``'s drained pace: its kernel key and arguments (memos
        included) with the loop over page runs compiled in, made when first drained."""
        if "drained" not in reader.__dict__:
            key, args = reader.spec
            reader.drained = (self._kernels.get(key + (True,)) or self._kernels.setdefault(
                key + (True,), compile_kernel(self._shape(*key, True))))(*args)
        return reader.drained

    def _shape(self, slots: Tuple[Tuple[str, int], ...], early: frozenset,
               capped: Tuple[str, ...], fixed: Tuple[Tuple[str, int, bool], ...],
               test: bool, make: bool, compares: Tuple[Tuple[int, str], ...],
               drained: bool = False) -> Shape:
        """The kernel shape of a :meth:`row_reader` call (``drained``: of its
        drained pace), in this table's positions: its names go no further."""
        position = self._names.index
        return Shape(
            len(self._degradable), self._field_count, len(self.schema.columns) - 1,
            tuple(tuple(sorted((position(name), slot) for name, slot in slots
                               if (name in early) == first)) for first in (True, False)),
            tuple(self._degradable_fields[name][0] for name in capped),
            tuple((slot, self._degradable_fields[name][0], self.strategy == "crypto",
                   generalize) for name, slot, generalize in fixed),
            test, make, compares, *self._wide[2:], drained)

    def scan(self, columns: Optional[frozenset] = None,
             level_caps: Iterable[Tuple[str, int]] = (),
             tally: Any = None, reader: Optional[RunReader] = None) -> Iterator[Any]:
        """:meth:`runs`, a row at a time."""
        for run in self.runs(columns, level_caps, tally, reader):
            yield from run

    def runs(self, columns: Optional[frozenset] = None,
             level_caps: Iterable[Tuple[str, int]] = (), tally: Any = None,
             reader: Optional[RunReader] = None,
             drain: Callable[[], bool] = bool) -> Iterator[Sequence[Any]]:
        """Every row of the table, in row-key order of insertion — as
        :class:`StoredRow` objects carrying ``columns``, less the rows storing
        a ``(degradable column, level)`` of ``level_caps`` above that level;
        or whatever ``reader`` (:meth:`row_reader`) makes of the records — in
        the page runs of the address map (:attr:`_runs`, built once and
        reused until the map changes), read by :meth:`_read_keys`.
        ``tally.examined`` / ``tally.excluded`` count the records read so far
        and those the level rule dropped."""
        if reader is None:
            reader = self._decode_plan(columns, tuple(
                (name.lower(), cap) for name, cap in level_caps))
        cached = self._runs
        if cached is None:
            cached = self._runs = self._grouped(self._locations, self._locations.values())
        elif invariants.enabled() and cached != self._grouped(self._locations,
                                                              self._locations.values()):
            raise invariants.InvariantViolation(
                f"{self.schema.name}: cached page runs out of step with the address map")
        return self._read_keys(cached[0], reader, tally, drain, cached[1])

    @staticmethod
    def _grouped(new_keys: Iterable[int], records: Iterable[RecordId],
                 runs: Optional[PageRuns] = None) -> PageRuns:
        """Page ``runs`` (:attr:`_runs`) followed by ``new_keys`` at
        ``records``, as new lists: a run they continue is replaced, not grown."""
        keys, held = runs or ([], [])
        grouped, first = held[:], len(keys)
        for page_id, run in groupby(records, attrgetter("page_id")):
            slots = [record.slot for record in run]
            if grouped and grouped[-1][0] == page_id:
                page_id, before, start = grouped.pop()
                slots, first = before + slots, start
            grouped.append((page_id, slots, first))
            first += len(slots)
        return [*keys, *new_keys], grouped

    def _read_keys(self, row_keys: Sequence[int], reader: RunReader, tally: Any = None,
                   drain: Callable[[], bool] = bool,
                   page_runs: Optional[List[PageRun]] = None) -> Iterator[Sequence[Any]]:
        """Materialize ``row_keys`` in order, one page run at a time.

        Consecutive keys on one page form a run — ``page_runs``, their
        grouping, or each key resolved as its run forms.  A run whose
        page floor (:attr:`HeapFile.floors`) is over a cap of the reader is
        counted examined and excluded, unread; else ``reader`` decodes all of
        it before any row goes up, so no page frame is held across a
        ``yield`` and an early exit over-reads at most one page.  Vanished
        rows are skipped, moved ones found, each key produced at most once.
        While ``drain()`` is true — the consumer reads to the end before
        anything else runs on the engine — the reader's drained pace takes
        the runs and hands up :data:`~.kernels.BATCH_PAGES` pages' rows as one
        list, the tally updated once; else one row at a time, the tally exact
        at every row, and if the table changed between two pulls what follows
        the row just handed out is dropped: a lazy reader never sees — or
        judges — an image older than the last completed degradation step.
        Once the table changed, the keys not yet read are resolved again,
        one by one."""
        if tally is None:
            tally = SimpleNamespace(examined=0, excluded=0, pages_skipped=0)
        floors, caps, frame = self.heap.floors, reader.caps, self.heap.frame
        runs = self._key_runs(row_keys, 0) if page_runs is None else iter(page_runs)
        version, at = self._version, 0
        while True:
            if self._version != version:
                version, runs = self._version, self._key_runs(row_keys, at)
            if drain():
                rows, at, decoded, unread, excluded, skipped = self._drained(reader)(
                    runs, floors, frame,
                    partial(self._recheck, reader) if invariants.enabled() else None)
                if at is None:
                    return
                tally.examined += decoded + unread
                tally.excluded += excluded + unread
                tally.pages_skipped += skipped
                self.stats.reads += decoded
                if rows:
                    yield rows
                continue
            run = next(runs, None)
            if run is None:
                return
            page_id, slots, first = run
            if caps and any(floors[page_id][level_at] > cap for level_at, cap in caps):
                if invariants.enabled():
                    self._recheck(reader, page_id)
                at = first + len(slots)
                tally.pages_skipped += 1
                tally.examined += at - first
                tally.excluded += at - first
                continue
            rows, positions, drops, excluded = reader(frame(page_id), slots)
            self.stats.reads += len(slots)
            seen = dropped = 0
            for row, position, drop in zip(rows, positions, drops):
                tally.examined += position + 1 - seen
                tally.excluded += drop - dropped
                seen, dropped = position + 1, drop
                yield (row,)
                if self._version != version:
                    at = first + seen
                    break
            else:
                at = first + len(slots)
                tally.examined += at - first - seen
                tally.excluded += excluded - dropped

    def _recheck(self, reader: RunReader, page_id: int) -> None:
        """``REPRO_DEBUG_INVARIANTS=1``: a page skipped for its floor must
        hold no row the level rule of ``reader`` keeps."""
        live = self.heap.live_slots(page_id)
        if reader(self.heap.frame(page_id), live)[3] != len(live):
            raise invariants.InvariantViolation(
                f"{self.schema.name}: page {page_id} skipped holds a visible row")

    def _key_runs(self, row_keys: Sequence[int], index: int
                  ) -> Iterator[Tuple[int, List[int], int]]:
        """``(page, slots, index of the first key)`` of each run of
        ``row_keys[index:]``, each key resolved as its run forms (a vanished
        one ends a run)."""
        locations, total = self._locations, len(row_keys)
        while index < total:
            record_id = locations.get(row_keys[index])
            if record_id is None:
                index += 1
                continue
            first, page_id, slots = index, record_id.page_id, []
            while record_id is not None and record_id.page_id == page_id:
                slots.append(record_id.slot)
                index += 1
                record_id = locations.get(row_keys[index]) if index < total else None
            yield page_id, slots, first

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
            yield from chain.from_iterable(self._read_keys(
                [row_key for _page, _slot, row_key in chunk], reader, tally))
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

    def _rewrite_records(self, images: Iterable[Tuple[int, bytes]]) -> List[int]:
        """The one writer of existing records: ``(row key, new image)`` pairs,
        one :meth:`HeapFile.update_many` per page in slot order.  A record off
        a page full in total relocates: its row's address follows it, and the
        page it left is flushed by the next :meth:`_flush_pages`.  Returns the
        pages written, those relocated records landed on included."""
        locations, writes, pages = self._locations, [], []
        for row_key, image in images:
            record_id = locations[row_key]
            writes.append((record_id.page_id, record_id.slot, row_key, image))
        for page_id, run in groupby(sorted(writes), itemgetter(0)):
            run = list(run)
            self._version += 1
            moved = self.heap.update_many(page_id, [(slot, image) for _p, slot, _k, image in run])
            pages.append(page_id)
            for _page, slot, row_key, _image in run if moved else ():
                if slot in moved:
                    self._runs = None
                    locations[row_key] = moved[slot]
                    pages.append(moved[slot].page_id)
                    self._vacated_pages.add(page_id)
            self.stats.relocations += len(moved)
        return pages

    def _erase(self, row_keys: Iterable[int]) -> List[int]:
        """Securely delete the records of ``row_keys``, one :meth:`HeapFile.delete_many`
        a page, and destroy the rows' crypto keys; returns the pages written."""
        pages: Dict[int, List[int]] = defaultdict(list)
        for row_key in row_keys:
            record_id = self._locations.pop(row_key)
            pages[record_id.page_id].append(record_id.slot)
            if self._sealed:
                self.keystore.destroy_matching((self.schema.name, row_key))
        self._version += 1
        self._runs = None
        for page_id, slots in pages.items():
            self.heap.delete_many(page_id, slots)
        return list(pages)

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
                to_level: int, now: float) -> StoredRow:
        """One step — a wave of one (:meth:`degrade_many`); returns the row as readers see it."""
        self.degrade_many([([row_key], column, scheme, to_level)], now)
        return self.read(row_key)

    def degrade_many(self, items: Iterable[Tuple[Sequence[int], str, GeneralizationScheme, int]],
                     now: float, on_chunk: Optional[Callable[[DegradeChunk], None]] = None
                     ) -> List[DegradeChunk]:
        """Apply a wave of ``(row keys, column, scheme, to_level)`` steps —
        a cohort's each — the only degradation routine; returns its chunks,
        handed to ``on_chunk`` once the pages are rewritten, before any I/O.

        Per page, the rows taking the same steps cost one :meth:`HeapFile.frame`
        and one call of the wave kernel of that step shape (:meth:`_splicer`).
        Every page is spliced before the first is written — a wave that
        raises has changed nothing — then :meth:`_rewrite_records` writes them.
        Nothing is logged: the pages reach stable storage (one sync) *before*
        the rows' accurate log images are scrubbed in one pass, and that
        synced page is the durable record of the step (under crypto the old
        levels' keys are destroyed).  A row already at its target is in no
        chunk; if the log still holds an image of it, an earlier attempt died
        between page flush and scrub: flush, then scrub.
        """
        table, locations = self.schema.name, self._locations
        steps: List[Tuple[Tuple[int, int], GeneralizationScheme, int]] = []
        #: row key → the indexes of the steps it takes, in order
        taken: Dict[int, Tuple[int, ...]] = {}
        for index, (row_keys, column, scheme, to_level) in enumerate(items):
            place = self._degradable_fields.get(column.lower())
            if place is None:
                raise PolicyError(f"table {table!r}: column {column!r} is not degradable")
            steps.append((place, scheme, to_level))
            for row_key in row_keys:
                taken[row_key] = taken.get(row_key, ()) + (index,)
        #: page → step indexes → ``(slot, row key)`` of the rows taking them
        pages: Dict[int, Dict[Tuple[int, ...], List[Tuple[int, int]]]] = defaultdict(
            lambda: defaultdict(list))
        for row_key, shape in taken.items():
            record_id = locations.get(row_key) or self._location(row_key)
            pages[record_id.page_id][shape].append((record_id.slot, row_key))
        chunks: List[DegradeChunk] = []
        lanes: Dict[Tuple, Dict[int, Tuple[dict, DegradeChunk]]] = {}
        splicers: Dict[Tuple[int, ...], Callable] = {}
        doomed: List[Tuple] = []                  # crypto keys of the old levels
        rewrite = self.strategy == "rewrite"
        spliced: List[Tuple[int, bytes]] = []     # (row key, new image)
        dirty_pages: List[int] = []
        settled: List[Tuple[str, int]] = []       # scrub keys: rows at their target
        for page_id in sorted(pages):
            had = len(settled)
            for shape, members in pages[page_id].items():
                splice = splicers.get(shape)
                if splice is None:
                    splice = splicers[shape] = self._splicer(
                        [steps[index] for index in shape], chunks, lanes, doomed)
                members.sort()
                images = splice(self.heap.frame(page_id), [slot for slot, _key in members])
                for (slot, row_key), image in zip(members, images):
                    if image is not None:
                        spliced.append((row_key, image))
                    elif not (rewrite and self.wal.records_for(table, row_key)):
                        continue
                    settled.append((table, row_key))
            if len(settled) > had:
                dirty_pages.append(page_id)
        dirty_pages.extend(self._rewrite_records(spliced))
        for key_id in doomed:
            self.keystore.destroy_key(key_id)
        for chunk in chunks:
            self.stats.degrade_steps += sum(map(len, chunk.transitions.values()))
            if on_chunk is not None:
                on_chunk(chunk)
        if dirty_pages:
            self._flush_pages(dirty_pages)
        if settled and rewrite:
            self.wal.scrub_records(settled, now=now)
        return chunks

    def _splicer(self, steps: List[Tuple[Tuple[int, int], GeneralizationScheme, int]],
                 chunks: List[DegradeChunk], lanes: Dict[Tuple, Dict[int, Tuple]],
                 doomed: List[Tuple]) -> Callable:
        """The wave kernel (:mod:`.kernels`) for rows taking ``steps`` —
        ``((level position, value position), scheme, to_level)`` each —
        compiled once per store and step shape, bound to this wave: its
        ``chunks`` as they open, its doomed crypto keys and its **lanes**.
        A lane is one ``(place, to_level, scheme)`` step, whatever shape
        takes it: from level → ``(memo, chunk)``, the memo mapping an encoded
        old field to ``(encoded new field, new value, that transition's row
        keys)`` — ``generalize`` is pure, each distinct value pays it once."""
        crypto = self.strategy == "crypto"
        targets = tuple(place for place, _scheme, _to_level in steps)
        factory = self._kernels.get(("wave", targets))
        if factory is None:
            factory = self._kernels["wave", targets] = compile_wave_kernel(WaveShape(
                len(self._degradable), self._field_count, targets, crypto))
        bound = [(to_level, lane, partial(self._open_chunk, chunks, lane,
                                          self._degradable[place[0]], to_level, scheme))
                 for place, scheme, to_level in steps
                 for lane in (lanes.setdefault((place, to_level, scheme), {}),)]
        top = max(to_level for _place, _scheme, to_level in steps)
        return factory(self._prefix.struct.unpack_from, self._prefix.tags, self._malformed,
                       self._prefix.level_pieces(top), bound,
                       self._generalize, partial(self._rekey, doomed) if crypto else None)

    @staticmethod
    def _open_chunk(chunks: List[DegradeChunk], lane: Dict[int, Tuple], column: str,
                    to_level: int, scheme: GeneralizationScheme, from_level: int) -> Tuple:
        chunks.append(DegradeChunk(column, from_level, to_level, scheme))
        entry = lane[from_level] = ({}, chunks[-1])
        return entry

    @staticmethod
    def _generalize(entry: Tuple[dict, DegradeChunk], image: bytes) -> Tuple:
        """A memo miss: ``image`` degraded by ``entry``'s chunk.  Missing and
        already-suppressed values carry no information to degrade: only the
        stored level advances."""
        memo, chunk = entry
        old_value = decode_value(image)[0]
        new_value = old_value if is_missing(old_value) else chunk.scheme.generalize(
            old_value, chunk.to_level, from_level=chunk.from_level)
        hit = memo[image] = (encode_value(new_value), new_value,
                             chunk.transitions.setdefault((old_value, new_value), []))
        return hit

    def _rekey(self, doomed: List[Tuple], entry: Tuple[dict, DegradeChunk], row_key: int,
               image: bytes) -> bytes:
        """A crypto field through ``entry``'s chunk: decrypted under the
        row's key of the old level (a destroyed key reads as suppressed, as
        in reads), generalized, encrypted under a fresh key of the new
        level; the keys of every level it passed are doomed."""
        chunk = entry[1]
        key_id = (self.schema.name, row_key, chunk.column)
        blob = decode_value(image)[0]
        if isinstance(blob, bytes):
            try:
                image = self.keystore.decrypt((*key_id, chunk.from_level), blob)
            except KeyDestroyedError:
                image = encode_value(SUPPRESSED)
        hit = entry[0].get(image) or self._generalize(entry, image)
        hit[2].append(row_key)
        doomed.extend((*key_id, level) for level in range(chunk.from_level, chunk.to_level))
        if is_missing(hit[1]):
            return hit[0]
        return encode_value(self.keystore.encrypt((*key_id, chunk.to_level), hit[0]))

    def remove(self, row_key: int, now: float, txn_id: int = 0,
               scrub_log: bool = True) -> None:
        """Final removal of one row that must exist: :meth:`remove_many` of one."""
        self._location(row_key)
        self.remove_many([row_key], now, txn_id, scrub_log)

    def remove_many(self, row_keys: Sequence[int], now: float, txn_id: int = 0,
                    scrub_log: bool = True,
                    on_rows: Optional[Callable[[List[StoredRow]], None]] = None) -> int:
        """Physically delete rows, vanished ones skipped: per page one
        ``DELTA`` of imageless −1 entries and one erase (:meth:`_erase`), then
        one scrub pass of their log images and one pager sync for the lot,
        none for no rows.  ``on_rows`` gets the rows as they were, read in
        page runs before the first is erased.  Returns how many went."""
        held = [row_key for row_key in dict.fromkeys(row_keys) if row_key in self._locations]
        if not held:
            return 0
        if on_rows is not None:
            on_rows(self._stored(held))
        self._log_delta(zip(held, repeat(-1), repeat(None)), now, txn_id)
        pages = self._erase(held)
        if scrub_log:
            self.wal.scrub_records(zip(repeat(self.schema.name), held), now=now)
        self._flush_pages(pages)
        self.stats.removals += (count := len(held))
        return count

    def delete(self, row_keys: Sequence[int], now: float, txn_id: int = 0,
               on_rows: Optional[Callable[[List[StoredRow]], None]] = None) -> int:
        """A statement's explicit delete: :meth:`remove_many`, as non-recoverable."""
        return self.remove_many(row_keys, now, txn_id, on_rows=on_rows)

    def update_stable(self, row_keys: Sequence[int], assignments: Sequence[Tuple[str, Any]],
                      now: float, txn_id: int = 0
                      ) -> Tuple[List[StoredRow], List[StoredRow]]:
        """One statement's ``(column, value)`` ``assignments`` to the rows of
        ``row_keys`` the table holds (degradable attributes are immutable):
        read in page runs, written by :meth:`_rewrite_records`, each row a −1
        entry with its before image and a +1 with its after image in its
        page's ``DELTA``.  Returns the rows ``(before, after)``; no row, no
        read and no record."""
        columns = [(self.schema.column(column.lower()), value) for column, value in assignments]
        for column, _value in columns:
            if column.degradable:
                raise PolicyError(
                    f"column {self.schema.name}.{column.name} is degradable: updates are "
                    "not granted after the tuple creation has been committed")
        if not row_keys:
            return [], []
        changes = {column.name: column.coerce(value) for column, value in columns}
        before = self._stored(row_keys)
        after = [StoredRow(row.row_key, {**row.values, **changes}, row.levels, row.inserted_at)
                 for row in before]
        images = [(row.row_key, self.image(row)) for row in after]
        with self.buffer_pool.unlogged():       # its pages wait for their DELTAs
            self._rewrite_records(images)
            self._log_delta([entry for row, (row_key, image) in zip(before, images) for entry
                             in ((row_key, -1, self.image(row)), (row_key, 1, image))],
                            now, txn_id)
        return before, after

    # -- maintenance / recovery / forensics -----------------------------------------

    def flush(self) -> None:
        self.heap.flush()
        self.wal.flush()

    def raw_image(self) -> bytes:
        """Raw bytes of the heap pages and the log (forensic scanning input)."""
        return self.heap.raw_image() + self.wal.raw_image()

    def restore_rows(self, images: Sequence[Tuple[int, bytes]],
                     now: Optional[float] = None) -> List[int]:
        """Write ``(row key, image)`` pairs back — logged ones (:meth:`apply_entries`)
        or, given ``now``, a statement's before images (abort-undo, logged under
        system transaction 0, which recovery always redoes: a held row's −1
        with the image it replaces, each row's +1): held rows through
        :meth:`_rewrite_records`, missing ones as one heap batch; their keys."""
        held = [image for image in images if image[0] in self._locations]
        replaced = [(row_key, -1, self.heap.read(self._locations[row_key]))
                    for row_key, _payload in held] if now is not None else []
        self._rewrite_records(held)
        missing = dict(image for image in images if image[0] not in self._locations)
        if missing:
            self._runs = None
            self._locations.update(zip(missing, self.heap.insert_many(list(missing.values()))))
        self._next_row_key = max(self._next_row_key, max(missing, default=0) + 1)
        if now is not None:
            self._log_delta(replaced + [(row_key, 1, payload) for row_key, payload in images],
                            now, 0)
        return [row_key for row_key, _payload in images]

    def apply_entries(self, entries: Iterable[Entry]) -> Tuple[int, int, List[int]]:
        """Apply logged ``(row key, weight, image)`` entries unlogged, no page
        flushed (recovery): a row with a −1 and a +1 takes the +1 image where
        the table holds it unless it is :meth:`behind`, one with a +1 alone
        enters where it lacks it, one with an imageless −1 alone leaves (an
        imaged −1 alone is what a scrub left of a pair).  Returns how many
        entered, how many were replaced and the keys that left."""
        entering, leaving = {}, {}      # row key → its image
        for row_key, weight, image in entries:
            (entering if weight > 0 else leaving)[row_key] = image
        written = [row_key for row_key, image in entering.items()
                   if (row_key in leaving) == self.exists(row_key)
                   and not self.behind(row_key, image)]
        self.restore_rows([(row_key, entering[row_key]) for row_key in written])
        left = [row_key for row_key, image in leaving.items()
                if image is None and row_key not in entering and self.exists(row_key)]
        self._erase(left)
        replaced = sum(row_key in leaving for row_key in written)
        return len(written) - replaced, replaced, left

    def behind(self, row_key: int, image: bytes) -> bool:
        """Whether ``image`` stores a column of ``row_key`` less degraded than the table does."""
        held, levels = self._locations.get(row_key), self._prefix.read_levels
        return held is not None and any(map(lt, levels(image, 0), levels(self.heap.read(held), 0)))

    def reserve_row_keys_after(self, row_key: int) -> None:
        """Never hand out a key at or below ``row_key`` — recovery's highest
        key in the log: a key freed by a removal and reused would have its
        old incarnation's −1 entries delete the new row on a later
        recovery (the row-key analogue of ``TransactionManager.resume_after``)."""
        self._next_row_key = max(self._next_row_key, int(row_key) + 1)

    def rebuild_locations(self) -> None:
        """Rebuild the row-key → record-id map by scanning the heap's record
        headers (recovery)."""
        self._locations.clear()
        self._runs = None
        plan = self._decode_plan(frozenset())
        max_key = 0
        for page_id in self.heap.page_ids():
            slots = self.heap.live_slots(page_id)
            for slot, row in zip(slots, plan(self.heap.frame(page_id), slots)[0]):
                self._locations[row.row_key] = RecordId(page_id, slot)
                max_key = max(max_key, row.row_key)
        self._next_row_key = max_key + 1


def _coerced(column: Any, value: Any) -> Tuple[Any, bytes]:
    """A value off its column's fast path: coerced, and its field."""
    value = column.coerce(value)
    return value, encode_value(value)


__all__ = ["TableStore", "StoredRow", "RowBatch", "DegradeChunk", "TableStoreStats",
           "STRATEGIES"]
