"""Crash recovery that never resurrects degraded data.

A conventional ARIES recovery replays the log and undoes losers using the
before-images it finds there.  In a degradation-aware engine that is exactly
the threat the paper warns about: a before-image of an already-degraded value
is an accurate copy that must not come back.  The :class:`RecoveryManager`
therefore implements a redo/undo pass with three degradation-specific rules:

1. a ``DELTA``'s imageless −1 entries (a removal) are always *redone*, even
   for loser transactions (removal is a system action, not part of user
   atomicity);
2. undo negates only the entries that still hold an image; a scrubbed one
   is gone and its undo with it — privacy wins over exact rollback, as
   argued in §III of the paper;
3. the **level rule**: a degradation step is not logged — its durable record
   is the heap page, synced before the step's images are scrubbed — so
   neither redo nor undo writes an image less degraded than the heap's
   record of its row, and once the recovered pages are durable every log
   image less degraded than its row's heap record is scrubbed.  That
   finishes a scrub a crash cut short after the page sync, and a step whose
   page write was lost is simply pending again (the schedule derived from
   the heap has it due).

The log holds no image of the **degradation schedule**: the engine derives
it from the recovered heap (each row's insertion time and stored levels), as
it derives indexes and statistics.  The one schedule input recovery reads
from the log is the event firings (``SCHED_EVENT``), collected by the
preparation pass into :attr:`RecoveryManager.firings`.  See
``docs/durability.md`` for the full protocol.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import RecoveryError
from ..storage.buffer import BufferPool
from ..storage.degradable_store import TableStore
from ..storage.wal import (
    LogRecord,
    LogRecordType,
    WriteAheadLog,
    delta_entries,
)

#: Record types that replay deliberately ignores, with the reason on record.
#: Every other :class:`LogRecordType` must be dispatched somewhere in this
#: module — the *wal-exhaustive* reprolint rule fails the build otherwise
#: (see the new-record-type checklist in docs/invariants.md).
_REPLAY_IGNORED = frozenset({
    # SCRUB is the audit trail of a log-scrubbing action.  Its *effect* (the
    # nulled before/after images) is already persisted in the rewritten log
    # records themselves, so replay has nothing to apply; re-running it would
    # only re-count an action that already happened.
    LogRecordType.SCRUB,
    # CATALOG carries a DDL snapshot consumed *before* data replay by
    # InstantDB.recover (engine/catalog_io.latest_catalog_snapshot); by the
    # time RecoveryManager runs, the tables it describes already exist, so
    # the data passes have nothing to do with it.
    LogRecordType.CATALOG,
    # CHECKPOINT is the anchor a truncating checkpoint keeps the log from;
    # its pages were flushed before it, and it carries nothing to apply.
    LogRecordType.CHECKPOINT,
})


@dataclass
class RecoveryReport:
    """Summary of a recovery pass (asserted on by the crash tests)."""

    committed_txns: Set[int] = field(default_factory=set)
    loser_txns: Set[int] = field(default_factory=set)
    redone_inserts: int = 0
    redone_removes: int = 0
    redone_updates: int = 0
    undone_inserts: int = 0
    undone_updates: int = 0
    skipped_undos: int = 0
    #: Full forward iterations over the WAL spent *preparing* recovery
    #: (transaction analysis, drop epochs, event firings, row-key highs).
    #: Exactly 1 by construction — the fused :meth:`RecoveryManager._prepare`
    #: pass — and asserted on by the recovery tests.
    wal_prep_passes: int = 0


class RecoveryManager:
    """Replays a WAL against a set of :class:`TableStore` objects."""

    def __init__(self, wal: WriteAheadLog, stores: Dict[str, TableStore]) -> None:
        self.wal = wal
        self.stores = stores
        #: Per-table LSN of the last TABLE_DROP marker.  Records at or before
        #: it belong to a dropped incarnation of the table and are skipped:
        #: for a name absent from the catalog that avoids a spurious
        #: unknown-table error; for a re-created name it stops old-epoch
        #: removals from deleting the new table's rows (keys are reused).
        self._drop_lsns: Dict[str, int] = {}
        #: Transaction analysis (winners / losers at the crash point).
        self._committed: Set[int] = set()
        self._losers: Set[int] = set()
        #: Table → highest row key the surviving log mentions.
        self._highest_row_keys: Dict[str, int] = {}
        #: ``(event, time)`` of every logged firing, in log order (a
        #: checkpoint logs again the ones the schedule can still need).
        self.firings: List[Tuple[str, float]] = []
        #: Full forward WAL iterations spent preparing recovery — exactly one.
        self.wal_prep_passes = 0
        #: Rows redo or undo removed: no image of them may stay in the log.
        self._settled: Dict[Tuple[str, int], None] = {}
        #: ``(table, row key)`` → the first live image of the row the log
        #: holds (the least degraded: levels only grow), for the level rule.
        self._oldest: Dict[Tuple[str, int], bytes] = {}
        self._prepare()

    # -- preparation (the single forward pass) ---------------------------------

    def _prepare(self) -> None:
        """One fused forward pass over the log.

        Drop epochs, transaction analysis, event firings and row-key
        reservation share it because every drop-epoch-dependent decision can
        be made *incrementally*: a ``TABLE_DROP`` simply discards the row-key
        high its table accumulated so far, which is exactly what filtering by
        the final drop LSN would have removed afterwards.
        """
        self.wal_prep_passes += 1
        begun: Set[int] = set()
        committed: Set[int] = set()
        highest = self._highest_row_keys
        for record in self.wal:
            record_type = record.record_type
            if record_type is LogRecordType.BEGIN:
                begun.add(record.txn_id)
                continue
            if record_type is LogRecordType.COMMIT:
                committed.add(record.txn_id)
                continue
            if record_type is LogRecordType.ABORT:
                # Aborted transactions were rolled back before the crash (their
                # undo is already reflected); they are neither winners nor losers.
                # The last control record wins: a COMMIT *followed by* an ABORT
                # means the commit's durable flush failed and the engine rolled
                # the transaction back (reporting failure to the client), so
                # redoing it as a winner would resurrect work every live reader
                # already saw undone.
                begun.discard(record.txn_id)
                committed.discard(record.txn_id)
                continue
            if record_type is LogRecordType.TABLE_DROP:
                # Everything this table accumulated belongs to the dropped
                # incarnation; a re-created table rebuilds its state from the
                # newer-epoch records that follow.
                self._drop_lsns[record.table] = record.lsn
                highest.pop(record.table, None)
                continue
            if record_type is LogRecordType.SCHED_EVENT:
                self.firings.append((record.attribute, record.timestamp))
                continue
            if record.table and record.row_key > highest.get(record.table, 0):
                highest[record.table] = record.row_key
        self._committed = committed
        self._losers = begun - committed

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild row maps, redo winner work and degradation, undo losers."""
        report = RecoveryReport(committed_txns=set(self._committed),
                                loser_txns=set(self._losers))
        self._adopt_pages()
        for store in self.stores.values():
            store.rebuild_locations()
        self._redo(report)
        self._undo(report)
        self._reserve_row_keys()
        for store in self.stores.values():
            store.flush()
        # Only now, with every recovered page durable: finish any scrub the
        # crash interrupted (a dict miss per row when there is none).
        self.wal.scrub_records([*self._settled, *self._outdated()])
        report.wal_prep_passes = self.wal_prep_passes
        return report

    def _reserve_row_keys(self) -> None:
        """Advance each store's key counter past every key the log mentions.

        Rebuilding from live rows alone would re-issue keys freed by
        removals; a reused key would collide with the old incarnation's
        surviving −1 entries on the next recovery and delete the new
        row.  The per-table highs come from the prepare pass (records of
        dropped epochs excluded).
        """
        for table, row_key in self._highest_row_keys.items():
            store = self.stores.get(table)
            if store is not None:
                store.reserve_row_keys_after(row_key)

    def _adopt_pages(self) -> None:
        """Hand every store the pager pages that name it as their owner
        (:attr:`~repro.storage.page.SlottedPage.owner`), in page order,
        before scanning them: each pager's pages are read once.  Freshly
        opened stores own no pages, so without this step every row that
        exists only on a flushed page (all degraded rows — their log images
        are scrubbed) would be unreachable.  A page that names no owner —
        never written, given up by a drop — is adopted by none: the pager
        hands it out again before it grows.
        """
        owned: Dict[BufferPool, Dict[int, List[int]]] = {}
        for store in self.stores.values():
            pool = store.buffer_pool
            if pool not in owned:
                owned[pool] = defaultdict(list)
                for page_id in pool.pager.page_ids():
                    owned[pool][pool.get_page(page_id).owner].append(page_id)
                pool.pager.reuse(owned[pool][0])
            store.heap.adopt_pages(owned[pool][store.heap.owner])

    def _old_epoch(self, record: LogRecord) -> bool:
        """Whether ``record`` predates the last drop of its table."""
        return record.lsn <= self._drop_lsns.get(record.table, 0)

    def _store_for(self, record: LogRecord) -> Optional[TableStore]:
        if not record.table:
            return None
        store = self.stores.get(record.table)
        if store is None:
            if record.table in self._drop_lsns:
                return None
            raise RecoveryError(f"log references unknown table {record.table!r}")
        if self._old_epoch(record):
            return None
        return store

    def _redo(self, report: RecoveryReport) -> None:
        # System txn id 0 (degradation daemon bookkeeping) is always redone.
        oldest = self._oldest
        for record in self.wal:
            if record.record_type is not LogRecordType.DELTA:
                continue
            store = self._store_for(record)
            if store is None:
                continue
            committed = record.txn_id in report.committed_txns or record.txn_id == 0
            entries = delta_entries(record)
            if store.strategy == "rewrite":
                for row_key, _weight, image in entries:
                    if image is not None:
                        oldest.setdefault((record.table, row_key), image)
            # A loser's entries wait for undo, but a removal (an imageless
            # −1) cannot be undone: it is redone whatever the txn.
            entries = [entry for entry in entries if committed or entry[2] is None]
            entered, replaced, left = store.apply_entries(entries)
            report.redone_inserts += entered
            report.redone_updates += replaced
            report.redone_removes += len(left)
            self._settled.update(dict.fromkeys(
                (record.table, row_key) for row_key, _weight, image in entries
                if image is None))

    def _outdated(self) -> Iterator[Tuple[str, int]]:
        """The level rule's scrub: the rows the heap holds more degraded than
        some live log image of them — a step whose page reached the disk
        before the crash, its scrub did not."""
        for (table, row_key), image in self._oldest.items():
            if self.stores[table].behind(row_key, image):
                yield table, row_key

    def _undo(self, report: RecoveryReport) -> None:
        """Negate each loser ``DELTA``'s entries that hold an image, newest
        record first: a row it inserted leaves (and its images with it), a
        row it replaced gets its −1 image back."""
        for record in reversed(self.wal.records()):
            if record.txn_id not in report.loser_txns:
                continue
            store = self._store_for(record)
            if store is None:
                continue
            if record.record_type is LogRecordType.DELTA:
                entries = delta_entries(record)
                entered, replaced, left = store.apply_entries(
                    (row_key, -weight, image if weight < 0 else None)
                    for row_key, weight, image in entries if image is not None)
                report.undone_inserts += len(left)
                report.undone_updates += entered + replaced
                report.skipped_undos += sum(image is None for _key, _weight, image in entries)
                self._settled.update(dict.fromkeys((record.table, row_key) for row_key in left))


__all__ = ["RecoveryManager", "RecoveryReport"]
