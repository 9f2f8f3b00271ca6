"""Crash recovery that never resurrects degraded data.

A conventional ARIES recovery replays the log and undoes losers using the
before-images it finds there.  In a degradation-aware engine that is exactly
the threat the paper warns about: a before-image of an already-degraded value
is an accurate copy that must not come back.  The :class:`RecoveryManager`
therefore implements a redo/undo pass with two degradation-specific rules:

1. ``DEGRADE`` and ``REMOVE`` records are always *redone*, even for loser
   transactions (degradation is a system action, not part of user atomicity);
2. undo uses logical before-images only for stable-attribute updates; if a
   before-image was scrubbed (``None``) the undo is skipped — privacy wins over
   exact rollback, as argued in §III of the paper.

Besides the data, recovery reconstructs the **degradation schedule**:
:meth:`RecoveryManager.replay_schedule` restores the last ``SCHED_CHECKPOINT``
snapshot (written on clean shutdown) and replays the schedule records behind
it — committed registrations, applied steps, deferrals and event firings —
into a :class:`~repro.core.scheduler.DegradationScheduler`, so steps that came
due while the process was down are overdue (not lost) after a restart.  See
``docs/durability.md`` for the full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import RecoveryError
from ..core.lcp import TupleLCP
from ..core.scheduler import DegradationScheduler, LCPResolver, SchedulerSnapshot
from ..storage.degradable_store import TableStore
from ..storage.serialization import decode_record
from ..storage.wal import (
    LogRecord,
    LogRecordType,
    WriteAheadLog,
    decode_degrade_chunk,
    decode_page_directory,
    decode_schedule_defers,
    decode_schedule_registration,
    decode_schedule_steps,
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
})


@dataclass
class RecoveryReport:
    """Summary of a recovery pass (asserted on by the crash tests)."""

    committed_txns: Set[int] = field(default_factory=set)
    loser_txns: Set[int] = field(default_factory=set)
    redone_inserts: int = 0
    #: Rows a DEGRADE chunk lists that the heap still holds *below* the
    #: logged level (their page write was lost; the step is pending again).
    redone_degrades: int = 0
    #: DEGRADE chunk records dispatched during redo.
    redone_degrade_chunks: int = 0
    redone_removes: int = 0
    redone_updates: int = 0
    undone_inserts: int = 0
    undone_updates: int = 0
    skipped_undos: int = 0
    #: Full forward iterations over the WAL spent *preparing* recovery
    #: (transaction analysis, drop epochs, page directory, row-key highs).
    #: Exactly 1 by construction — the fused :meth:`RecoveryManager._prepare`
    #: pass — and asserted on by the recovery tests.
    wal_prep_passes: int = 0


@dataclass
class ScheduleReplayReport:
    """Summary of a degradation-schedule replay pass."""

    #: LSN of the snapshot the replay started from (0 = no snapshot found,
    #: full replay from the start of the log).
    snapshot_lsn: int = 0
    #: Registrations (records) restored from the snapshot's cohorts.
    snapshot_restored: int = 0
    #: Registrations (records) replayed from SCHED_REGISTER records behind
    #: the snapshot.
    registrations_replayed: int = 0
    #: Registrations whose row or policy no longer resolves (dropped).
    registrations_dropped: int = 0
    steps_replayed: int = 0
    events_replayed: int = 0
    defers_replayed: int = 0


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
        #: Table → heap page ids (last CHECKPOINT directory + PAGE_ALLOC tail).
        self._page_directory: Dict[str, List[int]] = {}
        #: Table → highest row key the surviving log mentions.
        self._highest_row_keys: Dict[str, int] = {}
        #: Full forward WAL iterations spent preparing recovery — exactly one.
        self.wal_prep_passes = 0
        #: Rows the redo pass found degraded to (or past) a logged target
        #: level, or removed: no accurate image of them may stay in the log.
        #: Normally none is left; one is when the crash fell between a
        #: step's page flush and the end of its log scrub.
        self._settled: Dict[Tuple[str, int], None] = {}
        self._prepare()

    # -- preparation (the single forward pass) ---------------------------------

    def _prepare(self) -> None:
        """One fused forward pass over the log.

        Historically four separate iterations (drop-epoch scan, transaction
        analysis, page-directory restore, row-key reservation) each walked the
        full record list.  They fold into one because every
        drop-epoch-dependent decision can be made *incrementally*: a
        ``TABLE_DROP`` simply discards whatever state its table accumulated so
        far (directory pages, row-key high), which is exactly what filtering
        by the final drop LSN would have removed afterwards.
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
                self._page_directory.pop(record.table, None)
                highest.pop(record.table, None)
                continue
            if record_type is LogRecordType.CHECKPOINT:
                if record.after is not None:
                    # The directory payload supersedes everything before it;
                    # entries of tables dropped later are removed by the
                    # TABLE_DROP branch above as those records stream past.
                    self._page_directory = decode_page_directory(record.after)
                continue
            if record_type is LogRecordType.PAGE_ALLOC:
                # The row-key field holds a page id, not a row key.
                self._page_directory.setdefault(record.table, []).append(
                    record.row_key)
                continue
            # (A DEGRADE chunk has no row key of its own; the rows it lists
            # are live — the heap scan finds them — or have a REMOVE record
            # behind the chunk.)
            if record.table and record.row_key > highest.get(record.table, 0):
                highest[record.table] = record.row_key
        self._committed = committed
        self._losers = begun - committed

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild row maps, redo winner work and degradation, undo losers."""
        report = RecoveryReport(committed_txns=set(self._committed),
                                loser_txns=set(self._losers))
        self._restore_page_directories()
        for store in self.stores.values():
            store.rebuild_locations()
        self._redo(report)
        self._undo(report)
        self._reserve_row_keys()
        for store in self.stores.values():
            store.flush()
        # Only now, with every recovered page durable: finish any scrub the
        # crash interrupted (a dict miss per row when there is none).
        self.wal.scrub_records(self._settled)
        report.wal_prep_passes = self.wal_prep_passes
        return report

    def _reserve_row_keys(self) -> None:
        """Advance each store's key counter past every key the log mentions.

        Rebuilding from live rows alone would re-issue keys freed by
        removals; a reused key would collide with the old incarnation's
        surviving REMOVE records on the next recovery and delete the new
        row.  The per-table highs come from the prepare pass (PAGE_ALLOC
        records excluded — their row-key field holds a page id — as are
        records of dropped epochs).
        """
        for table, row_key in self._highest_row_keys.items():
            store = self.stores.get(table)
            if store is not None:
                store.reserve_row_keys_after(row_key)

    def _restore_page_directories(self) -> None:
        """Re-attach heap pages to their tables before scanning them.

        Page ownership is durable as the last CHECKPOINT record's directory
        payload plus the PAGE_ALLOC records behind it (assembled by the
        prepare pass).  Freshly opened stores own no pages, so without this
        step every row that exists only on a flushed page (all degraded rows
        — their log images are scrubbed) would be unreachable.
        """
        for table, page_ids in self._page_directory.items():
            store = self.stores.get(table)
            if store is None:
                # A dropped table's allocation records may outlive it in the
                # log; its pages have no store to attach to — skip them (the
                # schedule replay drops such tables' registrations the same
                # way) rather than make every other table unrecoverable.
                continue
            store.heap.adopt_pages(page_ids)

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
        for record in self.wal:
            store = self._store_for(record)
            if store is None:
                continue
            committed = record.txn_id in report.committed_txns or record.txn_id == 0
            if record.record_type is LogRecordType.INSERT:
                if committed and record.after is not None and not store.exists(record.row_key):
                    store.restore_row(record.after)
                    report.redone_inserts += 1
            elif record.record_type is LogRecordType.UPDATE:
                if committed and record.after is not None and store.exists(record.row_key):
                    store.restore_row(record.after)
                    report.redone_updates += 1
            elif record.record_type is LogRecordType.DELETE:
                if committed and store.exists(record.row_key):
                    store.replay_remove(record.row_key, now=record.timestamp)
            elif record.record_type is LogRecordType.DEGRADE:
                # Degradation is redone regardless of the surrounding txn.
                if record.after is not None:
                    report.redone_degrades += self._redo_degrade(store, record)
                    report.redone_degrade_chunks += 1
            elif record.record_type is LogRecordType.REMOVE:
                if store.exists(record.row_key):
                    store.replay_remove(record.row_key, now=record.timestamp)
                    report.redone_removes += 1
                self._settle(store, record.row_key)

    def _settle(self, store: TableStore, row_key: int) -> None:
        if store.strategy == "rewrite":
            self._settled[(store.schema.name, row_key)] = None

    # -- schedule replay -------------------------------------------------------

    def replay_schedule(self, scheduler: DegradationScheduler,
                        resolve_lcp: LCPResolver,
                        recovery_report: Optional[RecoveryReport] = None
                        ) -> ScheduleReplayReport:
        """Reconstruct the degradation schedule from the log's SCHED records.

        Call after :meth:`recover` — the replay resolves registrations against
        the recovered stores (losers undone, removals redone), so
        ``resolve_lcp`` can simply drop ids whose row no longer exists.  The
        replay starts from the last ``SCHED_CHECKPOINT`` snapshot if one
        survives in the log (clean shutdowns write one, and checkpoint
        truncation keeps it), then applies the schedule tail behind it in LSN
        order.  Registrations and step applications belonging to uncommitted
        transactions are ignored: an unapplied step stays pending at its
        original due time and simply comes up overdue after the restart —
        never lost, never applied twice.
        """
        report = ScheduleReplayReport()
        # The winner set comes from the caller's recovery report when given,
        # else from the fused prepare pass — never from a fresh log iteration.
        committed = (recovery_report.committed_txns
                     if recovery_report is not None else self._committed)
        # Checkpoints append their snapshot chunks *before* the CHECKPOINT
        # marker: a torn tail chops the log from the first torn record on,
        # so a surviving marker proves the complete chunk run before it
        # survived as well.  The snapshot is therefore the contiguous run of
        # SCHED_CHECKPOINT records (same timestamp) immediately preceding
        # the *last* marker; chunks after it — a checkpoint whose marker was
        # lost — are orphans and are ignored, falling back to this one.
        records = self.wal.records()
        marker_index = None
        for index, record in enumerate(records):
            if record.record_type is LogRecordType.CHECKPOINT:
                marker_index = index
        chunks: List[LogRecord] = []
        if marker_index is not None:
            marker = records[marker_index]
            cursor = marker_index - 1
            while cursor >= 0:
                candidate = records[cursor]
                if candidate.record_type is not LogRecordType.SCHED_CHECKPOINT:
                    break
                if candidate.timestamp != marker.timestamp:
                    break
                chunks.append(candidate)
                cursor -= 1
            if chunks:
                report.snapshot_lsn = marker.lsn

        def epoch_resolver(record_id, policy_names=None):
            # Snapshot entries of a table dropped *after* the snapshot was
            # taken describe the old incarnation — drop them even when a
            # same-name table (with reused row keys) exists again.
            if isinstance(record_id, tuple) and record_id and \
                    self._drop_lsns.get(record_id[0], 0) > report.snapshot_lsn:
                return None
            return resolve_lcp(record_id, policy_names)

        for record in chunks:
            if record.after is None:
                continue
            snapshot = SchedulerSnapshot.from_fields(decode_record(record.after))
            restored = scheduler.restore_from(snapshot, epoch_resolver)
            report.snapshot_restored += restored
            report.registrations_dropped += (
                sum(len(cohort.record_ids) for cohort in snapshot.cohorts) - restored)
        for record in self.wal:
            if record.lsn <= report.snapshot_lsn:
                continue
            record_type = record.record_type
            if record.table and self._old_epoch(record):
                continue            # schedule records of a dropped incarnation
            if record_type is LogRecordType.SCHED_REGISTER:
                if record.txn_id != 0 and record.txn_id not in committed:
                    continue
                if record.after is None:
                    continue
                policy_names, row_keys = decode_schedule_registration(record.after)
                cohorts: Dict[TupleLCP, List[Tuple[str, int]]] = {}
                for row_key in row_keys:
                    record_id = (record.table, row_key)
                    if scheduler.is_registered(record_id):
                        continue
                    tuple_lcp = resolve_lcp(record_id, policy_names or None)
                    if tuple_lcp is None:
                        report.registrations_dropped += 1
                    else:
                        cohorts.setdefault(tuple_lcp, []).append(record_id)
                for tuple_lcp, record_ids in cohorts.items():
                    scheduler.register_many(record_ids, tuple_lcp, record.timestamp)
                    report.registrations_replayed += len(record_ids)
            elif record_type is LogRecordType.SCHED_STEP:
                if record.txn_id != 0 and record.txn_id not in committed:
                    continue
                if record.after is None:
                    continue
                for attribute, to_state, due, row_keys in \
                        decode_schedule_steps(record.after):
                    report.steps_replayed += scheduler.replay_applied(
                        [(record.table, row_key) for row_key in row_keys],
                        attribute, to_state, due)
            elif record_type is LogRecordType.SCHED_EVENT:
                scheduler.fire_event(record.attribute, record.timestamp)
                report.events_replayed += 1
            elif record_type is LogRecordType.SCHED_DEFER:
                if record.after is None:
                    continue
                for attribute, from_state, due, until, row_keys in \
                        decode_schedule_defers(record.after):
                    report.defers_replayed += scheduler.replay_defer(
                        [(record.table, row_key) for row_key in row_keys],
                        attribute, from_state, due, until)
        return report

    def _redo_degrade(self, store: TableStore, record: LogRecord) -> int:
        """Redo of one wave chunk is a lag check, row by row.

        The value cannot be recomputed from the log (no accurate image, by
        design), and need not be: the engine flushes the degraded pages
        before it scrubs or commits the step.  A listed row the heap holds at
        (or past) the logged level is *settled* — whatever accurate image of
        it the log still has is scrubbed once the recovered pages are
        durable.  A row that lags had its page write lost in the crash: the
        accurate value is still there, the step is simply pending again and
        the daemon re-applies it on restart.  Returns the number of lagging
        rows (asserted on by tests).
        """
        to_level, row_keys = decode_degrade_chunk(record.after)
        lagging = 0
        for row_key in row_keys:
            if not store.exists(row_key):
                continue
            levels = store.read(row_key, frozenset()).levels
            if levels.get(record.attribute, 0) < to_level:
                lagging += 1
            else:
                self._settle(store, row_key)
        return lagging

    def _undo(self, report: RecoveryReport) -> None:
        for record in reversed(self.wal.records()):
            if record.txn_id not in report.loser_txns:
                continue
            store = self._store_for(record)
            if store is None:
                continue
            if record.record_type is LogRecordType.INSERT:
                if store.exists(record.row_key):
                    store.replay_remove(record.row_key, now=record.timestamp,
                                        scrub_log=True)
                    report.undone_inserts += 1
            elif record.record_type is LogRecordType.UPDATE:
                if record.before is None:
                    report.skipped_undos += 1
                    continue
                if store.exists(record.row_key):
                    store.restore_row(record.before)
                    report.undone_updates += 1
            elif record.record_type in (LogRecordType.DEGRADE, LogRecordType.REMOVE):
                # Never undone: degradation is irreversible by design.
                report.skipped_undos += 1


__all__ = ["RecoveryManager", "RecoveryReport", "ScheduleReplayReport"]
