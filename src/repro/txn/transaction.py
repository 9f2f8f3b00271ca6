"""Transactions and the transaction manager.

User transactions follow the classic begin / operate / commit-or-abort
protocol with strict 2PL and WAL logging.  Degradation introduces the twist
the paper discusses under "How does data degradation impact transaction
semantics?": an insert's effects keep changing after commit (the degradation
steps), so durability applies to the *policy-compliant* state of the data, not
to the accurate values themselves.  Concretely:

* BEGIN is lazy — the log writes it just ahead of a transaction's first
  record — so a transaction that logged nothing (a reader, an empty commit, a
  system transaction that lost its lock) ends without a COMMIT/ABORT record and
  without a flush;
* degradation steps run as short system transactions (``system=True``) so they
  serialize against readers through the same lock manager;
* abort-undo is a list of closures the engine registers at operation time —
  the physical undo plus the inverse of the change to derived state; the
  transaction's table lock keeps degradation off the rows until they have run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..core.errors import DurabilityError, TransactionError
from ..storage.wal import LogRecordType, WriteAheadLog
from .locks import LockManager, LockMode


class TransactionState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: An undo action registered by the engine; called in reverse order on abort.
UndoAction = Callable[[], None]


@dataclass
class Transaction:
    """One transaction's book-keeping."""

    txn_id: int
    system: bool = False
    state: TransactionState = TransactionState.ACTIVE
    undo_actions: List[UndoAction] = field(default_factory=list)
    started_at: float = 0.0

    def require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    def on_abort(self, action: UndoAction) -> None:
        """Register an undo action (engine-level logical undo)."""
        self.require_active()
        self.undo_actions.append(action)


@dataclass
class TransactionStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    system_begun: int = 0
    reader_degrader_conflicts: int = 0
    #: Aborts whose ABORT record could not be made durable (the abort itself
    #: still completed in memory; recovery undoes the loser from the log).
    abort_flush_failures: int = 0
    #: Aborts where an undo action hit the failing storage device.  The abort
    #: still completes (locks released, transaction deregistered) — recovery
    #: discards any transaction without a durable COMMIT — but the in-memory
    #: image may be stale until :meth:`InstantDB.recover` rebuilds it.
    undo_failures: int = 0


class TransactionManager:
    """Creates transactions, drives commit/abort, and owns the lock manager."""

    def __init__(self, wal: WriteAheadLog, lock_manager: Optional[LockManager] = None) -> None:
        self.wal = wal
        self.locks = lock_manager or LockManager()
        self._next_txn_id = 1
        self._active: Dict[int, Transaction] = {}
        self.stats = TransactionStats()
        #: Engine hook: called with the :class:`DurabilityError` when an undo
        #: action fails during abort, after the abort's bookkeeping completed.
        #: The engine uses it to flip into read-only degraded mode.
        self.on_undo_failure: Optional[Callable[[DurabilityError], None]] = None

    # -- lifecycle -----------------------------------------------------------

    def begin(self, system: bool = False, now: float = 0.0) -> Transaction:
        txn = Transaction(txn_id=self._next_txn_id, system=system, started_at=now)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        self.wal.begin(txn.txn_id, timestamp=now)   # BEGIN itself is lazy
        self.stats.begun += 1
        if system:
            self.stats.system_begun += 1
        return txn

    def commit(self, txn: Transaction, now: float = 0.0) -> None:
        txn.require_active()
        if not self.wal.end_unlogged(txn.txn_id):
            self.wal.append(LogRecordType.COMMIT, txn.txn_id, timestamp=now)
            self.wal.flush()
        txn.state = TransactionState.COMMITTED
        txn.undo_actions.clear()
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self.stats.committed += 1

    def abort(self, txn: Transaction, now: float = 0.0,
              reason: str = "explicit rollback") -> None:
        if txn.state is TransactionState.ABORTED:
            return
        txn.require_active()
        undo_failure: Optional[DurabilityError] = None
        for action in reversed(txn.undo_actions):
            try:
                action()
            except DurabilityError as exc:
                # The physical undo hit the failing device.  Keep going and
                # finish the abort's bookkeeping regardless: bailing out here
                # would leak this transaction's locks and wedge the engine,
                # while recovery discards every transaction without a durable
                # COMMIT, so the on-disk truth is safe either way.  The engine
                # is told (via ``on_undo_failure``) so it degrades to
                # read-only until ``recover()`` rebuilds the in-memory image.
                if undo_failure is None:
                    undo_failure = exc
                self.stats.undo_failures += 1
        txn.undo_actions.clear()
        if not self.wal.end_unlogged(txn.txn_id):
            self.wal.append(LogRecordType.ABORT, txn.txn_id, timestamp=now)
            try:
                self.wal.flush()
            except DurabilityError:
                # The abort must complete even when the log device is
                # failing: recovery treats any transaction without a durable
                # COMMIT as a loser and undoes it, so a lost ABORT record
                # costs nothing, while bailing out here would leak this
                # transaction's locks and wedge the engine.  The ABORT record
                # stays buffered and rides the next healthy flush.
                self.stats.abort_flush_failures += 1
        txn.state = TransactionState.ABORTED
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self.stats.aborted += 1
        if undo_failure is not None and self.on_undo_failure is not None:
            self.on_undo_failure(undo_failure)

    def resume_after(self, txn_id: int) -> None:
        """Ensure future transaction ids are greater than ``txn_id``.

        Called by recovery after reopening a WAL: a fresh manager restarts its
        id counter at 1, and reusing an id that appears in the recovered log
        would make an old loser transaction look committed to the *next*
        recovery pass.
        """
        self._next_txn_id = max(self._next_txn_id, int(txn_id) + 1)

    # -- locking helpers --------------------------------------------------------

    def lock_shared(self, txn: Transaction, resource: Any) -> bool:
        txn.require_active()
        return self.locks.acquire(txn.txn_id, resource, LockMode.SHARED)

    def lock_exclusive(self, txn: Transaction, resource: Any) -> bool:
        txn.require_active()
        return self.locks.acquire(txn.txn_id, resource, LockMode.EXCLUSIVE)

    def note_reader_degrader_conflict(self) -> None:
        """Called by the engine when a degradation step had to wait for a reader
        (or vice versa) — the C1 benchmark's conflict counter."""
        self.stats.reader_degrader_conflicts += 1

    # -- introspection -------------------------------------------------------------

    def is_active(self, txn_id: int) -> bool:
        return txn_id in self._active


__all__ = ["Transaction", "TransactionManager", "TransactionState",
           "TransactionStats", "UndoAction"]
