"""The InstantDB engine facade.

:class:`InstantDB` wires every substrate together — clock, storage, indexes,
transactions, degradation scheduler/daemon, SQL front-end — behind the small
public API the paper implies:

* register generalization domains and life cycle policies;
* ``CREATE TABLE`` with ``DEGRADABLE DOMAIN ... POLICY ...`` columns;
* ``INSERT`` (always in the most accurate state);
* ``DECLARE PURPOSE ... SET ACCURACY LEVEL ...`` and purpose-bound ``SELECT``;
* advance (simulated) time, which fires the degradation daemon so that tuples
  traverse their life cycle policy and eventually disappear.

Example
-------
>>> from repro import InstantDB, AttributeLCP
>>> from repro.core.domains import build_location_tree
>>> db = InstantDB()
>>> gt = db.register_domain(build_location_tree())
>>> _ = db.register_policy(AttributeLCP(gt, transitions=["1 h", "1 day", "1 month", "3 months"],
...                                     name="location_lcp"))
>>> db.execute("CREATE TABLE person (id INT PRIMARY KEY, name TEXT, "
...            "location TEXT DEGRADABLE DOMAIN location POLICY location_lcp)")
>>> db.execute("INSERT INTO person VALUES (1, 'alice', '1 Main Street, Paris')")
1
>>> _ = db.advance_time(hours=2)      # the address degrades to city level
>>> _ = db.execute("DECLARE PURPOSE stats SET ACCURACY LEVEL city FOR person.location")
>>> db.execute("SELECT location FROM person", purpose="stats").rows
[('Paris',)]
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import Any, ContextManager, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.clock import Clock, SimulatedClock, make_clock
from ..core.errors import (
    CatalogError,
    ConfigurationError,
    DeadlockError,
    DurabilityError,
    ExecutionError,
    NotSupportedError,
    PolicyError,
    ReadOnlyModeError,
    TransactionAborted,
)
from ..faults import FaultPlan
from ..core.generalization import GeneralizationScheme
from ..core.lcp import AttributeLCP
from ..core.policy import AccuracyRequirement, Purpose, TablePolicy
from ..core.scheduler import DegradationScheduler, DegradationStep
from ..core.schema import TableSchema
from ..devtools import invariants
from ..query import ast_nodes as ast
from ..query.catalog import Catalog, IndexInfo, TableInfo
from ..query.executor import Executor, QueryResult, draining
from ..query.parameters import InsertSources
from ..query.planner import PhysicalPlan, Planner, bind_physical_plan
from ..query.prepared import PreparedStatement, StatementCache, query_of
from ..storage.buffer import BufferPool
from ..storage.crypto import KeyStore
from ..storage.degradable_store import DegradeChunk, RowBatch, StoredRow, TableStore
from ..storage.pager import open_pager
from ..storage.wal import LogRecordType, WriteAheadLog, encode_page_directory
from ..txn.recovery import RecoveryManager, RecoveryReport
from ..txn.transaction import Transaction, TransactionManager
from . import ddl
from .catalog_io import (
    encode_catalog,
    latest_catalog_snapshot,
    restore_catalog,
    snapshot_catalog,
)
from .daemon import DegradationDaemon

#: Back-off applied when a degradation step hits a lock conflict.
_CONFLICT_RETRY_SECONDS = 1.0


def _row_keys(step: DegradationStep) -> List[int]:
    """The row keys of the engine record ids ``(table, row_key)`` a step covers."""
    return [record_id[1] for record_id in step.record_ids]


def _batches(rows: Iterable[StoredRow], size: int = 1024) -> Iterator[List[StoredRow]]:
    """``rows`` (a table scan) in batches of a bounded size."""
    rows = iter(rows)
    while batch := list(islice(rows, size)):
        yield batch


@dataclass
class EngineRecovery:
    """Outcome of :meth:`InstantDB.recover` (asserted on by crash tests)."""

    #: Data recovery summary (redo/undo counts, winner/loser transactions).
    recovery: RecoveryReport
    #: Live registrations after the schedule was derived from the heap.
    registrations: int = 0
    #: Steps that had come due while the process was down and were applied by
    #: the catch-up drain (batched through the normal pipeline).
    overdue_steps_applied: int = 0
    #: Time the engine recovered to (simulated clocks are fast-forwarded to
    #: the last timestamp the log proves had been reached).
    recovered_to: float = 0.0


@dataclass
class EngineStats:
    """Engine-level counters exposed to benchmarks and tests."""

    statements_executed: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    rows_updated: int = 0
    rows_removed_by_policy: int = 0
    degradation_steps_applied: int = 0
    degradation_conflicts: int = 0
    checkpoints: int = 0
    #: Durability-critical I/O failures observed (each one flips — or finds —
    #: the engine in read-only degraded mode, except daemon wave faults which
    #: retry instead).
    durability_failures: int = 0
    #: Degradation waves pushed back by a transient durability fault.
    degradation_waves_faulted: int = 0


class InstantDB:
    """A data-degradation-aware database engine (the paper's InstantDB)."""

    def __init__(self, clock: Union[str, Clock] = "simulated",
                 strategy: str = "rewrite",
                 page_size: int = 4096,
                 buffer_capacity: int = 256,
                 data_dir: Optional[str] = None,
                 deterministic_crypto: bool = True,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if strategy == "crypto" and data_dir is not None:
            raise ConfigurationError("strategy='crypto' keeps its keys in memory only: an engine "
                                     "with a data_dir could not decrypt its rows after a restart")
        self.clock: Clock = make_clock(clock) if isinstance(clock, str) else clock
        self.strategy = strategy
        #: Optional fault-injection schedule threaded through every I/O seam
        #: (WAL flush/scrub, pager sync, simulated-clock skips); ``None``
        #: (the default) compiles every hook down to a no-op branch.
        self.faults = fault_plan
        if fault_plan is not None and isinstance(self.clock, SimulatedClock):
            self.clock.faults = fault_plan
        pager_path = None
        wal_path = None
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            pager_path = os.path.join(data_dir, "pages.db")
            wal_path = os.path.join(data_dir, "wal")
        self.pager = open_pager(pager_path, page_size=page_size,
                                faults=fault_plan)
        self.wal = WriteAheadLog(wal_path, faults=fault_plan)
        self.buffer_pool = BufferPool(self.pager, capacity=buffer_capacity, wal=self.wal)
        self.keystore = KeyStore(deterministic_seed=b"instantdb" if deterministic_crypto else None)
        self.catalog = Catalog()
        self.registry = self.catalog.registry
        #: Incrementally maintained table statistics (row counts, NDV,
        #: min/max, value frequencies) driving cost-based access paths.
        self.statistics = self.catalog.statistics
        self.transactions = TransactionManager(self.wal)
        # An abort whose undo hit the failing device leaves the in-memory
        # image possibly stale; degrade until recover() rebuilds it from disk.
        self.transactions.on_undo_failure = (
            lambda exc: self._enter_read_only(f"undo failure: {exc}"))
        self.scheduler = DegradationScheduler()
        self.stores: Dict[str, TableStore] = {}
        self.executor = Executor(self.catalog, self._store_for)
        self.planner = Planner(self.catalog)
        self.statements = StatementCache(capacity=256)
        self.daemon = DegradationDaemon(
            self.clock, self.scheduler, applier=self._apply_degradation_batch)
        self.stats = EngineStats()
        #: Why the engine is in read-only degraded mode (``None`` = writable).
        self._read_only_reason: Optional[str] = None
        #: DDL state changed since the last CATALOG record was logged.
        self._catalog_dirty = False
        #: Sticky: a registered scheme has no structural serialization
        #: (custom subclass) — catalog logging is off and reopening falls
        #: back to the legacy protocol (re-run DDL, then recover()).
        self._catalog_unserializable = False
        #: Per-table consecutive durability-fault count driving the
        #: exponential retry backoff of degradation waves.
        self._fault_backoff: Dict[str, int] = {}

    # ------------------------------------------------------------------ degraded mode

    @property
    def read_only(self) -> bool:
        """True while the engine is in read-only degraded mode."""
        return self._read_only_reason is not None

    @property
    def read_only_reason(self) -> Optional[str]:
        return self._read_only_reason

    def _require_writable(self) -> None:
        if self._read_only_reason is not None:
            raise ReadOnlyModeError(
                "engine is in read-only degraded mode after a durability "
                f"failure ({self._read_only_reason}); reads still work — "
                "reopen the database and recover() to resume writes"
            )

    def _enter_read_only(self, reason: str) -> None:
        """Flip into read-only degraded mode (sticky until :meth:`recover`).

        The WAL refused to make some write durable, so the safe reaction is
        to stop accepting new writes: everything already committed is durable,
        the failed transaction is aborted, and the heap can never diverge
        from what the log proves.
        """
        self.stats.durability_failures += 1
        if self._read_only_reason is None:
            self._read_only_reason = reason

    def _on_durability_failure(self, txn: Transaction, exc: DurabilityError) -> None:
        """Commit-path durability failure: degrade the engine, abort cleanly.

        The commit flush failed *before* the transaction was marked committed,
        so aborting runs its undo actions and the in-memory state matches the
        on-disk log (which holds no durable COMMIT for it).  The abort's own
        flush failure is tolerated by the transaction manager.
        """
        self._enter_read_only(str(exc))
        if self.transactions.is_active(txn.txn_id):
            self.transactions.abort(txn, now=self.clock.now(),
                                    reason=f"durability failure: {exc}")

    def _commit_txn(self, txn: Transaction) -> None:
        """Commit ``txn``, logging pending DDL state and handling I/O faults."""
        now = self.clock.now()
        self._append_catalog_if_dirty(now, txn_id=txn.txn_id)
        try:
            self.transactions.commit(txn, now=now)
        except DurabilityError as exc:
            self._on_durability_failure(txn, exc)
            raise

    def _flush_wal(self) -> None:
        """Flush the WAL outside a commit, degrading the engine on failure."""
        try:
            self.wal.flush()
        except DurabilityError as exc:
            self._enter_read_only(str(exc))
            raise

    def _append_catalog_if_dirty(self, now: float, txn_id: int = 0) -> None:
        """Log a CATALOG record when DDL state changed since the last one.

        Appended (buffered) just before a commit's or a rollback's flush, so
        catalog changes are durable before any record naming their tables is.
        It is logged under the ending transaction's id: a commit that is
        otherwise read-only (``CREATE TABLE`` then ``commit()``) thereby has a
        record of its own and still flushes.  Recovery restores the last
        CATALOG record whatever its transaction's fate (DDL is not transactional).
        :meth:`checkpoint` logs one when it truncates, so truncation keeps one.
        """
        if not self._catalog_dirty:
            return
        payload = self._encode_catalog_snapshot()
        self._catalog_dirty = False
        if payload is not None:
            self.wal.append(LogRecordType.CATALOG, txn_id, after=payload, timestamp=now)

    def _encode_catalog_snapshot(self) -> Optional[bytes]:
        """The encoded catalog document, or ``None`` when some registered
        scheme is a custom subclass without a structural serialization — the
        engine then simply never logs CATALOG records and reopening uses the
        legacy protocol (caller re-runs DDL before :meth:`recover`)."""
        if self._catalog_unserializable:
            return None
        try:
            return encode_catalog(snapshot_catalog(self))
        except CatalogError:
            self._catalog_unserializable = True
            return None

    # ------------------------------------------------------------------ domains

    def register_domain(self, scheme: GeneralizationScheme,
                        name: Optional[str] = None) -> GeneralizationScheme:
        """Register a generalization scheme under ``name`` (defaults to its own)."""
        registered = self.registry.register_domain(scheme, name=name)
        self._catalog_dirty = True
        return registered

    def register_policy(self, policy: Optional[AttributeLCP] = None, *,
                        domain: Optional[str] = None,
                        transitions: Optional[Sequence[Any]] = None,
                        states: Optional[Sequence[int]] = None,
                        name: Optional[str] = None) -> AttributeLCP:
        """Register an attribute LCP, either prebuilt or described inline.

        ``register_policy(domain="location", transitions=["1 h", "1 day"], states=[0, 1, 4])``
        builds the policy over the registered domain.
        """
        if policy is None:
            if domain is None or transitions is None:
                raise ConfigurationError(
                    "register_policy needs either a prebuilt AttributeLCP or "
                    "domain= and transitions="
                )
            scheme = self.registry.domain(domain)
            policy = AttributeLCP(scheme, states=states, transitions=transitions,
                                  name=name or f"{domain}_lcp")
        registered = self.registry.register_policy(policy, name=name)
        self._catalog_dirty = True
        return registered

    def define_purpose(self, purpose: Purpose) -> Purpose:
        """Register a purpose built through the Python API."""
        added = self.catalog.add_purpose(purpose)
        self._catalog_dirty = True
        return added

    def purpose(self, name: str) -> Purpose:
        return self.catalog.purpose(name)

    # ------------------------------------------------------------------ tables

    def create_table(self, schema: TableSchema, remove_on_final: bool = True,
                     selector_column: Optional[str] = None) -> TableStore:
        """Create a table from a Python :class:`TableSchema`."""
        self._require_writable()
        policy = ddl.build_table_policy(schema, self.registry,
                                        remove_on_final=remove_on_final)
        if policy is not None and selector_column is not None:
            policy.selector_column = selector_column.lower()
        store = self._attach_recovered_table(schema, policy)
        self._catalog_dirty = True
        return store

    def _attach_recovered_table(self, schema: TableSchema,
                                policy: Optional[TablePolicy]) -> TableStore:
        """Wire a table's runtime objects without marking the catalog dirty
        (shared by :meth:`create_table` and catalog restore on recovery)."""
        self.catalog.add_table(schema, policy)
        store = TableStore(schema, self.buffer_pool, self.wal,
                           keystore=self.keystore, strategy=self.strategy)
        self.stores[schema.name] = store
        if schema.primary_key is not None:
            # The implicit primary-key index: derived from the schema on
            # every attach and never written to the CATALOG record, so a
            # directory created before it existed gets it on reopen.  From
            # here on it is an ordinary entry of ``info.indexes``.
            self._attach_recovered_index(schema.name, f"pk_{schema.name}",
                                         schema.primary_key, "hash",
                                         implicit=True)
        return store

    def _attach_recovered_index(self, table: str, name: str, column: str,
                                method: str, implicit: bool = False) -> IndexInfo:
        """Create an index structure from its catalog metadata.

        The structure starts empty: :meth:`create_index` lets it catch up on
        the stored rows, :meth:`_rebuild_indexes` fills it from the recovered
        heap later in the recovery sequence.
        """
        info = self.catalog.table(table)
        statement = ast.CreateIndex(name=name, table=table, column=column,
                                    method=method)
        index_info = IndexInfo(
            name=name, table=info.name, column=column.lower(),
            method=method.lower(), implicit=implicit,
            index=ddl.build_index(statement, info.schema, self.registry))
        self.catalog.add_index(index_info)
        return index_info

    def table_store(self, name: str) -> TableStore:
        return self._store_for(name)

    def table_policy(self, name: str) -> Optional[TablePolicy]:
        return self.catalog.table(name).policy

    def register_user_policy(self, table: str, selector_value: Any,
                             policies: Dict[str, AttributeLCP]) -> None:
        """Per-tuple policy override (the paper's "paranoid user" extension).

        The selector is stable: its column exists and does not degrade (nor
        may an UPDATE assign it), and no live row holds ``selector_value``
        yet — so a row follows the policy its selector picked at insertion
        for life, and recovery finds that policy again from the row."""
        info = self.catalog.table(table)
        policy = info.policy
        if policy is None:
            raise PolicyError(f"table {table!r} has no degradable columns")
        column = policy.selector_column
        if column is not None:
            if not info.schema.has_column(column) or info.schema.column(column).degradable:
                raise PolicyError(f"table {table!r}: selector column {column!r} must be "
                                  "a stable (non-degradable) column")
            if any(row.values[column] == selector_value
                   for row in self._store_for(info.name).scan(frozenset({column}))):
                raise PolicyError(f"table {table!r} already holds rows with "
                                  f"{column} = {selector_value!r}")
        policy.register_override(selector_value, policies)
        self._catalog_dirty = True

    def _store_for(self, table: str) -> TableStore:
        try:
            return self.stores[table.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        return self.clock.now()

    def advance_time(self, seconds: float = 0.0, **units: float) -> float:
        """Advance the simulated clock; the degradation daemon runs automatically."""
        invariants.assert_engine_thread(self)
        if not isinstance(self.clock, SimulatedClock):
            raise ConfigurationError("advance_time requires a simulated clock")
        return self.clock.advance(seconds, **units)

    def fire_event(self, event: str) -> List[DegradationStep]:
        """Fire a named event releasing event-triggered transitions, then run them.

        The firing releases every attribute whose wait on ``event`` began
        by now.  Waits are reckoned in schedule time: a step a lock deferred
        enters its next state at its due time, so a firing between that and
        its application releases it as the step lands — whatever else
        waits.  The firing is logged and flushed *before* the released
        steps run: if the process dies mid-drain, recovery's derived
        schedule releases the same waits at the same time and the unapplied
        steps come back overdue.  An event no table's policy mentions
        releases nothing, so it skips the log record and its fsync entirely.
        """
        now = self.clock.now()
        if any(info.policy is not None and info.policy.mentions(event)
               for info in self.catalog.tables()):
            self._require_writable()
            self.wal.append(LogRecordType.SCHED_EVENT, 0, attribute=event,
                            timestamp=now)
            self._flush_wal()
            self.scheduler.fire_event(event, now)
        return self.daemon.run_pending(now)

    # ------------------------------------------------------------------ transactions

    def begin(self) -> Transaction:
        """Start an explicit user transaction."""
        invariants.assert_engine_thread(self)
        return self.transactions.begin(now=self.clock.now())

    def commit(self, txn: Transaction) -> None:
        invariants.assert_engine_thread(self)
        self._commit_txn(txn)

    def rollback(self, txn: Transaction) -> None:
        invariants.assert_engine_thread(self)
        self._append_catalog_if_dirty(self.clock.now(), txn_id=txn.txn_id)
        self.transactions.abort(txn, now=self.clock.now())

    def _transaction(self, txn: Optional[Transaction], *tables: str,
                     exclusive: bool = False) -> ContextManager[Transaction]:
        """The transaction a statement runs in, holding locks on ``tables``:
        the caller's ``txn``, passed through untouched (its owner ends it),
        or one of the statement's own.  A lock another transaction holds
        aborts either kind."""
        if txn is None:
            return self._own_transaction(tables, exclusive)
        self._locked(txn, tables, exclusive)
        return nullcontext(txn)

    @contextmanager
    def _own_transaction(self, tables: Sequence[str],
                         exclusive: bool) -> Iterator[Transaction]:
        """Begun here, aborted if taking a lock or the body raises, committed
        through :meth:`_commit_txn` when the body returns."""
        active = self.transactions.begin(now=self.clock.now())
        try:
            self._locked(active, tables, exclusive)
            yield active
        except BaseException:
            if self.transactions.is_active(active.txn_id):
                self.rollback(active)
            raise
        self._commit_txn(active)

    def _locked(self, txn: Transaction, tables: Sequence[str], exclusive: bool) -> None:
        lock = (self.transactions.lock_exclusive if exclusive
                else self.transactions.lock_shared)
        for table in tables:
            if not lock(txn, table):
                self.transactions.abort(txn, now=self.clock.now(), reason="lock conflict")
                raise TransactionAborted(
                    f"transaction {txn.txn_id} blocked on table {table!r} "
                    "(held by a concurrent transaction)"
                )

    # ------------------------------------------------------------------ SQL entry point

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once and cache it keyed on its exact text.

        The returned :class:`PreparedStatement` can be bound with qmark
        (``?``) parameters arbitrarily many times; parameter-free SELECTs
        also reuse their query plan across executions.
        """
        return self.statements.get_or_parse(sql)

    def execute(self, sql: str, purpose: Union[None, str, Purpose] = None,
                txn: Optional[Transaction] = None,
                params: Optional[Sequence[Any]] = None,
                stream: bool = False) -> Any:
        """Execute one SQL statement, optionally binding qmark parameters.

        The engine's statement entry: both PEP 249 drivers
        (:func:`repro.connect`, :mod:`repro.client`) send every statement
        through it via their :class:`~repro.api.session.EngineSession`, which
        adds the implicit transaction; called directly it runs the statement
        in a transaction of its own.  Returns a :class:`QueryResult` for
        SELECT/EXPLAIN, the number of affected rows for DML, and ``None`` for
        DDL.  With ``stream=True`` and a caller-supplied ``txn``, SELECTs
        return a lazily-evaluated
        :class:`~repro.query.operators.StreamingResult` instead (the cursor
        path — rows are computed as they are fetched).
        """
        prepared = self.prepare(sql)
        prepared.executions += 1
        return self.execute_statement(prepared, params, purpose=purpose,
                                      txn=txn, stream=stream)

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]],
                    purpose: Union[None, str, Purpose] = None,
                    txn: Optional[Transaction] = None) -> int:
        """Execute ``sql`` once per parameter sequence inside one transaction.

        The statement is parsed (and, when applicable, planned) exactly once
        and the batch pays one lock acquisition and one durable WAL flush.  An
        INSERT's parameter sequences bind straight to value rows and the
        whole batch is one insert (:meth:`_insert`): its rows enter the store,
        the log and the schedule together.  Returns the total number of
        affected rows; a query is refused (a batch has no result set).
        """
        invariants.assert_engine_thread(self)
        prepared = self.prepare(sql)
        statement = prepared.statement
        if isinstance(statement, (ast.Select, ast.Explain)):
            raise NotSupportedError("executemany() cannot produce result sets; "
                                    "use execute() for queries")
        if isinstance(statement, ast.Insert):
            rows = list(seq_of_params)
            prepared.executions += len(rows)
            self.stats.statements_executed += len(rows)
            return self._execute_insert(prepared, rows, txn) if rows else 0
        total = 0
        with self._transaction(txn) as active:
            for params in seq_of_params:
                prepared.executions += 1
                result = self.execute_statement(prepared, params,
                                                purpose=purpose, txn=active)
                if isinstance(result, int):
                    total += result
        return total

    def execute_statement(self, prepared: PreparedStatement,
                          params: Optional[Sequence[Any]] = None,
                          purpose: Union[None, str, Purpose] = None,
                          txn: Optional[Transaction] = None,
                          stream: bool = False) -> Any:
        """One execution of a prepared statement.  The statement and its
        parameters travel together: only an INSERT (and what cannot be
        served from a plan template, see :meth:`_plan`) has its AST rebuilt
        with the values substituted."""
        invariants.assert_engine_thread(self)
        self.stats.statements_executed += 1
        resolved = self._resolve_purpose(purpose)
        statement = prepared.statement
        if isinstance(statement, ast.Insert):
            return self._execute_insert(prepared, [() if params is None else params], txn)
        params = prepared.checked(params)
        if isinstance(statement, ast.Select):
            return self._execute_select(prepared, params, resolved, txn, stream)
        if isinstance(statement, ast.Update):
            return self._execute_update(prepared, params, resolved, txn)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(prepared, params, resolved, txn)
        if isinstance(statement, ast.Explain):
            return self._execute_explain(prepared.bind(params), resolved, txn)
        if isinstance(statement, ast.CreateTable):
            schema = ddl.build_schema(statement, self.registry)
            self.create_table(schema)
            return None
        if isinstance(statement, ast.CreateIndex):
            self.create_index(statement.name, statement.table,
                              statement.column, statement.method)
            return None
        if isinstance(statement, ast.DropTable):
            self._execute_drop_table(statement)
            return None
        if isinstance(statement, ast.DeclarePurpose):
            return self._execute_declare_purpose(statement)
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    def _resolve_purpose(self, purpose: Union[None, str, Purpose]) -> Optional[Purpose]:
        if purpose is None or isinstance(purpose, Purpose):
            return purpose
        return self.catalog.purpose(purpose)

    def _purpose_is_canonical(self, purpose: Optional[Purpose]) -> bool:
        """Whether cached plans may be keyed on this purpose.

        Plans are cached per purpose *name*, so only the purpose object the
        catalog itself resolves that name to is eligible; an ad-hoc
        :class:`Purpose` instance passed directly to ``execute`` may demand
        different accuracy levels under the same name and must be re-planned.
        """
        if purpose is None:
            return True
        return self.catalog.has_purpose(purpose.name) and \
            self.catalog.purpose(purpose.name) is purpose

    # ------------------------------------------------------------------ SELECT / EXPLAIN

    def _plan(self, prepared: PreparedStatement, params: Tuple[Any, ...],
              purpose: Optional[Purpose]) -> PhysicalPlan:
        """The physical plan of one execution of a SELECT — or of the row
        match of an UPDATE/DELETE, which is a query like any other
        (:func:`~repro.query.prepared.query_of`).

        The statement's template — planned once with its placeholders in
        place — is looked up per (purpose, catalog version, statistics epoch,
        parameter shape) and this execution's values are bound into a copy;
        a parameter-free template is executed as it is.  The epoch retires
        templates costed under economics a degradation wave (or any large
        statistics shift) has since invalidated.  What cannot be templated —
        an ad-hoc :class:`Purpose` object, a ``None`` parameter, a
        placeholder outside the WHERE clause — is bound into the AST first
        and planned from scratch.
        """
        shape = prepared.plan_shape(params) \
            if self._purpose_is_canonical(purpose) else None
        if shape is None:
            plan, hit = self.planner.plan_physical(
                query_of(prepared.bind(params)), purpose), False
        else:
            plan, hit = prepared.plan(
                (None if purpose is None else purpose.name.lower(),
                 self.catalog.version, self.statistics.epoch(), shape),
                partial(self.planner.plan_physical, prepared.query, purpose))
        stats = self.statements.stats
        stats.plan_hits += hit
        stats.plan_misses += not hit
        # Compilation accounting, mirroring the WAL's payload cache: a plan
        # served from the cache already carries its compiled closures, so
        # re-execution compiles nothing (binding recompiles only the small
        # residual predicate; projection and join-key closures are shared
        # with the template, so the accounting follows the template).
        if plan.is_compiled:
            stats.predicate_compile_hits += 1
        else:
            stats.predicate_compiles += 1
        if shape:
            plan = bind_physical_plan(plan, params, self.catalog)
        return plan

    def _execute_select(self, prepared: PreparedStatement,
                        params: Tuple[Any, ...], purpose: Optional[Purpose],
                        txn: Optional[Transaction], stream: bool) -> Any:
        statement = prepared.statement
        with self._transaction(txn, statement.table,
                               *(clause.table for clause in statement.joins)):
            plan = self._plan(prepared, params, purpose)
            if stream and txn is not None:
                # The caller's transaction keeps the read locks while the
                # cursor drains the pipeline lazily.
                return self.executor.stream_physical(plan)
            return self.executor.execute_physical(plan)

    def _execute_explain(self, statement: ast.Explain,
                         purpose: Optional[Purpose],
                         txn: Optional[Transaction] = None) -> QueryResult:
        inner = statement.statement
        query = query_of(inner)
        if query is None:
            return QueryResult(columns=["plan"],
                               rows=[(f"{type(inner).__name__} statement",)])
        plan = self.planner.plan_physical(query, purpose)
        if query is not inner:
            # The access path DML matches its rows through.  Plan only, also
            # under ANALYZE: explaining must never run the modification.
            lines = [f"{type(inner).__name__} via {plan.base.describe()}"]
            if purpose is not None:
                lines.append(f"  purpose: {purpose.name}")
            lines.extend(self.executor.match_pipeline(plan).explain_lines())
            return QueryResult(columns=["plan"], rows=[(line,) for line in lines])
        _columns, root = self.executor.build(plan)
        if statement.analyze:
            # EXPLAIN ANALYZE: run the pipeline so the rendered tree carries
            # the actual per-operator row counts.  The run takes the same
            # shared locks a plain SELECT would — analyzing must not read
            # past a concurrent writer.
            with self._transaction(txn, inner.table,
                                   *(clause.table for clause in inner.joins)):
                for _run in root.runs(draining):
                    pass
        lines = plan.describe().splitlines()
        lines.extend(root.explain_lines(analyze=statement.analyze))
        return QueryResult(columns=["plan"], rows=[(line,) for line in lines])

    # ------------------------------------------------------------------ INSERT

    def _execute_insert(self, prepared: PreparedStatement, rows: List[Sequence[Any]],
                        txn: Optional[Transaction]) -> int:
        """An INSERT's parameter sequences as one insert: every row or none, one lock, one flush."""
        self._require_writable()
        info = self.catalog.table(prepared.statement.table.lower())
        sources = prepared.insert_sources(info.schema)
        with self._transaction(txn, info.name, exclusive=True) as active:
            self._insert(info, rows, active, sources)
        return len(rows) * len(sources.records)

    def insert_row(self, table: str, row: Any, txn: Optional[Transaction] = None) -> int:
        """Insert one row (Python API); returns the logical row key."""
        self._require_writable()
        info = self.catalog.table(table.lower())
        with self._transaction(txn, info.name, exclusive=True) as active:
            return self._insert(info, [row], active).keys[0]

    def _insert(self, info: TableInfo, rows: Sequence[Any], active: Transaction,
                sources: Optional[InsertSources] = None) -> RowBatch:
        """``rows`` into the table under ``active``, which holds its exclusive
        lock — one batch from store to log to schedule; returns them stored."""
        store = self._store_for(info.name)
        stored = store.insert_many(rows, self.clock.now(), active.txn_id, sources)
        active.on_abort(partial(self._undo_delta, info, store, None, stored))
        self._apply_delta(info, None, stored)
        self.stats.rows_inserted += len(stored)
        return stored

    # ------------------------------------------------------------------ UPDATE / DELETE

    def _execute_update(self, prepared: PreparedStatement,
                        params: Tuple[Any, ...], purpose: Optional[Purpose],
                        txn: Optional[Transaction]) -> int:
        self._require_writable()
        statement = prepared.statement
        # ``SET c = ?`` reads its value by position: no AST is rebuilt.
        assignments = [
            (column, params[value.index]
             if isinstance(value, ast.Placeholder) else value)
            for column, value in statement.assignments]
        table = statement.table.lower()
        info = self.catalog.table(table)
        selector = info.policy.selector_column if info.policy is not None else None
        if selector is not None and any(column == selector for column, _ in assignments):
            raise ExecutionError(f"UPDATE cannot assign {table}.{selector}: it selects "
                                 "the rows' degradation policy")
        store = self._store_for(table)
        with self._transaction(txn, table, exclusive=True) as active:
            before, after = store.update_stable(
                self.executor.matching_rows(self._plan(prepared, params, purpose)),
                assignments, self.clock.now(), txn_id=active.txn_id)
            if after:
                active.on_abort(partial(self._undo_delta, info, store, before, after))
                self._apply_delta(info, before, after)
        self.stats.rows_updated += len(after)
        return len(after)

    def _execute_delete(self, prepared: PreparedStatement,
                        params: Tuple[Any, ...], purpose: Optional[Purpose],
                        txn: Optional[Transaction]) -> int:
        """A secure erase at statement time (:meth:`TableStore.delete` scrubs
        and flushes before it returns): no rollback brings the rows back."""
        self._require_writable()
        table = prepared.statement.table.lower()
        info = self.catalog.table(table)
        store = self._store_for(table)
        with self._transaction(txn, table, exclusive=True) as active:
            count = store.delete(self.executor.matching_rows(
                self._plan(prepared, params, purpose)), self.clock.now(),
                txn_id=active.txn_id, on_rows=partial(self._apply_delta, info))
        self.stats.rows_deleted += count
        return count

    # ------------------------------------------------------------------ DDL helpers

    def create_index(self, name: str, table: str, column: str,
                     method: str = "btree") -> None:
        """``CREATE INDEX`` (and its Python API equivalent)."""
        self._require_writable()
        index_info = self._attach_recovered_index(table, name, column, method)
        self._catalog_dirty = True
        info = self.catalog.table(table)
        for rows in _batches(self._store_for(table).scan()):
            self._apply_delta(info, None, rows, only=index_info)

    def _execute_drop_table(self, statement: ast.DropTable) -> None:
        self._require_writable()
        table = statement.table.lower()
        info = self.catalog.drop_table(table)
        self._catalog_dirty = True
        store = self.stores.pop(table, None)
        if store is not None:
            # Indexes and statistics went with the catalog entry; only the
            # schedule still holds the rows.
            self._apply_delta(info, gone=store.row_keys())
            store.remove_many(store.row_keys(), now=self.clock.now())
        # The TABLE_DROP marker closes the table's log *epoch*: it is written
        # after the drop's own removals so every record up to and including
        # the marker belongs to the dropped incarnation.  Recovery skips
        # those records — whether the name is gone from the catalog or has
        # been re-created since (a fresh table reuses row keys; replaying
        # old-epoch removals against it would delete committed rows).
        self.wal.append(LogRecordType.TABLE_DROP, 0, table=table,
                        timestamp=self.clock.now())
        self._append_catalog_if_dirty(self.clock.now())
        self._flush_wal()

    def _execute_declare_purpose(self, statement: ast.DeclarePurpose) -> Purpose:
        purpose = Purpose(statement.name)
        for clause in statement.clauses:
            purpose.add_requirement(AccuracyRequirement(
                table=clause.table, column=clause.column, level=clause.level
            ))
        added = self.catalog.add_purpose(purpose)
        self._catalog_dirty = True
        return added

    # ------------------------------------------------------------------ derived state

    def _apply_delta(self, info: TableInfo,
                     old: Optional[Sequence[StoredRow]] = None,
                     new: Optional[Sequence[StoredRow]] = None, *,
                     chunk: Optional[DegradeChunk] = None,
                     gone: Optional[Sequence[int]] = None,
                     only: Optional[IndexInfo] = None,
                     schedule: bool = True) -> None:
        """The one way row changes reach what is derived from rows: the
        table's indexes, its statistics and the degradation schedule.

        ``(None, rows)`` enter and ``(rows, None)`` leave, a batch each read
        column by column (:class:`RowBatch`): one call per index, one statistics
        update per column; entering rows join the schedule as one cohort per
        tuple LCP, insertion time and stored levels (a statement's inserts
        are one, a recovered heap's rows enter at the state their levels
        are).  Two batches of images of the same rows move every value that
        differs; undoing a change is the same call with them swapped
        (:meth:`_undo_delta`).  A wave passes each ``chunk`` as the store
        made it: its value transitions, one statistics batch.  ``gone`` are
        keys of rows that left without an image to retract (a dropped
        table's; a row a faulted wave had erased): only the schedule holds
        them.  ``only`` feeds entering rows to one index catching up;
        ``schedule=False`` leaves the schedule to the drain's advance.
        """
        table = info.name
        indexes = info.indexes.values() if only is None else (only,)
        if chunk is not None:
            moves = chunk.transitions.items()
            self.statistics.on_value_changes(table, chunk.column, (
                (before, after, len(row_keys)) for (before, after), row_keys in moves))
            for index_info in indexes:
                if index_info.column == chunk.column:
                    index_info.index.degrade_entries(
                        (old_value, chunk.from_level, new_value, chunk.to_level, row_key)
                        for (old_value, new_value), row_keys in moves
                        for row_key in row_keys)
        elif gone is not None:
            for row_key in gone:
                self.scheduler.cancel((table, row_key))
        elif old is None or new is None:
            batch = RowBatch.of(new if old is None else old)
            keys, columns, levels = batch.keys, batch.columns, batch.levels
            if not keys:
                return
            for index_info in indexes:
                column, index = index_info.column, index_info.index
                (index.insert_many if old is None else index.delete_many)(
                    columns[column], keys, levels.get(column) or repeat(None))
            if only is not None:
                return
            if old is not None:
                self.statistics.on_remove(table, columns, len(keys))
                for row_key in keys if schedule else ():
                    self.scheduler.cancel((table, row_key))
                return
            self.statistics.on_insert(table, columns, len(keys))
            policy = info.policy
            if policy is None or not policy.has_degradable_columns():
                return
            final = policy.final_levels()
            final = tuple(map(final.get, levels)) if final.keys() == levels.keys() else None
            choices = columns.get(policy.selector_column)     # else one tuple LCP for all
            same = None if choices else policy.tuple_lcp()
            cohorts: Dict[tuple, List[Tuple[str, int]]] = {}
            for row_key, choice, inserted_at, stored in zip(
                    keys, choices or repeat(None), batch.inserted_at, zip(*levels.values())):
                if stored != final:     # (a final row is not tracked)
                    cohorts.setdefault((same or policy.tuple_lcp(choice), inserted_at, stored),
                                       []).append((table, row_key))
            for (tuple_lcp, inserted_at, stored), record_ids in cohorts.items():
                self.scheduler.register_many(record_ids, tuple_lcp, inserted_at,
                                             dict(zip(levels, stored)))
        else:
            for before_row, after_row in zip(old, new):
                for column, value in after_row.values.items():
                    before = before_row.values[column]
                    if before == value:
                        continue
                    self.statistics.on_value_changes(table, column, ((before, value, 1),))
                    for index_info in indexes:
                        if index_info.column == column:
                            index_info.index.update(before, value, before_row.row_key,
                                                    before_row.levels.get(column))

    def _undo_delta(self, info: TableInfo, store: TableStore,
                    old: Optional[List[StoredRow]], new: List[StoredRow]) -> None:
        """Abort-undo of the change ``old → new`` (batches): the physical
        undo as one batch, then the inverse delta through the same fan-out.
        Either physical undo logs itself under system transaction 0 (a
        ``DELTA`` of −1 entries; of −1/+1 pairs back to the before images),
        which recovery always redoes.  A row the transaction went on to ``DELETE`` stays erased."""
        kept = [store.exists(row.row_key) for row in new]
        new = [row for row, keep in zip(new, kept) if keep]
        if old is None:
            store.remove_many([row.row_key for row in new], now=self.clock.now())
        else:
            old = [row for row, keep in zip(old, kept) if keep]
            store.restore_rows([(row.row_key, store.image(row)) for row in old],
                              now=self.clock.now())
        if new:
            self._apply_delta(info, new, old)

    # ------------------------------------------------------------------ degradation machinery

    def _defer_conflicted(self, steps: List[DegradationStep], txn: Transaction,
                          now: float) -> None:
        """Lock-conflict protocol of a degradation batch: the system
        transaction (which logged nothing) aborts and the steps are re-queued
        at the retry time.  A deferral is not durable: after a crash no
        transaction holds a lock, so a deferred step is simply overdue."""
        until = now + _CONFLICT_RETRY_SECONDS
        self.transactions.abort(txn, now=now, reason="degradation lock conflict")
        self.transactions.note_reader_degrader_conflict()
        self.stats.degradation_conflicts += 1
        for step in steps:
            self.scheduler.defer(step, until)

    def _defer_faulted(self, table: str, steps: List[DegradationStep],
                       txn: Optional[Transaction], now: float) -> None:
        """Transient durability fault in a degradation wave: retry later.

        Unlike a failed user commit (which flips the engine read-only), a
        faulted wave is *re-queued* with per-table exponential backoff — the
        timeliness promise degrades gracefully instead of halting, and the
        retried wave re-applies idempotently (degradation is monotone, and
        any effect the failed wave left on the heap is where recovery's
        derived schedule starts from).  ``txn is None`` means the engine is
        already read-only and no WAL records may be written.
        """
        attempts = self._fault_backoff.get(table, 0)
        self._fault_backoff[table] = attempts + 1
        until = now + _CONFLICT_RETRY_SECONDS * (2 ** min(attempts, 8))
        if txn is not None and self.transactions.is_active(txn.txn_id):
            self.transactions.abort(txn, now=now, reason="degradation durability fault")
        self.daemon.stats.steps_deferred_by_fault += sum(map(len, steps))
        self.stats.degradation_waves_faulted += 1
        for step in steps:
            self.scheduler.defer(step, until)

    def _apply_degradation_batch(self, table: str,
                                 steps: List[DegradationStep]) -> List[DegradationStep]:
        """Apply one table's worth of due steps — cohort steps, each handing
        its row keys to the store as they are — as one batch.

        The whole batch pays one system transaction, one exclusive table lock
        and one durable WAL flush (the commit); the store coalesces page
        writes so each dirty heap page is flushed once and scrubs the WAL in
        a single pass.  On a lock conflict every step of the batch is
        deferred and retried after the conflicting transaction finishes.
        Returns the steps that were applied.
        """
        if self._read_only_reason is not None:
            self._defer_faulted(table, steps, None, self.clock.now())
            return []
        store = self._store_for(table)
        info = self.catalog.table(table)
        live: List[DegradationStep] = []
        items = []
        for step in steps:
            row_keys = _row_keys(step)
            gone = store.missing(row_keys)
            if gone:
                self._apply_delta(info, gone=gone)
                row_keys = [row_key for row_key in row_keys if store.exists(row_key)]
            if row_keys:
                lcp = step.tuple_lcp.attributes[step.attribute]
                live.append(step)
                items.append((row_keys, step.attribute, lcp.scheme,
                              lcp.state_level(step.to_state)))
        if not live:
            return []
        now = self.clock.now()
        txn = self.transactions.begin(system=True, now=now)
        try:
            granted = self.transactions.lock_exclusive(txn, table)
        except DeadlockError:
            granted = False
        if not granted:
            self._defer_conflicted(live, txn, now)
            return []
        try:
            # Indexes and statistics follow the heap even if the wave's log
            # or page I/O fails after the rewrite (a retry finds the rows at
            # their target and has no chunk left to hand over).
            store.degrade_many(items, now, txn_id=txn.txn_id,
                               on_chunk=lambda chunk: self._apply_delta(info, chunk=chunk))
            self._on_records_final(info, store, live, txn, now)
        except DurabilityError:
            self._defer_faulted(table, live, txn, now)
            return []
        except BaseException:
            self.transactions.abort(txn, now=now)
            raise
        try:
            self.transactions.commit(txn, now=now)
        except DurabilityError:
            self._defer_faulted(table, live, txn, now)
            return []
        self._fault_backoff.pop(table, None)
        self.stats.degradation_steps_applied += sum(len(item[0]) for item in items)
        if invariants.enabled():
            self._check_wave(store, live)
        return live

    def _check_wave(self, store: TableStore, steps: List[DegradationStep]) -> None:
        """Armed invariant (docs/invariants.md): every row an applied step
        moves on stores at least the step's target level."""
        for step in steps:
            target = step.tuple_lcp.attributes[step.attribute].state_level(step.to_state)
            moving = [record_id[1] for record_id in self.scheduler.moving(step)]
            for row in store.fetch(iter(moving), frozenset()):
                if row.levels[step.attribute] < target:
                    raise invariants.InvariantViolation(
                        f"{store.schema.name}: row {row.row_key} stores {step.attribute} at "
                        f"level {row.levels[step.attribute]} after its cohort's step to {target}")

    def _on_records_final(self, info: TableInfo, store: TableStore,
                          steps: List[DegradationStep], txn: Transaction,
                          now: float) -> None:
        """The one policy remover, a step of the wave: tuples that ``steps``
        drive into the final state of a ``remove_on_final`` policy leave the
        table inside the wave's system transaction — under its table lock,
        their ``DELTA`` records in its commit flush.  Removal only closes a
        life cycle that ends in full suppression; a partial policy (final
        state = some intermediate level) keeps the degraded tuple."""
        if info.policy is None or not info.policy.remove_on_final:
            return
        finished = self.scheduler.predict_complete(
            [step for step in steps if step.tuple_lcp.fully_suppresses])
        if finished:
            # Read in the removal's own page runs; the drain retires the
            # registrations when it advances ``steps``.
            self.stats.rows_removed_by_policy += store.remove_many(
                [record_id[1] for record_id in finished], now=now,
                txn_id=txn.txn_id,
                on_rows=partial(self._apply_delta, info, schedule=False))

    # ------------------------------------------------------------------ maintenance

    def checkpoint(self, truncate_wal: bool = False) -> None:
        """Flush every table and the WAL; optionally truncate the log prefix.

        The CATALOG anchor (if due) comes first, then the event firings the
        schedule can still need (:meth:`DegradationScheduler.snapshot`),
        logged again as ``SCHED_EVENT`` records, then the CHECKPOINT marker
        with the heap page directory (table → page ids) a reopened database
        finds its pages by.  Truncation keeps from the anchor on.
        """
        self._require_writable()
        now = self.clock.now()
        try:
            for store in self.stores.values():
                store.flush()  # drains each heap's buffer pool to the pager
            self.pager.sync()
        except DurabilityError as exc:
            self._enter_read_only(str(exc))
            raise
        # The catalog snapshot is appended FIRST: truncation keeps from this
        # record on, so the log always carries the DDL state a bare recover()
        # needs; a checkpoint that drops nothing appends one only if the
        # catalog is dirty (the log holds the last).  Engines with
        # unserializable custom schemes skip it and keep the legacy re-run-DDL
        # reopen protocol; truncation then anchors on what follows.  The anchor
        # opens a log segment of its own, so truncating up to it unlinks whole segments.
        self.wal.roll()
        anchor = None
        payload = self._encode_catalog_snapshot() if truncate_wal or self._catalog_dirty else None
        if payload is not None:
            anchor = self.wal.append(LogRecordType.CATALOG, 0, after=payload,
                                     timestamp=now)
        self._catalog_dirty = False
        for event, fired_at in self.scheduler.snapshot():
            record = self.wal.append(LogRecordType.SCHED_EVENT, 0, attribute=event,
                                     timestamp=fired_at)
            anchor = anchor or record
        marker = self.wal.append(
            LogRecordType.CHECKPOINT, txn_id=0,
            after=encode_page_directory({
                table: store.heap.page_ids()
                for table, store in self.stores.items()
            }),
            timestamp=now,
        )
        anchor = anchor or marker
        self._flush_wal()
        if truncate_wal:
            # Keep the catalog snapshot, the firings and the marker behind
            # it, and what undoes an open transaction's rows.
            keep = next((record.lsn for record in self.wal
                         if self.transactions.is_active(record.txn_id)), anchor.lsn)
            try:
                self.wal.truncate_until(min(keep, anchor.lsn) - 1)
            except DurabilityError as exc:
                self._enter_read_only(str(exc))
                raise
        self.stats.checkpoints += 1

    def close(self) -> None:
        """Clean shutdown: checkpoint, flush the WAL and release the pager.

        In read-only degraded mode the checkpoint is skipped (it would write)
        and a failing final WAL flush is tolerated — everything durably
        committed is already on disk, and the next recover() replays the rest.
        """
        invariants.assert_engine_thread(self)
        if self._read_only_reason is None:
            try:
                self.checkpoint()
            except DurabilityError:  # reprolint: disable=no-swallowed-io-error -- close() must release the WAL and pager even when the final checkpoint hits the failing device; the engine is read-only now and recover() replays what the checkpoint could not flush
                pass
        try:
            self.wal.close()
        except DurabilityError as exc:
            self._enter_read_only(str(exc))
        self.pager.close()

    # ------------------------------------------------------------------ recovery

    def recover(self, drain: bool = True) -> EngineRecovery:
        """Recover data *and* the degradation schedule from the WAL.

        A true one-call reopen: the catalog itself is restored from the last
        ``CATALOG`` record in the log (domains, policies, tables, purposes,
        indexes, per-tuple overrides), so callers no longer re-run DDL before
        recovering.  Callers that *did* re-register their DDL (the historic
        protocol) are still supported — a non-empty catalog skips the
        restore.  Recovery also clears read-only degraded mode: the log on
        disk is the recovered truth, so writes may resume.  Phases:

        0. catalog restore from the last CATALOG record (when needed);
        1. classic redo/undo over the table stores
           (:class:`~repro.txn.recovery.RecoveryManager`);
        2. derived state — indexes, statistics and the schedule — from one
           scan of the recovered heap: every live row joins the schedule at
           the state its stored levels are, under the policy its selector
           picks, with the logged event firings as the only other input;
        3. a simulated clock is fast-forwarded to the latest timestamp the
           log proves had been reached (a wall clock moved on by itself);
        4. with ``drain=True`` (default), every step that came due while the
           process was down is applied immediately through the normal batched
           pipeline — the paper's timeliness promise, restored across
           restarts.
        """
        if not self.catalog.tables() and not self.registry.domains():
            snapshot = latest_catalog_snapshot(self.wal)
            if snapshot is not None:
                restore_catalog(self, snapshot)
        manager = RecoveryManager(self.wal, dict(self.stores))
        report = manager.recover()
        last_timestamp = 0.0
        max_txn_id = 0
        for record in self.wal:
            last_timestamp = max(last_timestamp, record.timestamp)
            max_txn_id = max(max_txn_id, record.txn_id)
        # Never reuse a transaction id that appears in the recovered log: a
        # fresh id counter colliding with an old loser would make that loser
        # look committed to the next recovery pass.
        self.transactions.resume_after(max_txn_id)
        # Indexes and the schedule were built against stores that were still
        # empty (or are stale); derive them from the recovered rows before
        # anything (the catch-up drain included) queries or maintains them.
        for event, fired_at in manager.firings:
            self.scheduler.fire_event(event, fired_at)
        finished = self._rebuild_indexes()
        was_enabled = self.daemon.enabled
        self.daemon.pause()
        try:
            if isinstance(self.clock, SimulatedClock) and \
                    self.clock.now() < last_timestamp:
                self.clock.advance_to(last_timestamp)
        finally:
            if was_enabled:
                self.daemon.resume()
        # Recovery re-establishes the log as the single source of truth, so
        # read-only degraded mode (and any fault backoff) ends here.
        self._read_only_reason = None
        self._fault_backoff.clear()
        # A crash between a wave's last step and its removal leaves tuples
        # fully suppressed on the heap: finish the removal the wave began.
        for info, row_keys in finished:
            self.stats.rows_removed_by_policy += self._store_for(info.name).remove_many(
                row_keys, now=self.clock.now(), on_rows=partial(self._apply_delta, info))
        applied: List[DegradationStep] = []
        if drain:
            applied = self.daemon.catch_up(self.clock.now())
        # Make recovery's own log writes durable (redo may allocate heap
        # pages and append PAGE_ALLOC records; losing them to a crash before
        # the next commit would orphan pages that still hold accurate rows).
        self._flush_wal()
        return EngineRecovery(
            recovery=report,
            registrations=self.scheduler.registered_count(),
            overdue_steps_applied=sum(map(len, applied)),
            recovered_to=self.clock.now(),
        )

    def _rebuild_indexes(self) -> List[Tuple[TableInfo, List[int]]]:
        """Repopulate every catalog index, the table statistics and the
        degradation schedule from the recovered stores.

        Each index structure is re-instantiated (in place on its
        :class:`IndexInfo`, so cached plans keep working) and refilled with
        one scan per table; the same scan rebuilds the table's statistics
        exactly and registers its rows with the scheduler, cleared first.
        The WAL cannot replay statistics: the accurate value images
        degradation scrubbed are gone by design, so the recovered heap is the
        only source.  Returns, per table, the rows a removing life cycle has
        finished with: the scheduler leaves a final row untracked, and one
        that is fully suppressed under ``remove_on_final`` is where a crash
        between a wave's last step and its removal left it.
        """
        self.scheduler.clear()
        finished = []
        for info in self.catalog.tables():
            self.statistics.table(info.name).reset()
            for index_info in info.indexes.values():
                index_info.index = ddl.build_index(
                    ast.CreateIndex(name=index_info.name, table=info.name,
                                    column=index_info.column,
                                    method=index_info.method),
                    info.schema, self.registry)
            policy = info.policy
            removes = policy is not None and policy.remove_on_final \
                and policy.has_degradable_columns()
            row_keys: List[int] = []
            for rows in _batches(self.stores[info.name].scan()):
                self._apply_delta(info, None, rows)
                if removes:
                    row_keys += [row.row_key for row in rows
                                 if not self.scheduler.is_registered((info.name, row.row_key))
                                 and policy.tuple_lcp_of(row.values).fully_suppresses]
            if row_keys:
                finished.append((info, row_keys))
        return finished

    # ------------------------------------------------------------------ introspection

    def tables(self) -> List[str]:
        return [info.name for info in self.catalog.tables()]

    def row_count(self, table: str) -> int:
        return self._store_for(table).row_count

    def level_histogram(self, table: str, column: str) -> Dict[int, int]:
        """Number of live rows per stored accuracy level of ``column``."""
        store = self._store_for(table)
        histogram: Dict[int, int] = {}
        for stored in store.scan(frozenset()):      # headers only: no value decoded
            level = stored.levels.get(column.lower(), 0)
            histogram[level] = histogram.get(level, 0) + 1
        return histogram

    def forensic_image(self) -> bytes:
        """What the forensic scanner greps: every heap page (as the buffer
        pool holds it), the log (segment files plus unflushed records) and
        every key of every index.

        Derived in-memory state — table statistics, cached plans — is not
        in the image; it holds current values only (``docs/invariants.md``,
        "Derived state holds current values only").

        The WAL contribution redacts CATALOG documents — they carry the
        domain ontology (every value the schema *admits*), which exists
        independently of any inserted tuple; see
        :meth:`~repro.storage.wal.WriteAheadLog.forensic_image`.
        """
        parts = [store.heap.raw_image() for store in self.stores.values()]
        # One log serves every table: read it (from disk) once.
        parts.append(self.wal.forensic_image())
        for info in self.catalog.tables():
            for index_info in info.indexes.values():
                parts.append(index_info.index.raw_image())
        return b"\x00".join(parts)

    def describe(self) -> str:
        lines = [f"InstantDB (strategy={self.strategy}, clock={type(self.clock).__name__})"]
        for info in self.catalog.tables():
            lines.append(info.schema.describe())
            if info.policy is not None:
                lines.append(info.policy.describe())
            for index_info in info.indexes.values():
                lines.append(
                    f"  index {index_info.name} on {info.name}({index_info.column}) "
                    f"using {index_info.method}"
                )
        for purpose in self.catalog.purposes():
            lines.append(purpose.describe())
        return "\n".join(lines)


__all__ = ["InstantDB", "EngineStats", "EngineRecovery"]
