"""Exception hierarchy for the InstantDB reproduction.

Two hierarchies are woven together here:

* the **DB-API 2.0 (PEP 249)** classes — :class:`Warning`, :class:`Error`,
  :class:`InterfaceError`, :class:`DatabaseError` and its five standard
  subclasses — which driver-level callers (``repro.connect()`` /
  :class:`~repro.api.Connection`) are expected to catch;
* the library's **subsystem hierarchy** rooted at :class:`InstantDBError`,
  which discriminates *which* component failed (storage, policy, query
  front-end, transactions...).

Every subsystem error multiply inherits from both roots, so legacy callers
catching :class:`InstantDBError` (or a specific subsystem error) keep working
while PEP 249 clients can uniformly write ``except repro.DatabaseError``.
For example :class:`ParseError` is both a :class:`QueryError` and a
:class:`ProgrammingError`, and :class:`DeadlockError` is both a
:class:`TransactionError` and an :class:`OperationalError`.
"""

from __future__ import annotations


# ---------------------------------------------------------------- PEP 249 roots


class Warning(Exception):  # noqa: A001 - name mandated by PEP 249
    """Important warnings (data truncated on insert, ...) — PEP 249."""


class Error(Exception):
    """Base class of all PEP 249 error exceptions."""


class InterfaceError(Error):
    """Error related to the database *interface* rather than the database
    itself (operation on a closed cursor, unbindable parameter value, ...)."""


class DatabaseError(Error):
    """Error related to the database itself."""


class DataError(DatabaseError):
    """Problem with the processed data (value out of domain, bad cast, ...)."""


class OperationalError(DatabaseError):
    """Error related to the database's operation, not necessarily under the
    programmer's control (lost storage, lock timeout, crash recovery, ...)."""


class IntegrityError(DatabaseError):
    """The relational integrity of the database is affected (constraint or
    life-cycle-policy violation)."""


class InternalError(DatabaseError):
    """The database encountered an internal error (corrupt page, invalid
    degradation state, ...)."""


class ProgrammingError(DatabaseError):
    """Programming error: table not found, SQL syntax error, wrong number of
    parameters, ..."""


class NotSupportedError(DatabaseError):
    """A method or API was used which is not supported by the engine."""


# ------------------------------------------------------------ subsystem errors


class InstantDBError(Error):
    """Base class of every exception raised by the library."""


class ConfigurationError(InstantDBError, ProgrammingError):
    """A component was configured inconsistently (bad policy, bad schema...)."""


class GeneralizationError(InstantDBError, DataError):
    """A generalization tree is malformed or a value cannot be generalized."""


class UnknownValueError(GeneralizationError):
    """A value does not belong to the domain covered by a generalization tree."""


class PolicyError(InstantDBError, IntegrityError):
    """A life cycle policy is malformed or violated."""


class IrreversibilityError(PolicyError):
    """An operation attempted to move data towards a *more* accurate state."""


class SchemaError(InstantDBError, ProgrammingError):
    """Table or domain schema violation."""


class CatalogError(InstantDBError, ProgrammingError):
    """Unknown table, column, domain, policy or purpose."""


class StorageError(InstantDBError, OperationalError):
    """Low level storage failure (page, heap file, buffer pool...)."""


class PageFullError(StorageError):
    """A record does not fit in the target page."""


class RecordNotFoundError(StorageError):
    """A record id does not resolve to a live record."""


class WALError(StorageError):
    """Write-ahead log corruption or protocol violation."""


class LogCorruptionError(WALError):
    """A log record or segment header failed its checksum, framing or LSN
    sequence check somewhere a torn append cannot explain (anywhere but the
    tail of the last segment).  Raised instead of replaying garbage."""


class LogFormatError(WALError):
    """The log on disk was written in a format version this build does not
    read (for instance the single-file ``wal.log`` of format version 1)."""


class CryptoError(StorageError):
    """Key-store failure; typically a key was already destroyed."""


class KeyDestroyedError(CryptoError):
    """Data was requested whose encryption key has been destroyed (degraded)."""


class IndexError_(InstantDBError, InternalError):
    """Index structure violation (named with a trailing underscore to avoid
    shadowing the builtin :class:`IndexError`)."""


class TransactionError(InstantDBError, OperationalError):
    """Transaction protocol violation."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (deadlock victim, explicit rollback...)."""


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired within the configured timeout."""


class QueryError(InstantDBError, ProgrammingError):
    """SQL front-end failure."""


class ParseError(QueryError):
    """The SQL text could not be parsed."""


class BindingError(QueryError):
    """Name resolution / accuracy-level binding failure."""


class ParameterError(InstantDBError, InterfaceError, ProgrammingError):
    """Statement parameters do not match the statement's placeholders
    (wrong count, unsupported Python type, unbound placeholder).

    PEP 249 files wrong-parameter-count under :class:`ProgrammingError` while
    drivers conventionally raise :class:`InterfaceError` for unbindable value
    types, so this error is catchable as either (and hence also as
    :class:`DatabaseError`)."""


class ExecutionError(QueryError):
    """Runtime failure while executing a query plan."""


class AccuracyError(QueryError):
    """A query demanded an accuracy level that is not computable."""


class DegradationError(InstantDBError, OperationalError):
    """The degradation engine failed to apply a scheduled step."""


class RecoveryError(InstantDBError, OperationalError):
    """Crash recovery failed or would resurrect degraded data."""


class DurabilityError(StorageError):
    """A durability-critical I/O operation failed (fsync error, torn write,
    ENOSPC on a WAL append or pager sync).

    The in-flight transaction is aborted cleanly and the engine flips into a
    read-only degraded mode (see :class:`ReadOnlyModeError`); reads keep
    working, but nothing further is promised durable until the database is
    reopened and recovered.  The on-disk WAL prefix up to the last successful
    flush stays valid — recovery never replays past it."""


class ReadOnlyModeError(DurabilityError):
    """A write was attempted while the engine is in read-only degraded mode
    (entered after a :class:`DurabilityError`; cleared by reopen + recover)."""


class RetryableError(InstantDBError, OperationalError):
    """Transient server-side condition; the *same* request may succeed if
    retried after a backoff.  The remote driver retries these automatically
    at transaction boundaries."""

    #: Drivers inspect this instead of the class so the flag survives the
    #: wire protocol's by-name exception mapping.
    retryable = True


class OverloadError(RetryableError):
    """The server shed the request at admission (session table full or queue
    saturated).  Retry after a backoff."""


class StatementTimeoutError(RetryableError):
    """A statement exceeded the server's per-statement timeout budget.

    The engine cannot be interrupted mid-statement, so the server checks the
    budget when the statement returns and sends this whatever the statement's
    outcome; every other session waited behind it meanwhile.  The session is
    closed and its transaction rolled back: reconnect and retry from the
    transaction start."""


class ConnectionPoisonedError(InterfaceError):
    """The remote connection consumed part of a frame and can no longer
    delimit the byte stream (mid-frame timeout or short read).  Every
    subsequent call on the connection raises this; reconnect to continue."""


#: The PEP 249 names re-exported by :mod:`repro` and :mod:`repro.api`.
PEP249_EXCEPTIONS = (
    "Warning", "Error", "InterfaceError", "DatabaseError", "DataError",
    "OperationalError", "IntegrityError", "InternalError", "ProgrammingError",
    "NotSupportedError",
)
