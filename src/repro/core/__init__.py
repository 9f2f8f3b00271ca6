"""Core degradation model: generalization trees, life cycle policies, scheduling."""

from .clock import (
    DAY,
    HOUR,
    MINUTE,
    MONTH,
    SECOND,
    WEEK,
    YEAR,
    Clock,
    SimulatedClock,
    WallClock,
    duration,
    format_duration,
    make_clock,
    parse_duration,
)
from .errors import (
    AccuracyError,
    BindingError,
    CatalogError,
    ConfigurationError,
    DegradationError,
    ExecutionError,
    GeneralizationError,
    InstantDBError,
    IrreversibilityError,
    ParseError,
    PolicyError,
    QueryError,
    RecoveryError,
    SchemaError,
    StorageError,
    TransactionAborted,
    TransactionError,
    UnknownValueError,
)
from .generalization import (
    GeneralizationScheme,
    GeneralizationTree,
    NumericRangeGeneralization,
    TimestampGeneralization,
)
from .lcp import NEVER, AttributeLCP, Transition, TupleLCP, freeze_state, thaw_state
from .policy import AccuracyRequirement, PolicyRegistry, Purpose, TablePolicy
from .scheduler import (
    DegradationScheduler,
    DegradationStep,
    SchedulerStats,
)
from .schema import Column, TableSchema
from .values import NULL, REMOVED, SUPPRESSED, AccuracyTagged, ValueType, coerce, is_missing, sort_key

__all__ = [
    # clock
    "SECOND", "MINUTE", "HOUR", "DAY", "WEEK", "MONTH", "YEAR",
    "Clock", "SimulatedClock", "WallClock", "duration", "parse_duration",
    "format_duration", "make_clock",
    # errors
    "InstantDBError", "ConfigurationError", "GeneralizationError",
    "UnknownValueError", "PolicyError", "IrreversibilityError", "SchemaError",
    "CatalogError", "StorageError", "TransactionError", "TransactionAborted",
    "QueryError", "ParseError", "BindingError", "ExecutionError",
    "AccuracyError", "DegradationError", "RecoveryError",
    # generalization
    "GeneralizationScheme", "GeneralizationTree", "NumericRangeGeneralization",
    "TimestampGeneralization",
    # lcp
    "AttributeLCP", "Transition", "TupleLCP", "NEVER", "freeze_state", "thaw_state",
    # policy
    "Purpose", "AccuracyRequirement", "PolicyRegistry", "TablePolicy",
    # scheduler
    "DegradationScheduler", "DegradationStep", "SchedulerStats",
    # schema
    "Column", "TableSchema",
    # values
    "NULL", "SUPPRESSED", "REMOVED", "ValueType", "AccuracyTagged",
    "coerce", "is_missing", "sort_key",
]
