"""Typed values and the sentinels used by the degradation model.

Degradation introduces two special values that a traditional type system does
not have:

* :data:`SUPPRESSED` — the value reached at the *root* of a generalization
  tree: the attribute still exists but carries no information anymore (the
  paper's ``d4`` / "any" state).
* :data:`REMOVED` — the tuple as a whole has disappeared from the database.

Both are singletons that compare equal only to themselves, serialize
unambiguously and sort after every regular value so that ordered indexes keep
a stable total order while data degrades.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Pattern

from .errors import ExecutionError, SchemaError


class _Sentinel:
    """Singleton marker value with a stable repr and ordering."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{self._name}>"

    def __str__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(self._name)

    def __lt__(self, other: object) -> bool:
        # Sentinels sort after every ordinary value and among themselves by name.
        if isinstance(other, _Sentinel):
            return self._name < other._name
        return False

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _Sentinel):
            return self._name > other._name
        return True


#: Value of a degradable attribute that reached the root of its generalization
#: tree: still present, but informationless.
SUPPRESSED = _Sentinel("SUPPRESSED")

#: Marker for a tuple that was physically removed by the final degradation step.
REMOVED = _Sentinel("REMOVED")

#: SQL NULL.
NULL = _Sentinel("NULL")

SENTINELS = (SUPPRESSED, REMOVED, NULL)


class ValueType(Enum):
    """Column types supported by the engine."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"
    TIMESTAMP = "TIMESTAMP"

    @classmethod
    def from_name(cls, name: str) -> "ValueType":
        normalized = name.strip().upper()
        aliases = {
            "INTEGER": "INT",
            "BIGINT": "INT",
            "REAL": "FLOAT",
            "DOUBLE": "FLOAT",
            "STRING": "TEXT",
            "VARCHAR": "TEXT",
            "CHAR": "TEXT",
            "BOOLEAN": "BOOL",
            "DATETIME": "TIMESTAMP",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return cls(normalized)
        except ValueError:
            raise SchemaError(f"unknown column type: {name!r}") from None

    @property
    def python_type(self) -> type:
        return {
            ValueType.INT: int,
            ValueType.FLOAT: float,
            ValueType.TEXT: str,
            ValueType.BOOL: bool,
            ValueType.TIMESTAMP: float,
        }[self]


def coerce(value: Any, value_type: ValueType) -> Any:
    """Coerce ``value`` to ``value_type``, passing sentinels through untouched.

    Raises :class:`SchemaError` when the value cannot be represented.
    """
    if value is None:
        return NULL
    if any(value is sentinel for sentinel in SENTINELS):
        return value
    try:
        if value_type is ValueType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise SchemaError(f"cannot store non-integral {value!r} in INT column")
            return int(value)
        if value_type is ValueType.FLOAT:
            return float(value)
        if value_type is ValueType.TEXT:
            if isinstance(value, (bytes, bytearray)):
                return value.decode("utf-8")
            return str(value)
        if value_type is ValueType.BOOL:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
                raise SchemaError(f"cannot interpret {value!r} as BOOL")
            return bool(value)
        if value_type is ValueType.TIMESTAMP:
            return float(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot coerce {value!r} to {value_type.value}") from exc
    raise SchemaError(f"unsupported value type {value_type!r}")  # pragma: no cover


def is_missing(value: Any) -> bool:
    """True when ``value`` carries no usable information."""
    return value is NULL or value is SUPPRESSED or value is REMOVED or value is None


@dataclass(frozen=True)
class AccuracyTagged:
    """A value annotated with the accuracy level it was produced at.

    Query results expose these when the caller asks for provenance; the plain
    value is returned otherwise.
    """

    value: Any
    level: int
    level_name: Optional[str] = None

    def __str__(self) -> str:
        suffix = self.level_name or f"level {self.level}"
        return f"{self.value} @{suffix}"


def sort_key(value: Any) -> tuple:
    """Total order over heterogeneous values used by ORDER BY and B+-trees.

    Regular values sort within their type class; sentinels sort last.
    """
    if value is NULL:
        return (3, 0, "NULL")
    if value is SUPPRESSED:
        return (3, 1, "SUPPRESSED")
    if value is REMOVED:
        return (3, 2, "REMOVED")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (0, 0, float(value))
    if isinstance(value, str):
        return (2, 0, value)
    return (2, 1, repr(value))


# -- predicate semantics ----------------------------------------------------------
#
# What a WHERE clause means over values, shared by the engine's compiled
# closures and the reference model: any missing operand makes a comparison
# false, string equality ignores case, inequalities follow ``sort_key``, LIKE
# is SQL LIKE.

ORDERINGS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(operator_: str, left: Any, right: Any) -> bool:
    """``left <operator_> right``."""
    if is_missing(left) or is_missing(right):
        return False
    if operator_ == "=":
        return equal(left, right)
    if operator_ == "!=":
        return not equal(left, right)
    if operator_ == "LIKE":
        return like_pattern(str(right)).match(str(left)) is not None
    try:
        return ORDERINGS[operator_](sort_key(left), sort_key(right))
    except KeyError:
        raise ExecutionError(
            f"unsupported comparison operator {operator_!r}") from None


def between(value: Any, low: Any, high: Any, negated: bool) -> bool:
    if is_missing(value) or is_missing(low) or is_missing(high):
        return False
    result = sort_key(low) <= sort_key(value) <= sort_key(high)
    return not result if negated else result


def truthy(value: Any) -> bool:
    return bool(value) and not is_missing(value)


def equal(left: Any, right: Any) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    return bool(left == right)


def hashable(value: Any) -> Any:
    """The join / group key of ``value``: strings fold case, an unhashable
    degraded value (a list, a dict) stands in as its ``repr``."""
    if isinstance(value, str):
        return value.lower()
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


_LIKE_CACHE: Dict[str, Pattern[str]] = {}


def like_pattern(pattern: str) -> Pattern[str]:
    """SQL LIKE with ``%`` and ``_`` wildcards (case-insensitive) as a regex."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        compiled = re.compile(f"^{''.join(parts)}$", re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled
