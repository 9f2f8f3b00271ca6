"""Abstract syntax tree of the supported SQL dialect.

The dialect is classic SQL (CREATE TABLE / INSERT / SELECT / UPDATE / DELETE)
plus the paper's privacy extensions:

* ``DEGRADABLE DOMAIN <domain> POLICY <policy>`` column options;
* ``DECLARE PURPOSE <name> SET ACCURACY LEVEL <level> FOR <table>.<column>, ...``;
* ``CREATE INDEX <name> ON <table> (<column>) USING <btree|hash|bitmap|gt>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple


# -- expressions ---------------------------------------------------------------


class Expression:
    """Base class of scalar expressions."""


@dataclass(frozen=True)
class Literal(Expression):
    value: Any


@dataclass(frozen=True)
class Placeholder(Expression):
    """A ``?`` qmark parameter (PEP 249); ``index`` is its 0-based position.

    Placeholders appear both as expressions (``WHERE salary > ?``) and as raw
    values inside :class:`Insert` rows, :class:`InList` values and
    :class:`Update` assignments.  None is ever evaluated: a plan template
    binds its values by position per execution, anything else goes through
    :func:`repro.query.parameters.bind_parameters` first.
    """

    index: int


@dataclass(frozen=True)
class ColumnRef(Expression):
    column: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Comparison(Expression):
    left: Expression
    operator: str           # =, !=, <, <=, >, >=, LIKE
    right: Expression


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    values: Tuple[Any, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class BooleanOp(Expression):
    operator: str            # AND / OR
    operands: Tuple[Expression, ...]


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression


@dataclass(frozen=True)
class Aggregate(Expression):
    function: str             # COUNT / SUM / AVG / MIN / MAX
    argument: Optional[ColumnRef]   # None for COUNT(*)
    distinct: bool = False

    @property
    def display_name(self) -> str:
        arg = "*" if self.argument is None else self.argument.qualified
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.function}({prefix}{arg})"


# -- select items ----------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.column
        if isinstance(self.expression, Aggregate):
            return self.expression.display_name.lower()
        return "expr"


@dataclass(frozen=True)
class Star:
    """``SELECT *``."""


@dataclass(frozen=True)
class OrderItem:
    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class JoinClause:
    table: str
    alias: Optional[str]
    left: ColumnRef
    right: ColumnRef
    kind: str = "inner"


# -- statements ----------------------------------------------------------------------


class Statement:
    """Base class of statements."""


@dataclass(frozen=True)
class ColumnDefinition:
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    degradable: bool = False
    domain: Optional[str] = None
    policy: Optional[str] = None


@dataclass(frozen=True)
class CreateTable(Statement):
    table: str
    columns: Tuple[ColumnDefinition, ...]


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    column: str
    method: str = "btree"


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: Optional[Tuple[str, ...]]
    rows: Tuple[Tuple[Any, ...], ...]


@dataclass(frozen=True)
class Select(Statement):
    table: str
    items: Tuple[Any, ...]                 # SelectItem or Star
    table_alias: Optional[str] = None
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    @property
    def is_aggregate(self) -> bool:
        if self.group_by:
            return True
        return any(
            isinstance(item, SelectItem) and isinstance(item.expression, Aggregate)
            for item in self.items
        )


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class AccuracyClause:
    level: Any                 # level name (str) or index (int)
    table: str
    column: str


@dataclass(frozen=True)
class DeclarePurpose(Statement):
    name: str
    clauses: Tuple[AccuracyClause, ...]


@dataclass(frozen=True)
class DropTable(Statement):
    table: str


@dataclass(frozen=True)
class Explain(Statement):
    statement: Statement
    #: ``EXPLAIN ANALYZE``: execute the statement and annotate the rendered
    #: operator tree with per-operator row counts.
    analyze: bool = False


__all__ = [
    "Expression", "Literal", "Placeholder", "ColumnRef", "Comparison", "InList", "Between",
    "IsNull", "BooleanOp", "Not", "Aggregate", "SelectItem", "Star",
    "OrderItem", "JoinClause", "Statement", "ColumnDefinition", "CreateTable",
    "CreateIndex", "Insert", "Select", "Update", "Delete", "AccuracyClause",
    "DeclarePurpose", "DropTable", "Explain",
]
