"""The reference model: what the paper promises, as an executable specification.

The differential oracle's ground truth, written from the paper (§II
life-cycle policies, §III purposes) and sharing no code with the engine:

* a table is a list of rows ``(accurate values, inserted_at, TupleLCP)``;
* an attribute's level is ``TupleLCP.levels_at(now - inserted_at)``;
* a purpose excludes a row with an attribute above the level it demands and
  sees the others at that level (``scheme.generalize(accurate, demanded)``);
  a column it leaves unconstrained is seen at the level the policy reached.
  With no purpose every degradable column is demanded accurate;
* under ``remove_on_final`` a row leaves the table the instant every
  attribute reaches its final, suppressed state.  Without it the row stays,
  fully suppressed: a plain query and every purpose constraining one of its
  suppressed columns exclude it, so only a purpose leaving them all
  unconstrained sees it (as ``SUPPRESSED``) — and only under such a purpose
  can ``DELETE`` or ``UPDATE`` reach it;
* SELECT / INSERT / UPDATE / DELETE ASTs from the parser run over Python
  lists: joins with the whole WHERE clause above them, then GROUP BY,
  HAVING, ORDER BY and LIMIT.  Names bind before any row is read.

Only definitions come from the engine's catalog (schemas, table policies,
purposes, domains): never a row, page, index, statistic or schedule entry.
A tier-1 test fails on any import from the layers the model checks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import (BindingError, ExecutionError, NotSupportedError, ParameterError,
                           PolicyError)
from ..core.values import NULL, between, compare, equal, hashable, is_missing, sort_key, truthy
from ..query import ast_nodes as ast
from ..query.parser import parse

#: What a plain column name maps to when more than one table has it.
_AMBIGUOUS = object()
Env = Dict[str, Any]


class _Row:
    """One row: accurate values (column → value), insertion time, policy."""

    __slots__ = ("values", "inserted_at", "lcp")

    def __init__(self, values: Dict[str, Any], inserted_at: float, lcp: Any) -> None:
        self.values = values
        self.inserted_at = inserted_at
        self.lcp = lcp


def _param(value: Any, params: Sequence[Any]) -> Any:
    if not isinstance(value, ast.Placeholder):
        return value
    if value.index >= len(params):
        raise ParameterError(f"statement needs parameter {value.index + 1}, got {len(params)}")
    return params[value.index]


def lookup(ref: ast.ColumnRef, env: Env) -> Any:
    """The value ``ref`` names in a row's scope (qualified or plain name)."""
    try:
        value = env[ref.qualified]
    except KeyError:
        raise BindingError(f"unknown column {ref.qualified!r}") from None
    if value is _AMBIGUOUS:
        raise BindingError(f"ambiguous column {ref.qualified!r}")
    return value


def evaluate(expression: ast.Expression, env: Env, params: Sequence[Any] = ()) -> Any:
    """The value of ``expression`` in one row's scope.  Every operand is
    evaluated (no short cut), so a bad name fails on any row."""
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Placeholder):
        return _param(expression, params)
    if isinstance(expression, ast.ColumnRef):
        return lookup(expression, env)
    if isinstance(expression, ast.Comparison):
        return compare(expression.operator, evaluate(expression.left, env, params),
                       evaluate(expression.right, env, params))
    if isinstance(expression, ast.InList):
        value = evaluate(expression.operand, env, params)
        found = not is_missing(value) and any(
            equal(value, _param(candidate, params)) for candidate in expression.values)
        return not is_missing(value) and found != expression.negated
    if isinstance(expression, ast.Between):
        return between(*(evaluate(part, env, params) for part in
                         (expression.operand, expression.low, expression.high)),
                       expression.negated)
    if isinstance(expression, ast.IsNull):
        return is_missing(evaluate(expression.operand, env, params)) != expression.negated
    if isinstance(expression, ast.BooleanOp):
        tests = [truthy(evaluate(operand, env, params)) for operand in expression.operands]
        return all(tests) if expression.operator == "AND" else any(tests)
    if isinstance(expression, ast.Not):
        return not truthy(evaluate(expression.operand, env, params))
    if isinstance(expression, ast.Aggregate):   # in HAVING: the output column
        if expression.display_name.lower() in env:
            return env[expression.display_name.lower()]
        raise BindingError(f"aggregate {expression.display_name} used outside an aggregate")
    raise ExecutionError(f"cannot evaluate expression {expression!r}")


def _bind(env: Env, alias: str, table: str, values: Optional[Dict[str, Any]],
          columns: Sequence[str]) -> Env:
    """Add one table's row (``None``: NULL padding) to ``env``."""
    for column in columns:
        value = NULL if values is None else values[column]
        env[f"{alias}.{column}"] = env[f"{table}.{column}"] = value
        env[column] = _AMBIGUOUS if column in env else value
    return env


def _aggregate(function: str, values: List[Any]) -> Any:
    """COUNT / SUM / AVG / MIN / MAX over the non-missing ``values``."""
    values = [value for value in values if not is_missing(value)]
    numbers = [value for value in values if type(value) in (int, float)]
    if function == "COUNT":
        return len(values)
    if function in ("SUM", "AVG"):
        total = sum(numbers) if numbers else NULL
        return total if function == "SUM" or not numbers else total / len(numbers)
    if function in ("MIN", "MAX"):
        pick = min if function == "MIN" else max
        return pick(values, key=sort_key) if values else NULL
    raise ExecutionError(f"unsupported aggregate {function}")


class Result:
    """A statement's outcome, shaped like an executed PEP 249 cursor."""

    def __init__(self, columns: Sequence[str] = (), rows: Sequence[Tuple] = (),
                 rowcount: int = -1) -> None:
        self.columns = list(columns)
        self.description = [(name,) + (None,) * 6 for name in columns] or None
        self.rows = list(rows)
        self.rowcount = rowcount

    def fetchall(self) -> List[Tuple]:
        return self.rows


class ReferenceModel:
    """The paper's semantics over lists, behind a scenario variant's surface.

    ``catalog`` supplies definitions only.  The model is its own connection
    and cursor (``fetchall`` reads the last result), so a generator loads it
    and a test drives it like any variant.
    """

    name = "reference"

    def __init__(self, catalog: Any) -> None:
        self.catalog = catalog
        self.connection = self
        self.tables: Dict[str, List[_Row]] = {}
        self.last = Result()
        self._now = 0.0
        self._steps = 0
        #: What ``rollback`` undoes: rows inserted, values replaced.  A DELETE
        #: is an erase at statement time, as the engine's.
        self._undo: List[Tuple[str, _Row, Any]] = []
        self._parsed: Dict[str, ast.Statement] = {}

    def execute(self, sql: str, params: Sequence[Any] = (), *, purpose: Any = None) -> Result:
        """Run one statement under ``purpose`` (a name, a ``Purpose`` or None)."""
        statement = self._parsed.get(sql) or self._parsed.setdefault(sql, parse(sql))
        scope = self.catalog.purpose(purpose) if isinstance(purpose, str) else purpose
        params = tuple(params)
        if isinstance(statement, ast.Select):
            self.last = Result(*self._select(statement, params, scope))
        elif isinstance(statement, ast.Insert):
            self.last = Result(rowcount=self._insert(statement, [params]))
        elif isinstance(statement, (ast.Update, ast.Delete)):
            self.last = Result(rowcount=self._modify(statement, params, scope))
        else:
            raise NotSupportedError("the reference model reads definitions from the "
                                    f"catalog, not {type(statement).__name__} statements")
        return self.last

    def executemany(self, sql: str, seq_of_params: Sequence[Sequence[Any]], *,
                    purpose: Any = None) -> Result:
        statement = self._parsed.get(sql) or self._parsed.setdefault(sql, parse(sql))
        if isinstance(statement, ast.Select):
            raise NotSupportedError("executemany() cannot run a SELECT")
        if isinstance(statement, ast.Insert):   # one batch: one instant, one cohort
            return Result(rowcount=self._insert(statement, list(map(tuple, seq_of_params))))
        return Result(rowcount=sum(self.execute(sql, params, purpose=purpose).rowcount
                                   for params in seq_of_params))

    def cursor(self) -> "ReferenceModel":
        return self

    def fetchall(self) -> List[Tuple]:
        return self.last.fetchall()

    def commit(self) -> None:
        self._undo.clear()

    def rollback(self) -> None:
        for kind, row, undo in reversed(self._undo):
            if kind == "insert":
                self.tables[undo].remove(row)
            else:
                row.values = undo
        self._undo.clear()

    def advance(self, seconds: float) -> float:
        """Move the clock; count every (row, attribute) transition crossed
        and remove the rows whose life cycle ended."""
        before, self._now = self._now, self._now + float(seconds)
        for name, rows in self.tables.items():
            policy = self.catalog.table(name).policy
            kept = []
            for row in rows:
                start, end = before - row.inserted_at, self._now - row.inserted_at
                lcps = row.lcp.attributes.values() if row.lcp is not None else ()
                for lcp in lcps:
                    self._steps += sum(start < when <= end for when in lcp.entry_times()[1:])
                if not (lcps and policy.remove_on_final and row.lcp.fully_suppresses
                        and all(lcp.level_at(end) == lcp.final_level for lcp in lcps)):
                    kept.append(row)
            rows[:] = kept
        return self._now

    def now(self) -> float:
        return self._now

    def steps_applied(self) -> int:
        return self._steps

    def forensic_report(self, salaries: Optional[Dict[int, int]] = None) -> Dict[str, int]:
        """What every engine's forensic check must find: no byte, no lag."""
        return {"violations": 0, "leaks": 0}

    def close(self) -> None:
        self.tables.clear()

    def _visible(self, table: str, purpose: Any) -> List[Tuple[_Row, Dict[str, Any]]]:
        """``(row, values as the purpose sees them)`` for every row it may see."""
        info = self.catalog.table(table)
        demanded = {column.name: self.catalog.demanded_level(purpose, table, column.name)
                    for column in info.schema.degradable_columns()}
        seen = []
        for row in self.tables.get(info.name, ()):
            levels = {} if row.lcp is None else row.lcp.levels_at(self._now - row.inserted_at)
            values = dict(row.values)
            for column, wanted in demanded.items():
                level = levels.get(column, 0)
                if wanted is not None and level > wanted:
                    break
                level = level if wanted is None else wanted
                if level and not is_missing(values[column]):
                    scheme = row.lcp.attributes[column].scheme
                    values[column] = scheme.generalize(values[column], level)
            else:
                seen.append((row, values))
        return seen

    def _insert(self, statement: ast.Insert, param_rows: List[Tuple]) -> int:
        info = self.catalog.table(statement.table)
        schema, policy = info.schema, info.policy
        names = statement.columns or tuple(schema.column_names())
        rows = []
        for params in param_rows:
            for literal_row in statement.rows:
                given = dict(zip(names, (_param(value, params) for value in literal_row)))
                values = dict(zip(schema.column_names(), schema.coerce_row(given)))
                lcp = policy.tuple_lcp_of(values) \
                    if policy is not None and policy.has_degradable_columns() else None
                rows.append(_Row(values, self._now, lcp))
        self.tables.setdefault(info.name, []).extend(rows)
        self._undo += [("insert", row, info.name) for row in rows]
        return len(rows)

    def _modify(self, statement: Any, params: Tuple, purpose: Any) -> int:
        """UPDATE / DELETE: the WHERE clause on the view of the purpose picks
        the rows; an UPDATE never writes a degradable column."""
        info = self.catalog.table(statement.table)
        schema, columns = info.schema, info.schema.column_names()
        assignments = [(schema.column(column), _param(value, params))
                       for column, value in getattr(statement, "assignments", ())]
        for column, _value in assignments:
            if column.degradable:
                raise PolicyError(f"column {info.name}.{column.name} is degradable: updates "
                                  "are not granted after the tuple creation has been committed")
        where = statement.where
        if where is not None:       # names bind with no row to read
            evaluate(where, _bind({}, info.name, info.name, None, columns), params)
        matched = [row for row, values in self._visible(info.name, purpose) if where is None
                   or truthy(evaluate(where, _bind({}, info.name, info.name, values, columns),
                                      params))]
        if isinstance(statement, ast.Delete):
            self.tables[info.name] = [row for row in self.tables.get(info.name, ())
                                      if row not in matched]
        for row in matched if assignments else ():
            self._undo.append(("update", row, row.values))
            row.values = dict(row.values, **{
                column.name: column.coerce(value) for column, value in assignments})
        return len(matched)

    def _select(self, statement: ast.Select, params: Tuple,
                purpose: Any) -> Tuple[List[str], List[Tuple]]:
        envs: List[Env] = [{}]
        empty: Env = {}
        items: List[Tuple[str, ast.Expression]] = []
        star = any(isinstance(item, ast.Star) for item in statement.items)
        sources = [(statement.table, statement.table_alias, None)] + \
            [(clause.table, clause.alias, clause) for clause in statement.joins]
        for position, (table, alias, clause) in enumerate(sources):
            info = self.catalog.table(table)
            alias, columns = (alias or info.name).lower(), info.schema.column_names()
            _bind(empty, alias, info.name, None, columns)
            rows = [values for _row, values in self._visible(info.name, purpose)]
            if clause is None:
                envs = [_bind({}, alias, info.name, values, columns) for values in rows]
            else:
                envs = self._join(envs, clause, alias, info.name, columns, rows)
            if star:
                items += [(f"{alias}.{column}" if position else column,
                           ast.ColumnRef(column, alias)) for column in columns]
        if star and statement.is_aggregate:
            raise BindingError("SELECT * cannot be combined with aggregation")
        items += [(item.output_name, item.expression) for item in statement.items
                  if not isinstance(item, ast.Star)]
        names = [name for name, _expression in items]
        order = [(item, next((names.index(name) for name in
                              (item.column.column, item.column.qualified)
                              if name in names), None)) for item in statement.order_by]
        # Names bind before any row is read: an unknown or ambiguous one fails
        # on an empty table too.
        for expression in [statement.where, *statement.group_by,
                           *(item.column for item, at in order if at is None),
                           *(getattr(e, "argument", e) for _n, e in items)]:
            if expression is not None:
                evaluate(expression, empty, params)
        if statement.where is not None:
            envs = [env for env in envs if truthy(evaluate(statement.where, env, params))]
        rows = self._group(statement, items, envs, empty, params) if statement.is_aggregate \
            else [(tuple(evaluate(expression, env, params) for _n, expression in items), env)
                  for env in envs]
        for item, at in reversed(order):
            rows.sort(key=lambda pair: sort_key(
                pair[0][at] if at is not None else lookup(item.column, pair[1])),
                reverse=item.descending)
        if statement.limit is not None:
            rows = rows[:statement.limit]
        return names, [values for values, _env in rows]

    def _join(self, envs: List[Env], clause: ast.JoinClause, alias: str, table: str,
              columns: Sequence[str], rows: List[Dict[str, Any]]) -> List[Env]:
        """One equi-join: a missing key joins nothing; a LEFT JOIN pads each
        left row without a partner with NULLs."""
        mine, theirs = clause.right, clause.left
        if not (mine.table in (alias, table) or
                (mine.table is None and mine.column in columns)):
            mine, theirs = theirs, mine
        partners: Dict[Any, List[Dict[str, Any]]] = {}
        for values in rows:
            if not is_missing(values[mine.column]):
                partners.setdefault(hashable(values[mine.column]), []).append(values)
        joined = []
        for env in envs:
            key = lookup(theirs, env)
            found = [] if is_missing(key) else partners.get(hashable(key), [])
            for values in found or ([None] if clause.kind == "left" else []):
                joined.append(_bind(dict(env), alias, table, values, columns))
        return joined

    def _group(self, statement: ast.Select, items: List[Tuple[str, ast.Expression]],
               envs: List[Env], empty: Env, params: Tuple) -> List[Tuple[Tuple, Env]]:
        """GROUP BY (one group of everything without it), the aggregates, HAVING."""
        groups: Dict[Tuple, List[Env]] = {} if statement.group_by else {(): []}
        for env in envs:
            key = tuple(hashable(lookup(ref, env)) for ref in statement.group_by)
            groups.setdefault(key, []).append(env)
        out = []
        for key in sorted(groups, key=lambda key: tuple(map(sort_key, key))):
            members = groups[key]
            first = members[0] if members else empty
            values = []
            for _name, expression in items:
                if not isinstance(expression, ast.Aggregate):
                    values.append(evaluate(expression, first, params))
                    continue
                argument = expression.argument
                seen = [1 if argument is None else lookup(argument, env) for env in members]
                if expression.distinct:
                    seen = [value for at, value in enumerate(seen) if value not in seen[:at]]
                values.append(_aggregate(expression.function.upper(), seen))
            scope = {**first, **dict(zip([name for name, _e in items], values))}
            if statement.having is None or truthy(evaluate(statement.having, scope, params)):
                out.append((tuple(values), scope))
        return out


__all__ = ["ReferenceModel", "Result", "evaluate", "lookup"]
