"""Expression evaluation: the tree-walking interpreter and the closure compiler.

Two ways to evaluate the same AST live here side by side:

* :func:`evaluate` / :func:`lookup` — the reference tree-walking interpreter.
  One call re-dispatches on every node of the expression for every row; it is
  what the engine's ``read_path_optimizations=False`` baseline mode runs and
  what non-hot paths (aggregation over group members, HAVING) still use.
* :func:`compile_predicate` / :func:`compile_value` /
  :func:`compile_projection` — a one-time translation of the AST into nested
  Python closures.  All per-query decisions (operator dispatch, column-name
  resolution order, LIKE-pattern regex construction, hash-key normalization
  for joins) are made **once per plan**; per row only the captured closures
  run.  :func:`compile_select` bundles the compiled residual predicate,
  projection and join-key extractors of one physical plan into a
  :class:`CompiledSelect` that the plan memoizes — a cached prepared-statement
  plan therefore compiles exactly once, no matter how often it re-executes
  (the plan cache counts this, ``StatementCacheStats.predicate_compiles`` vs
  ``predicate_compile_hits``).

Both paths implement identical semantics: three-valued-ish missing handling
(any missing operand makes a comparison false), case-insensitive string
equality, ``sort_key``-ordered inequalities and SQL LIKE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import BindingError, ExecutionError, ParameterError
from ..core.values import NULL, SUPPRESSED, is_missing, sort_key
from . import ast_nodes as ast

#: A compiled row function: visible row dict in, value (or bool) out.
RowFn = Callable[[Dict[str, Any]], Any]

#: Sentinel distinguishing "key absent" from a stored None.
_MISS = object()


# -- interpreted evaluation ------------------------------------------------------


def lookup(ref: ast.ColumnRef, row: Dict[str, Any]) -> Any:
    if ref.table is not None:
        qualified = f"{ref.table}.{ref.column}"
        if qualified in row:
            return row[qualified]
    if ref.column in row:
        return row[ref.column]
    if ref.table is None:
        # Try any qualified match (single unambiguous suffix).
        matches = [key for key in row if key.endswith(f".{ref.column}")]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise BindingError(f"ambiguous column reference {ref.column!r}")
    raise BindingError(f"unknown column {ref.qualified!r}")


def evaluate(expression: ast.Expression, row: Dict[str, Any]) -> Any:
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Placeholder):
        raise ParameterError(
            "statement has unbound '?' placeholders; pass params= "
            "(or use a Cursor) to bind them"
        )
    if isinstance(expression, ast.ColumnRef):
        return lookup(expression, row)
    if isinstance(expression, ast.Comparison):
        return _compare(expression, row)
    if isinstance(expression, ast.InList):
        value = evaluate(expression.operand, row)
        if is_missing(value):
            return False
        result = any(_equal(value, candidate) for candidate in expression.values)
        return not result if expression.negated else result
    if isinstance(expression, ast.Between):
        value = evaluate(expression.operand, row)
        low = evaluate(expression.low, row)
        high = evaluate(expression.high, row)
        if is_missing(value) or is_missing(low) or is_missing(high):
            return False
        result = sort_key(low) <= sort_key(value) <= sort_key(high)
        return not result if expression.negated else result
    if isinstance(expression, ast.IsNull):
        value = evaluate(expression.operand, row)
        result = value is NULL or value is None or value is SUPPRESSED
        return not result if expression.negated else result
    if isinstance(expression, ast.BooleanOp):
        if expression.operator == "AND":
            return all(_truthy(evaluate(op, row)) for op in expression.operands)
        return any(_truthy(evaluate(op, row)) for op in expression.operands)
    if isinstance(expression, ast.Not):
        return not _truthy(evaluate(expression.operand, row))
    if isinstance(expression, ast.Aggregate):
        raise BindingError(
            f"aggregate {expression.display_name} used outside an aggregate query"
        )
    raise ExecutionError(f"cannot evaluate expression {expression!r}")


def _compare(comparison: ast.Comparison, row: Dict[str, Any]) -> bool:
    left = evaluate(comparison.left, row)
    right = evaluate(comparison.right, row)
    operator = comparison.operator
    if operator == "LIKE":
        if is_missing(left) or is_missing(right):
            return False
        return _like(str(left), str(right))
    if is_missing(left) or is_missing(right):
        return False
    if operator == "=":
        return _equal(left, right)
    if operator == "!=":
        return not _equal(left, right)
    left_key, right_key = sort_key(left), sort_key(right)
    if operator == "<":
        return left_key < right_key
    if operator == "<=":
        return left_key <= right_key
    if operator == ">":
        return left_key > right_key
    if operator == ">=":
        return left_key >= right_key
    raise ExecutionError(f"unsupported comparison operator {operator!r}")


def _truthy(value: Any) -> bool:
    return bool(value) and not is_missing(value)


def _equal(left: Any, right: Any) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    return left == right


def _hashable(value: Any) -> Any:
    if isinstance(value, str):
        return value.lower()
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


_LIKE_CACHE: Dict[str, re.Pattern] = {}


def _like_pattern(pattern: str) -> re.Pattern:
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


def _like(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards (case-insensitive)."""
    return _like_pattern(pattern).match(value) is not None


def render_expression(expression: ast.Expression) -> str:
    """SQL-ish rendering of an expression for EXPLAIN output."""
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    if isinstance(expression, ast.Placeholder):
        return "?"
    if isinstance(expression, ast.ColumnRef):
        return expression.qualified
    if isinstance(expression, ast.Comparison):
        return (f"{render_expression(expression.left)} {expression.operator} "
                f"{render_expression(expression.right)}")
    if isinstance(expression, ast.InList):
        values = ", ".join(repr(value) for value in expression.values)
        keyword = "NOT IN" if expression.negated else "IN"
        return f"{render_expression(expression.operand)} {keyword} ({values})"
    if isinstance(expression, ast.Between):
        keyword = "NOT BETWEEN" if expression.negated else "BETWEEN"
        return (f"{render_expression(expression.operand)} {keyword} "
                f"{render_expression(expression.low)} AND "
                f"{render_expression(expression.high)}")
    if isinstance(expression, ast.IsNull):
        keyword = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"{render_expression(expression.operand)} {keyword}"
    if isinstance(expression, ast.BooleanOp):
        joiner = f" {expression.operator} "
        return "(" + joiner.join(render_expression(op) for op in expression.operands) + ")"
    if isinstance(expression, ast.Not):
        return f"NOT {render_expression(expression.operand)}"
    if isinstance(expression, ast.Aggregate):
        return expression.display_name
    return repr(expression)


# -- closure compilation ---------------------------------------------------------


def compile_lookup(ref: ast.ColumnRef) -> RowFn:
    """Column access with the name-resolution order decided at compile time."""
    column = ref.column
    if ref.table is not None:
        qualified = f"{ref.table}.{column}"

        def qualified_fn(row: Dict[str, Any]) -> Any:
            value = row.get(qualified, _MISS)
            if value is not _MISS:
                return value
            value = row.get(column, _MISS)
            if value is not _MISS:
                return value
            raise BindingError(f"unknown column {qualified!r}")

        return qualified_fn
    suffix = f".{column}"

    def bare_fn(row: Dict[str, Any]) -> Any:
        value = row.get(column, _MISS)
        if value is not _MISS:
            return value
        matches = [key for key in row if key.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise BindingError(f"ambiguous column reference {column!r}")
        raise BindingError(f"unknown column {column!r}")

    return bare_fn


def _raise_unbound(row: Dict[str, Any]) -> Any:
    raise ParameterError(
        "statement has unbound '?' placeholders; pass params= "
        "(or use a Cursor) to bind them"
    )


def compile_value(expression: ast.Expression) -> RowFn:
    """Compile an expression to a closure returning its value per row."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ast.Placeholder):
        return _raise_unbound
    if isinstance(expression, ast.ColumnRef):
        return compile_lookup(expression)
    if isinstance(expression, (ast.Comparison, ast.InList, ast.Between,
                               ast.IsNull, ast.BooleanOp, ast.Not)):
        return compile_predicate(expression)
    if isinstance(expression, ast.Aggregate):
        name = expression.display_name

        def aggregate_misuse(row: Dict[str, Any]) -> Any:
            raise BindingError(
                f"aggregate {name} used outside an aggregate query"
            )

        return aggregate_misuse

    def unsupported(row: Dict[str, Any]) -> Any:
        raise ExecutionError(f"cannot evaluate expression {expression!r}")

    return unsupported


def _compile_comparison(comparison: ast.Comparison) -> RowFn:
    left = compile_value(comparison.left)
    right = compile_value(comparison.right)
    operator = comparison.operator
    if operator == "LIKE":
        if isinstance(comparison.right, ast.Literal) \
                and isinstance(comparison.right.value, str):
            # The regex is built once per plan, not once per row.
            pattern = _like_pattern(comparison.right.value)

            def like_literal(row: Dict[str, Any]) -> bool:
                value = left(row)
                if is_missing(value):
                    return False
                return pattern.match(str(value)) is not None

            return like_literal

        def like_dynamic(row: Dict[str, Any]) -> bool:
            value, pattern_value = left(row), right(row)
            if is_missing(value) or is_missing(pattern_value):
                return False
            return _like(str(value), str(pattern_value))

        return like_dynamic
    if operator == "=":
        def eq(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return _equal(lv, rv)
        return eq
    if operator == "!=":
        def ne(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return not _equal(lv, rv)
        return ne
    if operator == "<":
        def lt(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return sort_key(lv) < sort_key(rv)
        return lt
    if operator == "<=":
        def le(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return sort_key(lv) <= sort_key(rv)
        return le
    if operator == ">":
        def gt(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return sort_key(lv) > sort_key(rv)
        return gt
    if operator == ">=":
        def ge(row: Dict[str, Any]) -> bool:
            lv, rv = left(row), right(row)
            if is_missing(lv) or is_missing(rv):
                return False
            return sort_key(lv) >= sort_key(rv)
        return ge

    def unsupported(row: Dict[str, Any]) -> bool:
        raise ExecutionError(f"unsupported comparison operator {operator!r}")

    return unsupported


def compile_predicate(expression: ast.Expression) -> RowFn:
    """Compile an expression to a closure returning a truth value per row."""
    if isinstance(expression, ast.Comparison):
        return _compile_comparison(expression)
    if isinstance(expression, ast.InList):
        operand = compile_value(expression.operand)
        candidates = expression.values
        negated = expression.negated

        def in_list(row: Dict[str, Any]) -> bool:
            value = operand(row)
            if is_missing(value):
                return False
            result = any(_equal(value, candidate) for candidate in candidates)
            return not result if negated else result

        return in_list
    if isinstance(expression, ast.Between):
        operand = compile_value(expression.operand)
        low = compile_value(expression.low)
        high = compile_value(expression.high)
        negated = expression.negated

        def between(row: Dict[str, Any]) -> bool:
            value = operand(row)
            low_value, high_value = low(row), high(row)
            if is_missing(value) or is_missing(low_value) or is_missing(high_value):
                return False
            result = sort_key(low_value) <= sort_key(value) <= sort_key(high_value)
            return not result if negated else result

        return between
    if isinstance(expression, ast.IsNull):
        operand = compile_value(expression.operand)
        negated = expression.negated

        def is_null(row: Dict[str, Any]) -> bool:
            value = operand(row)
            result = value is NULL or value is None or value is SUPPRESSED
            return not result if negated else result

        return is_null
    if isinstance(expression, ast.BooleanOp):
        operands = tuple(compile_predicate(op) for op in expression.operands)
        if expression.operator == "AND":
            def conjunction(row: Dict[str, Any]) -> bool:
                for fn in operands:
                    if not _truthy(fn(row)):
                        return False
                return True
            return conjunction

        def disjunction(row: Dict[str, Any]) -> bool:
            for fn in operands:
                if _truthy(fn(row)):
                    return True
            return False

        return disjunction
    if isinstance(expression, ast.Not):
        operand = compile_predicate(expression.operand)
        return lambda row: not _truthy(operand(row))
    value_fn = compile_value(expression)
    return lambda row: _truthy(value_fn(row))


def compile_projection(expressions: List[ast.Expression]) -> RowFn:
    """Compile a SELECT list into one closure producing the output tuple."""
    fns = tuple(compile_value(expression) for expression in expressions)
    if len(fns) == 1:
        single = fns[0]
        return lambda row: (single(row),)
    return lambda row: tuple(fn(row) for fn in fns)


def compile_join_key(ref: ast.ColumnRef) -> RowFn:
    """Join-key extractor with the hash normalization baked in.

    ``_hashable`` used to run on every probe row inside the join loop; here
    it is part of the compiled extractor, so list/dict-typed degraded values
    are normalized exactly once per row with no per-probe type dispatch.
    """
    lookup_fn = compile_lookup(ref)
    return lambda row: _hashable(lookup_fn(row))


# -- whole-plan compilation -------------------------------------------------------


def output_items(catalog: Any, statement: ast.Select,
                 plan: Any) -> List[Tuple[str, ast.Expression]]:
    """Resolve the SELECT list into (output name, expression) pairs."""
    items: List[Tuple[str, ast.Expression]] = []
    for item in statement.items:
        if isinstance(item, ast.Star):
            schema = catalog.table(plan.base.table).schema
            for column in schema.columns:
                items.append((column.name, ast.ColumnRef(column=column.name,
                                                         table=plan.base.alias)))
            for _clause, scan in plan.joins:
                join_schema = catalog.table(scan.table).schema
                for column in join_schema.columns:
                    items.append((f"{scan.alias}.{column.name}",
                                  ast.ColumnRef(column=column.name,
                                                table=scan.alias)))
        else:
            items.append((item.output_name, item.expression))
    return items


@dataclass
class CompiledSelect:
    """Per-plan compiled artifacts (memoized on the :class:`PhysicalPlan`)."""

    mode: str
    columns: List[str]
    items: List[Tuple[str, ast.Expression]]
    #: Output-tuple builder; ``None`` for aggregate queries (the Aggregate
    #: operator evaluates per group, not per row).
    project: Optional[RowFn]
    #: Residual-predicate truth function; ``None`` when nothing is residual.
    residual: Optional[RowFn]
    #: Per join clause: (left-row key fn, right-row key fn), orientation
    #: already resolved against the joined table.
    join_keys: List[Tuple[RowFn, RowFn]]
    #: Trailing entries of ``items``/``columns`` that exist only to carry
    #: ORDER BY keys absent from the SELECT list; Sort/TopN strip them and
    #: the result exposes ``columns[:-hidden]``.
    hidden: int = 0


def _resolve_join_refs(clause: ast.JoinClause,
                       scan: Any) -> Tuple[ast.ColumnRef, ast.ColumnRef]:
    """Orient the ON clause: which side belongs to the joined (right) table."""
    left_key, right_key = clause.left, clause.right

    def belongs_to_right(ref: ast.ColumnRef) -> bool:
        return ref.table in (scan.alias, scan.table)

    if belongs_to_right(left_key) and not belongs_to_right(right_key):
        left_key, right_key = right_key, left_key
    return left_key, right_key


def _hidden_order_items(statement: ast.Select,
                        items: List[Tuple[str, ast.Expression]]
                        ) -> List[Tuple[str, ast.Expression]]:
    """ORDER BY columns absent from the SELECT list, as trailing hidden items.

    ``SELECT name FROM t ORDER BY age`` must compute the sort key even though
    it is not part of the result; Sort/TopN locate keys by output position, so
    the missing references ride along as extra trailing projection items
    (``CompiledSelect.hidden`` counts them, Sort/TopN strip them).  Aggregate
    queries may only hoist grouping columns — any other reference is ambiguous
    within a group and keeps raising the binding error downstream.
    """
    if not statement.order_by:
        return []
    names = {name for name, _expression in items}
    allowed = None
    if statement.is_aggregate:
        allowed = set()
        for ref in statement.group_by:
            allowed.add(ref.column)
            allowed.add(ref.qualified)
    extra: List[Tuple[str, ast.Expression]] = []
    for item in statement.order_by:
        ref = item.column
        if ref.column in names or ref.qualified in names:
            continue
        if allowed is not None and ref.column not in allowed \
                and ref.qualified not in allowed:
            continue
        extra.append((ref.qualified, ref))
        names.add(ref.qualified)
    return extra


def compile_select(catalog: Any, plan: Any,
                   mode: str = "compiled") -> CompiledSelect:
    """Compile a physical plan's row-at-a-time work into closures.

    ``mode="interpreted"`` produces closures that defer to the tree-walking
    interpreter per row — the measured baseline the compiled mode is compared
    against (``InstantDB(read_path_optimizations=False)``).
    """
    statement = plan.statement
    if statement.is_aggregate:
        items: List[Tuple[str, ast.Expression]] = []
        for item in statement.items:
            if isinstance(item, ast.Star):
                raise BindingError("SELECT * cannot be combined with aggregation")
            items.append((item.output_name, item.expression))
    else:
        items = output_items(catalog, statement, plan)
    hidden_items = _hidden_order_items(statement, items)
    if hidden_items:
        items = items + hidden_items
    if statement.is_aggregate:
        project: Optional[RowFn] = None
    else:
        expressions = [expression for _name, expression in items]
        if mode == "compiled":
            project = compile_projection(expressions)
        else:
            project = (lambda exprs: lambda row: tuple(
                evaluate(expression, row) for expression in exprs))(expressions)
    columns = [name for name, _expression in items]
    residual: Optional[RowFn] = None
    if plan.residual is not None:
        if mode == "compiled":
            residual = compile_predicate(plan.residual)
        else:
            residual = (lambda predicate: lambda row: _truthy(
                evaluate(predicate, row)))(plan.residual)
    join_keys: List[Tuple[RowFn, RowFn]] = []
    for clause, scan in plan.joins:
        left_ref, right_ref = _resolve_join_refs(clause, scan)
        if mode == "compiled":
            join_keys.append((compile_join_key(left_ref),
                              compile_join_key(right_ref)))
        else:
            join_keys.append((
                (lambda ref: lambda row: _hashable(lookup(ref, row)))(left_ref),
                (lambda ref: lambda row: _hashable(lookup(ref, row)))(right_ref),
            ))
    return CompiledSelect(mode=mode, columns=columns, items=items,
                          project=project, residual=residual,
                          join_keys=join_keys, hidden=len(hidden_items))


__all__ = [
    "RowFn", "CompiledSelect", "compile_select",
    "compile_predicate", "compile_value", "compile_projection",
    "compile_join_key", "compile_lookup",
    "output_items", "evaluate", "lookup", "render_expression",
]
