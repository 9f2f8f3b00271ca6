"""Row layout and the closure compiler.

Rows travel through the operator tree as **positional tuples**.  A
:class:`Layout` fixes, once per plan, which slot holds which column: per table
of the FROM list its row key, then the columns the query needs of it; a join's
row is its inputs' rows concatenated.  A column name is bound to its slot when
the plan is built (:meth:`Layout.slot`), so an unknown or ambiguous name is a
:class:`BindingError` at ``execute`` — whatever the data — and no name is ever
looked up per row.

:func:`compile_predicate` / :func:`compile_value` translate an AST once into
nested closures that index the row by position.  Operator dispatch, LIKE
regexes, constant folding of ``column <op> literal`` and the hash-key
normalization of joins are decided **once per plan**; what a comparison means
over values is :mod:`repro.core.values`' (``compare``, ``equal``, ...), the
definition the reference model of :mod:`repro.scenarios.reference` evaluates
too.

:func:`compile_select` bundles what one physical plan needs — the pushed
filter of each scan, the cross-table residual, join-key and group-key
extractors, the projection or the aggregate's accumulator recipe — into a
:class:`CompiledSelect` that the plan memoizes: a cached template compiles
exactly once (``StatementCacheStats.predicate_compiles``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import BindingError, ExecutionError, ParameterError
from ..core.values import (NULL, ORDERINGS, SUPPRESSED, between, compare, equal, hashable,
                           is_missing, like_pattern, truthy)
from . import ast_nodes as ast

#: A compiled row function: positional row in, value (or bool) out.
RowFn = Callable[[Sequence[Any]], Any]

_UNBOUND = ("statement has unbound '?' placeholders; pass params= "
            "(or use a Cursor) to bind them")


# -- row layout ------------------------------------------------------------------


class Layout:
    """Which slot of a plan's positional rows holds which column.

    ``scans`` lists the FROM tables as ``(alias, table, columns)``.  Every
    slot answers to ``alias.column`` and ``table.column``, and to the plain
    ``column`` while exactly one table has it; a name two slots answer to is
    *ambiguous* and binds nowhere.
    """

    @staticmethod
    @lru_cache(maxsize=512)
    def of(scans: Tuple[Tuple[str, str, Tuple[str, ...]], ...]) -> "Layout":
        """The layout of ``scans`` — shared: a layout is never changed once
        built, and every plan over the same FROM list and columns has it."""
        return Layout(scans)

    def __init__(self, scans: Sequence[Tuple[str, str, Sequence[str]]]) -> None:
        self.slots: Dict[str, int] = {}
        #: First slot (the row key) of each scan's part of the row.
        self.offsets: List[int] = []
        #: Per slot: (scan position, column) — ``None`` for a row-key slot.
        self.owners: List[Tuple[int, Optional[str]]] = []
        for position, (alias, table, columns) in enumerate(scans):
            self.offsets.append(len(self.owners))
            self.owners.append((position, None))
            for column in columns:
                for name in {column, f"{alias}.{column}", f"{table}.{column}"}:
                    self.slots[name] = -1 if name in self.slots else len(self.owners)
                self.owners.append((position, column))
        self.width = len(self.owners)

    def slot(self, ref: ast.ColumnRef) -> int:
        slot = self.slots.get(ref.qualified)
        if slot is None:
            raise BindingError(f"unknown column {ref.qualified!r}")
        if slot < 0:
            raise BindingError(f"ambiguous column reference {ref.qualified!r}")
        return slot

    def extended(self, names: Sequence[str]) -> "Layout":
        """This layout plus one trailing slot per output column, whose names
        win over the table columns' (the scope HAVING is evaluated in)."""
        wider = Layout(())
        wider.slots = dict(self.slots)
        wider.slots.update((name, self.width + index)
                           for index, name in enumerate(names))
        wider.width = self.width + len(names)
        return wider


# -- expression helpers -----------------------------------------------------------


def collect_refs(expression: ast.Expression,
                 out: List[ast.ColumnRef]) -> List[ast.ColumnRef]:
    """Gather every column reference in an expression tree into ``out``."""
    if isinstance(expression, ast.ColumnRef):
        out.append(expression)
    elif isinstance(expression, ast.Comparison):
        collect_refs(expression.left, out)
        collect_refs(expression.right, out)
    elif isinstance(expression, ast.InList):
        collect_refs(expression.operand, out)
    elif isinstance(expression, ast.Between):
        collect_refs(expression.operand, out)
        collect_refs(expression.low, out)
        collect_refs(expression.high, out)
    elif isinstance(expression, ast.IsNull):
        collect_refs(expression.operand, out)
    elif isinstance(expression, ast.BooleanOp):
        for operand in expression.operands:
            collect_refs(operand, out)
    elif isinstance(expression, ast.Not):
        collect_refs(expression.operand, out)
    elif isinstance(expression, ast.Aggregate):
        if expression.argument is not None:
            out.append(expression.argument)
    return out


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

#: Maps a column reference to the slot a closure reads it from.
Resolver = Callable[[ast.ColumnRef], int]


def _raiser(error: Exception) -> RowFn:
    def fail(row: Sequence[Any]) -> Any:
        raise error
    return fail


def compile_value(expression: ast.Expression, slot_of: Resolver) -> RowFn:
    """Compile an expression to a closure returning its value per row."""
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ast.Placeholder):
        return _raiser(ParameterError(_UNBOUND))
    if isinstance(expression, ast.ColumnRef):
        return operator.itemgetter(slot_of(expression))
    if isinstance(expression, (ast.Comparison, ast.InList, ast.Between,
                               ast.IsNull, ast.BooleanOp, ast.Not)):
        return compile_predicate(expression, slot_of)
    if isinstance(expression, ast.Aggregate):
        return _raiser(BindingError(
            f"aggregate {expression.display_name} used outside an aggregate query"))
    return _raiser(ExecutionError(f"cannot evaluate expression {expression!r}"))


def _compile_comparison(comparison: ast.Comparison, slot_of: Resolver) -> RowFn:
    left = compile_value(comparison.left, slot_of)
    right = compile_value(comparison.right, slot_of)
    operator_ = comparison.operator
    constant = comparison.right.value \
        if isinstance(comparison.right, ast.Literal) else None
    if constant is not None and isinstance(comparison.left, ast.ColumnRef):
        # ``column <op> literal``: the literal's side of the comparison is
        # folded now — its regex, its case-folded text or its place in the
        # ``sort_key`` order — and the common type takes a shortcut that
        # gives exactly what :func:`_compare` would.
        if operator_ == "LIKE" and type(constant) is str:
            match = like_pattern(constant).match
            return lambda row: not is_missing(value := left(row)) and \
                match(str(value)) is not None
        if operator_ in ("=", "!=") and type(constant) is str:
            folded, negated = constant.lower(), operator_ == "!="

            def text_equality(row: Sequence[Any]) -> bool:
                value = left(row)
                if type(value) is str:
                    return (value.lower() == folded) != negated
                return compare(operator_, value, constant)

            return text_equality
        if type(constant) in (int, float) and operator_ in ("=", "!=", *ORDERINGS):
            test = {"=": operator.eq, "!=": operator.ne, **ORDERINGS}[operator_]
            number = float(constant)

            def numeric(row: Sequence[Any]) -> bool:
                value = left(row)
                if type(value) is int or type(value) is float:
                    return test(float(value), number)
                return compare(operator_, value, constant)

            return numeric
    return lambda row: compare(operator_, left(row), right(row))


def all_of(tests: Sequence[RowFn]) -> Optional[RowFn]:
    """The conjunction of truth functions, short-circuiting in their order
    (``None`` for none): a chain of two-way closures, no loop per row."""
    if not tests:
        return None
    *heads, chain = tests
    for head in reversed(heads):
        chain = (lambda a, b: lambda row: a(row) and b(row))(head, chain)
    return chain


def compile_predicate(expression: ast.Expression, slot_of: Resolver) -> RowFn:
    """Compile an expression to a closure returning a truth value per row."""
    if isinstance(expression, ast.Comparison):
        return _compile_comparison(expression, slot_of)
    if isinstance(expression, ast.InList):
        operand = compile_value(expression.operand, slot_of)
        candidates = expression.values
        negated = expression.negated

        def in_list(row: Sequence[Any]) -> bool:
            value = operand(row)
            if is_missing(value):
                return False
            result = any(equal(value, candidate) for candidate in candidates)
            return not result if negated else result

        return in_list
    if isinstance(expression, ast.Between):
        operand = compile_value(expression.operand, slot_of)
        low = compile_value(expression.low, slot_of)
        high = compile_value(expression.high, slot_of)
        negated = expression.negated
        return lambda row: between(operand(row), low(row), high(row), negated)
    if isinstance(expression, ast.IsNull):
        operand = compile_value(expression.operand, slot_of)
        negated = expression.negated

        def is_null(row: Sequence[Any]) -> bool:
            value = operand(row)
            result = value is NULL or value is None or value is SUPPRESSED
            return not result if negated else result

        return is_null
    if isinstance(expression, ast.BooleanOp):
        operands = [compile_predicate(op, slot_of) for op in expression.operands]
        if expression.operator == "AND":
            return all_of(operands)
        *heads, chain = operands
        for head in reversed(heads):
            chain = (lambda a, b: lambda row: a(row) or b(row))(head, chain)
        return chain
    if isinstance(expression, ast.Not):
        operand = compile_predicate(expression.operand, slot_of)
        return lambda row: not operand(row)
    value_fn = compile_value(expression, slot_of)
    return lambda row: truthy(value_fn(row))


def compile_projection(expressions: Sequence[ast.Expression],
                       slot_of: Resolver) -> RowFn:
    """Compile a SELECT list into one closure producing the output tuple."""
    if len(expressions) > 1 and \
            all(isinstance(expression, ast.ColumnRef) for expression in expressions):
        return operator.itemgetter(*map(slot_of, expressions))
    fns = tuple(compile_value(expression, slot_of) for expression in expressions)
    if len(fns) == 1:
        single = fns[0]
        return lambda row: (single(row),)
    return lambda row: tuple(fn(row) for fn in fns)


def hash_key(slot: int) -> RowFn:
    """Join / group key extractor with the hash normalization baked in:
    strings fold case, unhashable degraded values (lists, dicts) are
    converted once per row, an int is its own key."""
    def key(row: Sequence[Any]) -> Any:
        value = row[slot]
        kind = type(value)
        return value if kind is int else value.lower() if kind is str \
            else hashable(value)
    return key


def compile_truth(expression: ast.Expression, layout: Layout,
                  offset: int = 0) -> RowFn:
    """Truth function of ``expression`` over rows whose first slot is
    ``layout``'s slot ``offset`` (a scan's own rows start at its offset)."""
    return compile_predicate(expression, lambda ref: layout.slot(ref) - offset)


#: A scan kernel's inline comparison: ``(slot, operator, number)``.
Comparison = Tuple[int, str, Any]


def split_filter(scan: Any, layout: Layout, offset: int
                 ) -> Tuple[Tuple[Comparison, ...], List[ast.Expression]]:
    """A scan's pushed filter split into the ``column op number`` conjuncts
    its kernel evaluates inline — slots of the scan's own rows, a ``?`` still
    its placeholder — and the others (all of them for an index-only scan: it
    runs no kernel)."""
    inline: List[Comparison] = []
    rest: List[ast.Expression] = []
    where = scan.filter
    for conjunct in () if where is None else where.operands \
            if isinstance(where, ast.BooleanOp) and where.operator == "AND" else (where,):
        number = getattr(conjunct, "right", None)
        if isinstance(number, ast.Literal) and type(number.value) in (int, float):
            number = number.value
        if isinstance(conjunct, ast.Comparison) and not scan.index_only \
                and isinstance(number, (int, float, ast.Placeholder)) \
                and conjunct.operator in ("=", "!=", "<", "<=", ">", ">=") \
                and isinstance(conjunct.left, ast.ColumnRef):
            inline.append((layout.slot(conjunct.left) - offset, conjunct.operator, number))
        else:
            rest.append(conjunct)
    return tuple(inline), rest


# -- whole-plan compilation -------------------------------------------------------


@dataclass
class CompiledSelect:
    """Per-plan compiled artifacts (memoized on the :class:`PhysicalPlan`)."""

    layout: Layout
    columns: List[str]
    items: List[Tuple[str, ast.Expression]]
    #: Output-tuple builder; ``None`` for aggregate queries.
    project: Optional[RowFn]
    #: Per scan (base first): truth function of its pushed filter over the
    #: scan's own rows, or ``None`` — less its ``comparisons``.
    filters: List[Optional[RowFn]]
    #: Per scan: the ``column op number`` conjuncts of its pushed filter that
    #: its kernel evaluates inline (:func:`split_filter`).
    comparisons: List[Tuple[Comparison, ...]]
    #: Per scan: what its row reader decodes and when (:func:`read_spec`).
    reads: List[Tuple]
    #: Truth function of the cross-table residual; ``None`` when nothing is.
    residual: Optional[RowFn]
    #: Per join clause: (left-row key fn, right-row key fn).
    join_keys: List[Tuple[RowFn, RowFn]]
    #: Aggregate queries: ``(group key fn, per output item its value fn over
    #: the group's first row or its ``(function, argument fn, distinct)``
    #: accumulator recipe, HAVING truth fn over first row + output values)``.
    aggregate: Optional[Tuple[RowFn, List[Any], Optional[RowFn]]] = None
    #: Trailing entries of ``items``/``columns`` that exist only to carry
    #: ORDER BY keys absent from the SELECT list; Sort/TopN strip them and
    #: the result exposes ``columns[:-hidden]``.
    hidden: int = 0


def read_spec(catalog: Any, scan: Any, columns: Sequence[str]) -> Tuple:
    """What the store's row reader is asked for ``scan`` — the arguments of
    :meth:`~repro.storage.degradable_store.TableStore.row_reader` that no
    execution changes: ``columns`` with their slots; the ones to decode
    *first* because a pushed test reads them (the filter's, the join column
    the build side's keys are matched on, the index-range guard's — all of
    them when nothing is tested); the level each degradable column of the
    table must be computable at (the exclusion rule); per degradable column
    read its demanded level and generalization scheme."""
    schema = catalog.table(scan.table).schema
    early = {ref.column for ref in collect_refs(scan.filter, [])}
    if scan.probe_key is not None and scan.access.kind != "index_keys":
        early.add(scan.probe_key)
    if scan.access.kind == "index_range":
        early.add(scan.access.column)
    caps, schemes = [], {}
    for column in schema.degradable_columns():
        level = scan.demanded_levels.get(column.name, 0)
        if level is not None:
            caps.append((column.name, level))
        if column.name in columns:
            schemes[column.name] = (level, catalog.registry.domain(column.domain))
    return (tuple((name, slot) for slot, name in enumerate(columns, 1)),
            frozenset(early or columns), tuple(caps), schemes)


def compile_select(catalog: Any, plan: Any) -> CompiledSelect:
    """Fix the slot layout of ``plan`` and compile its row-at-a-time work."""
    statement = plan.statement
    scans = plan.scans
    columns_of = [scan.needed_columns if scan.needed_columns is not None
                  else tuple(catalog.table(scan.table).schema.column_names())
                  for scan in scans]
    layout = Layout.of(tuple((scan.alias, scan.table, columns)
                             for scan, columns in zip(scans, columns_of)))
    items = plan.items
    columns = [name for name, _expression in items]
    project = aggregate = None
    if statement.is_aggregate:
        recipes: List[Any] = []
        for _name, expression in items:
            if isinstance(expression, ast.Aggregate):
                argument = None if expression.argument is None \
                    else operator.itemgetter(layout.slot(expression.argument))
                recipes.append((expression.function.upper(), argument,
                                expression.distinct))
            else:
                recipes.append(compile_value(expression, layout.slot))
        keys = [hash_key(layout.slot(ref)) for ref in statement.group_by]
        if len(keys) == 1:
            only, = keys
            group_key = lambda row: (only(row),)
        else:
            group_key = lambda row: tuple([key(row) for key in keys])
        having = None
        if statement.having is not None:
            scope = layout.extended(columns)
            having = compile_predicate(statement.having, scope.slot)
        aggregate = (group_key, recipes, having)
    else:
        project = compile_projection([expression for _name, expression in items],
                                     layout.slot)
    pushed = [split_filter(scan, layout, offset)
              for scan, offset in zip(scans, layout.offsets)]
    filters = [all_of([compile_truth(conjunct, layout, offset) for conjunct in rest])
               for (_comparisons, rest), offset in zip(pushed, layout.offsets)]
    residual = None if plan.residual is None \
        else compile_truth(plan.residual, layout)
    join_keys = [
        (hash_key(layout.slot(left)),
         hash_key(layout.slot(right) - layout.offsets[position]))
        for position, (left, right) in enumerate(plan.join_refs, 1)]
    return CompiledSelect(layout=layout, columns=columns, items=items,
                          project=project, filters=filters,
                          comparisons=[comparisons for comparisons, _rest in pushed],
                          residual=residual,
                          reads=[read_spec(catalog, scan, columns)
                                 for scan, columns in zip(scans, columns_of)],
                          join_keys=join_keys, aggregate=aggregate,
                          hidden=plan.hidden)


__all__ = [
    "RowFn", "Layout", "CompiledSelect", "compile_select", "compile_truth", "split_filter",
    "read_spec", "collect_refs", "all_of",
    "compile_predicate", "compile_value", "compile_projection", "hash_key",
    "render_expression",
]
