"""Recursive descent parser for the supported SQL dialect."""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.errors import ParseError
from . import ast_nodes as ast
from .tokens import TokenStream, TokenType, tokenize

_AGGREGATE_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement."""
    stream = TokenStream(tokenize(sql))
    statement = _parse_statement(stream)
    stream.accept_punctuation(";")
    token = stream.peek()
    if token.token_type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing input at {token} (offset {token.position})")
    return statement


def parse_script(sql: str) -> List[ast.Statement]:
    """Parse a semicolon separated list of statements."""
    stream = TokenStream(tokenize(sql))
    statements = []
    while stream.peek().token_type is not TokenType.EOF:
        statements.append(_parse_statement(stream))
        while stream.accept_punctuation(";"):
            pass
    return statements


def _parse_statement(stream: TokenStream) -> ast.Statement:
    token = stream.peek()
    if token.matches_keyword("EXPLAIN"):
        stream.advance()
        analyze = bool(stream.accept_keyword("ANALYZE"))
        return ast.Explain(_parse_statement(stream), analyze=analyze)
    if token.matches_keyword("SELECT"):
        return _parse_select(stream)
    if token.matches_keyword("INSERT"):
        return _parse_insert(stream)
    if token.matches_keyword("UPDATE"):
        return _parse_update(stream)
    if token.matches_keyword("DELETE"):
        return _parse_delete(stream)
    if token.matches_keyword("CREATE"):
        return _parse_create(stream)
    if token.matches_keyword("DROP"):
        return _parse_drop(stream)
    if token.matches_keyword("DECLARE"):
        return _parse_declare_purpose(stream)
    raise ParseError(f"unsupported statement starting with {token} at offset {token.position}")


# -- CREATE --------------------------------------------------------------------


def _parse_create(stream: TokenStream) -> ast.Statement:
    stream.expect_keyword("CREATE")
    if stream.accept_keyword("TABLE"):
        return _parse_create_table(stream)
    if stream.accept_keyword("INDEX"):
        return _parse_create_index(stream)
    raise ParseError(f"expected TABLE or INDEX after CREATE, got {stream.peek()}")


def _parse_create_table(stream: TokenStream) -> ast.CreateTable:
    table = stream.expect_identifier().value
    stream.expect_punctuation("(")
    columns: List[ast.ColumnDefinition] = []
    while True:
        columns.append(_parse_column_definition(stream))
        if stream.accept_punctuation(","):
            continue
        break
    stream.expect_punctuation(")")
    return ast.CreateTable(table=table, columns=tuple(columns))


def _parse_column_definition(stream: TokenStream) -> ast.ColumnDefinition:
    name = stream.expect_identifier().value
    type_name = stream.expect_identifier().value
    primary_key = False
    not_null = False
    degradable = False
    domain: Optional[str] = None
    policy: Optional[str] = None
    while True:
        if stream.accept_keyword("PRIMARY"):
            stream.expect_keyword("KEY")
            primary_key = True
            continue
        if stream.accept_keyword("NOT"):
            stream.expect_keyword("NULL")
            not_null = True
            continue
        if stream.accept_keyword("DEGRADABLE"):
            degradable = True
            if stream.accept_keyword("DOMAIN"):
                domain = stream.expect_identifier().value
            continue
        if stream.accept_keyword("POLICY"):
            policy = stream.expect_identifier().value
            continue
        break
    return ast.ColumnDefinition(
        name=name, type_name=type_name, primary_key=primary_key, not_null=not_null,
        degradable=degradable, domain=domain, policy=policy,
    )


def _parse_create_index(stream: TokenStream) -> ast.CreateIndex:
    name = stream.expect_identifier().value
    stream.expect_keyword("ON")
    table = stream.expect_identifier().value
    stream.expect_punctuation("(")
    column = stream.expect_identifier().value
    stream.expect_punctuation(")")
    method = "btree"
    if stream.accept_keyword("USING"):
        method = stream.expect_identifier().value.lower()
    return ast.CreateIndex(name=name, table=table, column=column, method=method)


def _parse_drop(stream: TokenStream) -> ast.DropTable:
    stream.expect_keyword("DROP")
    stream.expect_keyword("TABLE")
    table = stream.expect_identifier().value
    return ast.DropTable(table=table)


# -- INSERT ---------------------------------------------------------------------


def _parse_insert(stream: TokenStream) -> ast.Insert:
    stream.expect_keyword("INSERT")
    stream.expect_keyword("INTO")
    table = stream.expect_identifier().value
    columns: Optional[Tuple[str, ...]] = None
    if stream.accept_punctuation("("):
        names = [stream.expect_identifier().value]
        while stream.accept_punctuation(","):
            names.append(stream.expect_identifier().value)
        stream.expect_punctuation(")")
        columns = tuple(names)
    stream.expect_keyword("VALUES")
    rows: List[Tuple[Any, ...]] = []
    while True:
        stream.expect_punctuation("(")
        values = [_parse_literal_value(stream)]
        while stream.accept_punctuation(","):
            values.append(_parse_literal_value(stream))
        stream.expect_punctuation(")")
        rows.append(tuple(values))
        if stream.accept_punctuation(","):
            continue
        break
    return ast.Insert(table=table, columns=columns, rows=tuple(rows))


def _parse_literal_value(stream: TokenStream) -> Any:
    token = stream.peek()
    if token.token_type is TokenType.PUNCTUATION and token.value == "?":
        stream.advance()
        return ast.Placeholder(stream.next_placeholder_index())
    if token.token_type is TokenType.STRING:
        stream.advance()
        return token.value
    if token.token_type is TokenType.NUMBER:
        stream.advance()
        return _number(token.value)
    if token.matches_keyword("NULL"):
        stream.advance()
        return None
    if token.matches_keyword("TRUE"):
        stream.advance()
        return True
    if token.matches_keyword("FALSE"):
        stream.advance()
        return False
    if token.token_type is TokenType.OPERATOR and token.value == "-":
        stream.advance()
        number = stream.peek()
        if number.token_type is not TokenType.NUMBER:
            raise ParseError(f"expected number after '-', got {number}")
        stream.advance()
        return -_number(number.value)
    raise ParseError(f"expected literal value, got {token} at offset {token.position}")


def _number(text: str) -> Any:
    return float(text) if "." in text else int(text)


# -- SELECT -----------------------------------------------------------------------


def _parse_select(stream: TokenStream) -> ast.Select:
    stream.expect_keyword("SELECT")
    items = _parse_select_items(stream)
    stream.expect_keyword("FROM")
    table = stream.expect_identifier().value
    table_alias = None
    if stream.accept_keyword("AS"):
        table_alias = stream.expect_identifier().value
    elif stream.peek().token_type is TokenType.IDENTIFIER:
        table_alias = stream.advance().value
    joins: List[ast.JoinClause] = []
    while True:
        kind = "inner"
        if stream.accept_keyword("LEFT"):
            kind = "left"
            stream.expect_keyword("JOIN")
        elif stream.accept_keyword("INNER"):
            stream.expect_keyword("JOIN")
        elif stream.accept_keyword("JOIN"):
            pass
        else:
            break
        join_table = stream.expect_identifier().value
        join_alias = None
        if stream.accept_keyword("AS"):
            join_alias = stream.expect_identifier().value
        elif stream.peek().token_type is TokenType.IDENTIFIER and not stream.peek().matches_keyword("ON"):
            join_alias = stream.advance().value
        stream.expect_keyword("ON")
        left = _parse_column_ref(stream)
        operator = stream.accept_operator("=")
        if operator is None:
            raise ParseError("only equi-joins are supported")
        right = _parse_column_ref(stream)
        joins.append(ast.JoinClause(table=join_table, alias=join_alias,
                                    left=left, right=right, kind=kind))
    where = None
    if stream.accept_keyword("WHERE"):
        where = _parse_expression(stream)
    group_by: List[ast.ColumnRef] = []
    if stream.accept_keyword("GROUP"):
        stream.expect_keyword("BY")
        group_by.append(_parse_column_ref(stream))
        while stream.accept_punctuation(","):
            group_by.append(_parse_column_ref(stream))
    having = None
    if stream.accept_keyword("HAVING"):
        having = _parse_expression(stream)
    order_by: List[ast.OrderItem] = []
    if stream.accept_keyword("ORDER"):
        stream.expect_keyword("BY")
        while True:
            column = _parse_column_ref(stream)
            descending = False
            if stream.accept_keyword("DESC"):
                descending = True
            else:
                stream.accept_keyword("ASC")
            order_by.append(ast.OrderItem(column=column, descending=descending))
            if stream.accept_punctuation(","):
                continue
            break
    limit = None
    if stream.accept_keyword("LIMIT"):
        token = stream.peek()
        if token.token_type is not TokenType.NUMBER:
            raise ParseError(f"expected number after LIMIT, got {token}")
        stream.advance()
        limit = int(float(token.value))
    return ast.Select(
        table=table, table_alias=table_alias, items=tuple(items), joins=tuple(joins),
        where=where, group_by=tuple(group_by), having=having,
        order_by=tuple(order_by), limit=limit,
    )


def _parse_select_items(stream: TokenStream) -> List[Any]:
    items: List[Any] = []
    while True:
        token = stream.peek()
        if token.token_type is TokenType.OPERATOR and token.value == "*":
            stream.advance()
            items.append(ast.Star())
        else:
            expression = _parse_select_expression(stream)
            alias = None
            if stream.accept_keyword("AS"):
                alias = stream.expect_identifier().value
            items.append(ast.SelectItem(expression=expression, alias=alias))
        if stream.accept_punctuation(","):
            continue
        break
    return items


def _parse_select_expression(stream: TokenStream) -> ast.Expression:
    token = stream.peek()
    if token.matches_keyword(*_AGGREGATE_KEYWORDS):
        function = stream.advance().value
        stream.expect_punctuation("(")
        distinct = bool(stream.accept_keyword("DISTINCT"))
        argument: Optional[ast.ColumnRef] = None
        star = stream.peek()
        if star.token_type is TokenType.OPERATOR and star.value == "*":
            stream.advance()
        else:
            argument = _parse_column_ref(stream)
        stream.expect_punctuation(")")
        return ast.Aggregate(function=function, argument=argument, distinct=distinct)
    return _parse_column_ref(stream)


def _parse_column_ref(stream: TokenStream) -> ast.ColumnRef:
    first = stream.expect_identifier().value
    if stream.accept_punctuation("."):
        second = stream.expect_identifier().value
        return ast.ColumnRef(column=second.lower(), table=first.lower())
    return ast.ColumnRef(column=first.lower())


# -- UPDATE / DELETE ------------------------------------------------------------------


def _parse_update(stream: TokenStream) -> ast.Update:
    stream.expect_keyword("UPDATE")
    table = stream.expect_identifier().value
    stream.expect_keyword("SET")
    assignments: List[Tuple[str, Any]] = []
    while True:
        column = stream.expect_identifier().value
        if stream.accept_operator("=") is None:
            raise ParseError(f"expected '=' in UPDATE assignment near {stream.peek()}")
        value = _parse_literal_value(stream)
        assignments.append((column.lower(), value))
        if stream.accept_punctuation(","):
            continue
        break
    where = None
    if stream.accept_keyword("WHERE"):
        where = _parse_expression(stream)
    return ast.Update(table=table, assignments=tuple(assignments), where=where)


def _parse_delete(stream: TokenStream) -> ast.Delete:
    stream.expect_keyword("DELETE")
    stream.expect_keyword("FROM")
    table = stream.expect_identifier().value
    where = None
    if stream.accept_keyword("WHERE"):
        where = _parse_expression(stream)
    return ast.Delete(table=table, where=where)


# -- DECLARE PURPOSE ---------------------------------------------------------------------


def _parse_declare_purpose(stream: TokenStream) -> ast.DeclarePurpose:
    stream.expect_keyword("DECLARE")
    stream.expect_keyword("PURPOSE")
    name = stream.expect_identifier().value
    clauses: List[ast.AccuracyClause] = []
    if stream.accept_keyword("SET"):
        stream.expect_keyword("ACCURACY")
        stream.expect_keyword("LEVEL")
        while True:
            level_token = stream.peek()
            if level_token.token_type is TokenType.NUMBER:
                stream.advance()
                level: Any = int(float(level_token.value))
            else:
                level = stream.expect_identifier().value
            stream.expect_keyword("FOR")
            reference = _parse_column_ref(stream)
            if reference.table is None:
                raise ParseError(
                    "accuracy clauses must use qualified column names "
                    "(<table>.<column>)"
                )
            clauses.append(ast.AccuracyClause(level=level, table=reference.table,
                                              column=reference.column))
            if stream.accept_punctuation(","):
                continue
            break
    return ast.DeclarePurpose(name=name, clauses=tuple(clauses))


# -- expressions -----------------------------------------------------------------------------


def _parse_expression(stream: TokenStream) -> ast.Expression:
    return _parse_or(stream)


def _parse_or(stream: TokenStream) -> ast.Expression:
    operands = [_parse_and(stream)]
    while stream.accept_keyword("OR"):
        operands.append(_parse_and(stream))
    if len(operands) == 1:
        return operands[0]
    return ast.BooleanOp(operator="OR", operands=tuple(operands))


def _parse_and(stream: TokenStream) -> ast.Expression:
    operands = [_parse_not(stream)]
    while stream.accept_keyword("AND"):
        operands.append(_parse_not(stream))
    if len(operands) == 1:
        return operands[0]
    return ast.BooleanOp(operator="AND", operands=tuple(operands))


def _parse_not(stream: TokenStream) -> ast.Expression:
    if stream.accept_keyword("NOT"):
        return ast.Not(_parse_not(stream))
    return _parse_predicate(stream)


def _parse_predicate(stream: TokenStream) -> ast.Expression:
    if stream.accept_punctuation("("):
        expression = _parse_expression(stream)
        stream.expect_punctuation(")")
        return expression
    operand = _parse_operand(stream)
    token = stream.peek()
    if token.matches_keyword("IS"):
        stream.advance()
        negated = bool(stream.accept_keyword("NOT"))
        stream.expect_keyword("NULL")
        return ast.IsNull(operand=operand, negated=negated)
    negated = False
    if token.matches_keyword("NOT"):
        stream.advance()
        negated = True
        token = stream.peek()
    if token.matches_keyword("LIKE"):
        stream.advance()
        pattern = _parse_operand(stream)
        comparison = ast.Comparison(left=operand, operator="LIKE", right=pattern)
        return ast.Not(comparison) if negated else comparison
    if token.matches_keyword("IN"):
        stream.advance()
        stream.expect_punctuation("(")
        values = [_parse_literal_value(stream)]
        while stream.accept_punctuation(","):
            values.append(_parse_literal_value(stream))
        stream.expect_punctuation(")")
        return ast.InList(operand=operand, values=tuple(values), negated=negated)
    if token.matches_keyword("BETWEEN"):
        stream.advance()
        low = _parse_operand(stream)
        stream.expect_keyword("AND")
        high = _parse_operand(stream)
        return ast.Between(operand=operand, low=low, high=high, negated=negated)
    if negated:
        raise ParseError(f"unexpected NOT before {token}")
    operator_token = stream.accept_operator("=", "!=", "<>", "<", "<=", ">", ">=")
    if operator_token is None:
        raise ParseError(f"expected comparison operator, got {stream.peek()}")
    operator = "!=" if operator_token.value == "<>" else operator_token.value
    right = _parse_operand(stream)
    return ast.Comparison(left=operand, operator=operator, right=right)


def _parse_operand(stream: TokenStream) -> ast.Expression:
    token = stream.peek()
    if token.token_type is TokenType.PUNCTUATION and token.value == "?":
        stream.advance()
        return ast.Placeholder(stream.next_placeholder_index())
    if token.token_type in (TokenType.STRING, TokenType.NUMBER) or \
            token.matches_keyword("NULL", "TRUE", "FALSE") or \
            (token.token_type is TokenType.OPERATOR and token.value == "-"):
        return ast.Literal(_parse_literal_value(stream))
    return _parse_column_ref(stream)


__all__ = ["parse", "parse_script"]
