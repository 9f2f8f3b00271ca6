"""SQL tokenizer.

A hand written tokenizer for the SQL subset the engine supports, including the
paper's ``DECLARE PURPOSE ... SET ACCURACY LEVEL ... FOR ...`` extension.  The
tokenizer is deliberately small: identifiers, keywords, numeric and string
literals, operators and punctuation.  ``?`` is tokenized as punctuation and
parsed into a qmark parameter placeholder (PEP 249 ``paramstyle = "qmark"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..core.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO", "VALUES",
    "DELETE", "UPDATE", "SET", "CREATE", "TABLE", "DOMAIN", "PRIMARY", "KEY",
    "NULL", "LIKE", "IN", "BETWEEN", "IS", "GROUP", "BY", "ORDER", "ASC",
    "DESC", "LIMIT", "JOIN", "INNER", "LEFT", "ON", "AS", "COUNT", "SUM",
    "AVG", "MIN", "MAX", "DISTINCT", "DECLARE", "PURPOSE", "ACCURACY", "LEVEL",
    "FOR", "DEGRADABLE", "POLICY", "LIFECYCLE", "AFTER", "THEN", "REMOVE",
    "DROP", "TRUE", "FALSE", "BEGIN", "COMMIT", "ROLLBACK", "INDEX", "USING",
    "EXPLAIN", "HAVING", "ANALYZE",
}


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    token_type: TokenType
    value: str
    position: int

    def matches_keyword(self, *keywords: str) -> bool:
        return self.token_type is TokenType.KEYWORD and self.value in keywords

    def __str__(self) -> str:
        return f"{self.value!r}"


_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "*", "+", "-", "/")
_PUNCTUATION = "(),.;?"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql`` into a list of tokens ending with an EOF token."""
    tokens: List[Token] = []
    index = 0
    length = len(sql)
    while index < length:
        char = sql[index]
        if char.isspace():
            index += 1
            continue
        if char == "-" and index + 1 < length and sql[index + 1] == "-":
            # Line comment.
            while index < length and sql[index] != "\n":
                index += 1
            continue
        if char == "'":
            end = index + 1
            parts = []
            while True:
                if end >= length:
                    raise ParseError(f"unterminated string literal at offset {index}")
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        parts.append("'")
                        end += 2
                        continue
                    break
                parts.append(sql[end])
                end += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), index))
            index = end + 1
            continue
        if char.isdigit() or (char == "." and index + 1 < length and sql[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (sql[end].isdigit() or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(Token(TokenType.NUMBER, sql[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, index))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, index))
            index = end
            continue
        matched_operator = None
        for operator in _OPERATORS:
            if sql.startswith(operator, index):
                matched_operator = operator
                break
        if matched_operator is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_operator, index))
            index += len(matched_operator)
            continue
        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, char, index))
            index += 1
            continue
        raise ParseError(f"unexpected character {char!r} at offset {index}")
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        #: Number of ``?`` placeholders handed out so far (qmark numbering).
        self.placeholder_count = 0

    def next_placeholder_index(self) -> int:
        """Allocate the next 0-based qmark placeholder index."""
        index = self.placeholder_count
        self.placeholder_count += 1
        return index

    def peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.token_type is not TokenType.EOF:
            self._index += 1
        return token

    def accept_keyword(self, *keywords: str) -> Optional[Token]:
        if self.peek().matches_keyword(*keywords):
            return self.advance()
        return None

    def expect_keyword(self, *keywords: str) -> Token:
        token = self.accept_keyword(*keywords)
        if token is None:
            raise ParseError(
                f"expected {' or '.join(keywords)}, got {self.peek()} "
                f"at offset {self.peek().position}"
            )
        return token

    def accept_punctuation(self, value: str) -> Optional[Token]:
        token = self.peek()
        if token.token_type is TokenType.PUNCTUATION and token.value == value:
            return self.advance()
        return None

    def expect_punctuation(self, value: str) -> Token:
        token = self.accept_punctuation(value)
        if token is None:
            raise ParseError(
                f"expected {value!r}, got {self.peek()} at offset {self.peek().position}"
            )
        return token

    def accept_operator(self, *operators: str) -> Optional[Token]:
        token = self.peek()
        if token.token_type is TokenType.OPERATOR and token.value in operators:
            return self.advance()
        return None

    def expect_identifier(self) -> Token:
        token = self.peek()
        if token.token_type is TokenType.IDENTIFIER:
            return self.advance()
        # Non-reserved use of keywords as identifiers (column named "level"...).
        if token.token_type is TokenType.KEYWORD:
            return self.advance()
        raise ParseError(
            f"expected identifier, got {token} at offset {token.position}"
        )


__all__ = ["Token", "TokenType", "TokenStream", "tokenize", "KEYWORDS"]
