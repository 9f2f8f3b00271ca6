"""Security-minded parameter binding tests.

Binding is structural (AST substitution), never textual: a parameter value
can never change the *shape* of a statement.  These tests feed classic SQL
injection payloads through every placeholder position and prove they round
trip as plain data.
"""

from __future__ import annotations

import pytest

import repro
from repro import connect
from repro.query import ast_nodes as ast
from repro.query.parameters import bind_parameters, count_placeholders
from repro.query.parser import parse

INJECTION_PAYLOADS = [
    "'; DROP TABLE person; --",
    "Robert'); DROP TABLE students;--",
    "' OR '1'='1",
    "\" OR 1=1 --",
    "1; DELETE FROM t",
    "O'Brien",                      # the honest quote case
    "line\nbreak -- comment",
    "名前; DROP TABLE t; --",
]


@pytest.fixture
def conn():
    connection = connect()
    cur = connection.cursor()
    cur.execute("CREATE TABLE person (id INT PRIMARY KEY, name TEXT)")
    connection.commit()
    yield connection
    connection.close()


class TestInjectionRoundTrip:
    @pytest.mark.parametrize("payload", INJECTION_PAYLOADS)
    def test_insert_payload_is_data(self, conn, payload):
        cur = conn.cursor()
        cur.execute("INSERT INTO person VALUES (?, ?)", (1, payload))
        conn.commit()
        # the table survived and the payload is stored verbatim
        assert cur.execute("SELECT name FROM person").fetchall() == [(payload,)]
        assert cur.execute("SELECT name FROM person WHERE name = ?",
                           (payload,)).fetchall() == [(payload,)]

    def test_or_1_equals_1_does_not_widen_where(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO person VALUES (?, ?)",
                        [(1, "alice"), (2, "bob")])
        conn.commit()
        # a textual driver would return every row here
        assert cur.execute("SELECT * FROM person WHERE name = ?",
                           ("' OR '1'='1",)).fetchall() == []

    def test_payload_in_update_and_delete(self, conn):
        cur = conn.cursor()
        cur.execute("INSERT INTO person VALUES (?, ?)", (1, "alice"))
        cur.execute("UPDATE person SET name = ? WHERE id = ?",
                    ("x'; DROP TABLE person; --", 1))
        conn.commit()
        assert cur.execute("SELECT name FROM person WHERE id = ?",
                           (1,)).fetchone() == ("x'; DROP TABLE person; --",)
        cur.execute("DELETE FROM person WHERE name = ?",
                    ("x'; DROP TABLE person; --",))
        conn.commit()
        assert cur.execute("SELECT * FROM person").fetchall() == []

    def test_payload_in_in_list_and_between(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO person VALUES (?, ?)",
                        [(1, "a"), (2, "b"), (3, "c")])
        conn.commit()
        rows = cur.execute("SELECT id FROM person WHERE name IN (?, ?) "
                           "ORDER BY id", ("a", "'; --")).fetchall()
        assert rows == [(1,)]
        rows = cur.execute("SELECT id FROM person WHERE id BETWEEN ? AND ?",
                           (2, 3)).fetchall()
        assert rows == [(2,), (3,)]


class TestBindingContract:
    def test_wrong_parameter_count(self, conn):
        cur = conn.cursor()
        with pytest.raises(repro.InterfaceError):
            cur.execute("INSERT INTO person VALUES (?, ?)", (1,))
        with pytest.raises(repro.InterfaceError):
            cur.execute("SELECT * FROM person", (1,))

    def test_unbound_placeholder_via_legacy_facade(self, conn):
        with pytest.raises(repro.InterfaceError):
            conn.engine.execute("SELECT * FROM person WHERE id = ?")
        # and nothing was written by an unbound INSERT either
        with pytest.raises(repro.InterfaceError):
            conn.engine.execute("INSERT INTO person VALUES (?, ?)")
        assert conn.engine.row_count("person") == 0

    def test_execute_statement_rejects_unbound(self, conn):
        # a prepared statement executed directly travels with its parameters:
        # without them no Placeholder object can reach storage
        engine = conn.engine
        for sql in ("INSERT INTO person VALUES (1, ?)",
                    "UPDATE person SET name = ? WHERE id = 1",
                    "DELETE FROM person WHERE id = ?"):
            with pytest.raises(repro.InterfaceError):
                engine.execute_statement(engine.prepare(sql))
        assert engine.row_count("person") == 0

    def test_parameter_errors_catchable_both_ways(self, conn):
        # PEP 249 files wrong-arity under ProgrammingError; drivers raise
        # InterfaceError for unbindable types — we satisfy both catch styles
        for catch in (repro.InterfaceError, repro.ProgrammingError,
                      repro.DatabaseError):
            with pytest.raises(catch):
                conn.cursor().execute("INSERT INTO person VALUES (?, ?)", (1,))

    def test_unsupported_parameter_types(self, conn):
        cur = conn.cursor()
        for bad in ([1, 2], {"a": 1}, object(), b"bytes"):
            with pytest.raises(repro.InterfaceError):
                cur.execute("INSERT INTO person VALUES (?, ?)", (1, bad))

    def test_bare_string_params_rejected(self, conn):
        # a classic driver bug: "ab" silently meaning ("a", "b")
        with pytest.raises(repro.InterfaceError):
            conn.cursor().execute("INSERT INTO person VALUES (?, ?)", "ab")

    def test_legacy_facade_accepts_params(self, conn):
        db = conn.engine
        db.execute("INSERT INTO person VALUES (?, ?)", params=(1, "alice"))
        result = db.execute("SELECT name FROM person WHERE id = ?", params=(1,))
        assert result.rows == [("alice",)]


class TestParserPlaceholders:
    def test_qmark_positions_are_sequential(self):
        statement = parse("SELECT * FROM t WHERE a = ? AND b IN (?, ?) "
                          "AND c BETWEEN ? AND ?")
        assert count_placeholders(statement) == 5

    def test_insert_multi_row_placeholders(self):
        statement = parse("INSERT INTO t VALUES (?, ?), (?, ?)")
        assert count_placeholders(statement) == 4
        bound = bind_parameters(statement, (1, "a", 2, "b"))
        assert bound.rows == ((1, "a"), (2, "b"))

    def test_binding_is_pure(self):
        statement = parse("SELECT * FROM t WHERE a = ?")
        bound = bind_parameters(statement, ("x",))
        assert count_placeholders(statement) == 1     # original untouched
        assert count_placeholders(bound) == 0
        assert isinstance(bound.where.right, ast.Literal)
        assert bound.where.right.value == "x"

    def test_question_mark_inside_string_literal_is_not_a_placeholder(self):
        statement = parse("SELECT * FROM t WHERE a = 'what?'")
        assert count_placeholders(statement) == 0
