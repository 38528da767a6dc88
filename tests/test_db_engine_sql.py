"""Tests for the storage engine, SQL parser and query executor."""

import pytest
from hypothesis import given, strategies as st

from repro.db import (
    Column,
    Database,
    INTEGER,
    IntegrityError,
    REAL,
    SchemaError,
    SQLSyntaxError,
    TEXT,
    execute,
    parse,
)
from repro.db.query import QueryError
from repro.db.sql import Comparison, Insert, Literal, Param, Select


def sample_db():
    db = Database()
    execute(db, "CREATE TABLE items (id INTEGER PRIMARY KEY, "
                "name TEXT NOT NULL, price REAL, stock INTEGER)")
    execute(db, "INSERT INTO items (id, name, price, stock) VALUES "
                "(1, 'phone', 199.0, 10), (2, 'case', 9.5, 100), "
                "(3, 'charger', 25.0, 0)")
    return db


# ----------------------------------------------------------------- engine
def test_create_and_insert():
    db = sample_db()
    assert len(db.table("items")) == 3


def test_duplicate_table_rejected():
    db = sample_db()
    with pytest.raises(SchemaError):
        execute(db, "CREATE TABLE items (id INTEGER)")
    execute(db, "CREATE TABLE IF NOT EXISTS items (id INTEGER)")  # no error


def test_primary_key_uniqueness():
    db = sample_db()
    with pytest.raises(IntegrityError):
        execute(db, "INSERT INTO items (id, name) VALUES (1, 'dup')")


def test_not_null_enforced():
    db = sample_db()
    with pytest.raises(IntegrityError):
        execute(db, "INSERT INTO items (id, price) VALUES (9, 1.0)")


def test_type_coercion_and_rejection():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
    execute(db, "INSERT INTO t (a, b, c) VALUES (5, 5, 'x')")
    row = next(iter(execute(db, "SELECT * FROM t")))
    assert isinstance(row["b"], float)
    with pytest.raises(IntegrityError):
        execute(db, "INSERT INTO t (a, b, c) VALUES ('notanumber', 1.0, 'x')")


def test_unknown_column_rejected():
    db = sample_db()
    with pytest.raises(SchemaError):
        execute(db, "INSERT INTO items (id, bogus) VALUES (9, 1)")
    with pytest.raises(SchemaError):
        execute(db, "UPDATE items SET bogus = 1")


def test_unknown_table_rejected():
    db = Database()
    with pytest.raises(SchemaError):
        execute(db, "SELECT * FROM ghosts")


# ----------------------------------------------------------------- parser
def test_parse_select_structure():
    stmt = parse("SELECT id, name FROM items WHERE price > 10 "
                 "ORDER BY price DESC LIMIT 5")
    assert isinstance(stmt, Select)
    assert stmt.table == "items"
    assert [c.name for c in stmt.columns] == ["id", "name"]
    assert stmt.order_by.descending
    assert stmt.limit == 5


def test_parse_handles_quoted_strings():
    stmt = parse("INSERT INTO t (a) VALUES ('it''s here')")
    assert isinstance(stmt, Insert)
    assert stmt.rows[0][0] == Literal("it's here")


def test_parse_params_numbered_in_order():
    stmt = parse("SELECT * FROM t WHERE a = ? AND b = ?")
    comparisons = stmt.where.items
    assert comparisons[0].right == Param(0)
    assert comparisons[1].right == Param(1)


def test_parse_negative_numbers():
    stmt = parse("INSERT INTO t (a) VALUES (-5)")
    assert stmt.rows[0][0] == Literal(-5)


@pytest.mark.parametrize("bad", [
    "",
    "SELEKT * FROM t",
    "SELECT * FROM",
    "INSERT INTO t VALUES (1)",
    "SELECT * FROM t WHERE",
    "CREATE TABLE t (a WIBBLE)",
    "INSERT INTO t (a, b) VALUES (1)",
    "SELECT * FROM t; DROP TABLE t",
    "SELECT * FROM t WHERE a = 'unterminated",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SQLSyntaxError):
        parse(bad)


def test_parse_parenthesised_boolean_logic():
    stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND NOT c = 3")
    assert stmt.where.op == "AND"


# --------------------------------------------------------------- executor
def test_select_where_and_order():
    db = sample_db()
    result = execute(db, "SELECT name FROM items WHERE price < 100 "
                         "ORDER BY price")
    assert [r["name"] for r in result] == ["case", "charger"]


def test_select_star_returns_all_columns():
    db = sample_db()
    rows = list(execute(db, "SELECT * FROM items WHERE id = 2"))
    assert rows[0] == {"id": 2, "name": "case", "price": 9.5, "stock": 100}


def test_select_with_params():
    db = sample_db()
    result = execute(db, "SELECT name FROM items WHERE id = ?", (3,))
    assert result.rows == [{"name": "charger"}]


def test_param_count_mismatch():
    db = sample_db()
    with pytest.raises(QueryError):
        execute(db, "SELECT * FROM items WHERE id = ?")


def test_update_and_rowcount():
    db = sample_db()
    result = execute(db, "UPDATE items SET stock = 5 WHERE stock = 0")
    assert result.rowcount == 1
    check = execute(db, "SELECT stock FROM items WHERE id = 3")
    assert check.rows == [{"stock": 5}]


def test_delete_and_rowcount():
    db = sample_db()
    result = execute(db, "DELETE FROM items WHERE price > 20")
    assert result.rowcount == 2
    assert len(db.table("items")) == 1


def test_pk_lookup_uses_index():
    db = sample_db()
    result = execute(db, "SELECT * FROM items WHERE id = 1")
    assert result.access_path == "index(items.id)"


def test_secondary_index_used_after_create_index():
    db = sample_db()
    before = execute(db, "SELECT * FROM items WHERE name = 'case'")
    assert before.access_path == "scan(items)"
    execute(db, "CREATE INDEX ON items (name)")
    after = execute(db, "SELECT * FROM items WHERE name = 'case'")
    assert after.access_path == "index(items.name)"
    assert after.rows == before.rows


def test_index_not_used_under_or():
    db = sample_db()
    result = execute(db, "SELECT * FROM items WHERE id = 1 OR price < 10")
    assert result.access_path == "scan(items)"
    assert len(result) == 2


def test_index_stays_consistent_after_update_delete():
    db = sample_db()
    execute(db, "CREATE INDEX ON items (stock)")
    execute(db, "UPDATE items SET stock = 77 WHERE id = 2")
    assert execute(db, "SELECT id FROM items WHERE stock = 77").rows == \
        [{"id": 2}]
    assert execute(db, "SELECT id FROM items WHERE stock = 100").rows == []
    execute(db, "DELETE FROM items WHERE id = 2")
    assert execute(db, "SELECT id FROM items WHERE stock = 77").rows == []


def test_join_two_tables():
    db = sample_db()
    execute(db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, "
                "item_id INTEGER, qty INTEGER)")
    execute(db, "INSERT INTO orders (oid, item_id, qty) VALUES "
                "(100, 1, 2), (101, 3, 1), (102, 1, 5)")
    result = execute(
        db,
        "SELECT oid, name FROM orders JOIN items ON orders.item_id = items.id "
        "WHERE items.name = 'phone' ORDER BY oid"
    )
    assert result.rows == [{"oid": 100, "name": "phone"},
                           {"oid": 102, "name": "phone"}]
    assert "index-join(items.id)" in result.access_path


def test_join_without_index_still_works():
    db = sample_db()
    execute(db, "CREATE TABLE tags (label TEXT, item_name TEXT)")
    execute(db, "INSERT INTO tags (label, item_name) VALUES "
                "('sale', 'case'), ('new', 'phone')")
    result = execute(
        db,
        "SELECT label FROM items JOIN tags ON tags.item_name = items.name "
        "ORDER BY label"
    )
    assert [r["label"] for r in result] == ["new", "sale"]
    assert "nested-loop(tags)" in result.access_path


def test_null_comparisons():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER, b TEXT)")
    execute(db, "INSERT INTO t (a, b) VALUES (1, NULL), (2, 'x')")
    assert len(execute(db, "SELECT * FROM t WHERE b = NULL")) == 1
    assert len(execute(db, "SELECT * FROM t WHERE b != NULL")) == 1
    assert len(execute(db, "SELECT * FROM t WHERE b > 'a'")) == 1


def test_order_by_with_nulls_sorts_last():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER)")
    execute(db, "INSERT INTO t (a) VALUES (3), (NULL), (1)")
    result = execute(db, "SELECT a FROM t ORDER BY a")
    assert [r["a"] for r in result] == [1, 3, None]


def test_incomparable_types_raise():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER, b TEXT)")
    execute(db, "INSERT INTO t (a, b) VALUES (1, 'x')")
    with pytest.raises(QueryError):
        execute(db, "SELECT * FROM t WHERE a > 'text'")


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.text(alphabet=st.characters(
                  blacklist_characters="'\\", blacklist_categories=("Cs",)),
                  max_size=20)),
    max_size=30, unique_by=lambda t: t[0]))
def test_roundtrip_insert_select_property(rows):
    """Everything inserted with params comes back byte-identical."""
    db = Database()
    execute(db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    for key, value in rows:
        execute(db, "INSERT INTO t (k, v) VALUES (?, ?)", (key, value))
    result = execute(db, "SELECT * FROM t ORDER BY k")
    assert [(r["k"], r["v"]) for r in result] == sorted(rows)


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_parse_literal_integers_property(value):
    stmt = parse(f"INSERT INTO t (a) VALUES ({value})")
    assert stmt.rows[0][0] == Literal(value)


# ------------------------------------------------------------- arithmetic
def test_arithmetic_in_set_clause_atomic_decrement():
    db = sample_db()
    result = execute(db, "UPDATE items SET stock = stock - ? "
                         "WHERE id = ? AND stock >= ?", (4, 1, 4))
    assert result.rowcount == 1
    assert execute(db, "SELECT stock FROM items WHERE id = 1"
                   ).rows[0]["stock"] == 6


def test_arithmetic_guard_prevents_overdraw():
    db = sample_db()
    result = execute(db, "UPDATE items SET stock = stock - 1 "
                         "WHERE id = 3 AND stock > 0")
    assert result.rowcount == 0  # charger stock is 0
    assert execute(db, "SELECT stock FROM items WHERE id = 3"
                   ).rows[0]["stock"] == 0


def test_arithmetic_in_where_and_select():
    db = sample_db()
    rows = execute(db, "SELECT name FROM items WHERE price * 2 >= 50 "
                       "ORDER BY name").rows
    assert [r["name"] for r in rows] == ["charger", "phone"]
    rows = execute(db, "SELECT * FROM items WHERE stock = 99 + 1").rows
    assert rows[0]["name"] == "case"


def test_arithmetic_precedence():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER)")
    execute(db, "INSERT INTO t (a) VALUES (10)")
    # 2 + 3 * 4 = 14, not 20.
    assert execute(db, "SELECT * FROM t WHERE a = 2 + 3 * 4 - 4").rowcount \
        == 1


def test_arithmetic_with_null_yields_no_match():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER, b INTEGER)")
    execute(db, "INSERT INTO t (a, b) VALUES (1, NULL)")
    assert execute(db, "SELECT * FROM t WHERE b + 1 = 2").rowcount == 0


def test_arithmetic_type_error():
    db = Database()
    execute(db, "CREATE TABLE t (a INTEGER, b TEXT)")
    execute(db, "INSERT INTO t (a, b) VALUES (1, 'x')")
    with pytest.raises(QueryError):
        execute(db, "SELECT * FROM t WHERE b - 1 = 0")


def test_update_of_equal_rows_keeps_index_exact():
    """Two equal rows in a table without a primary key: moving both out
    of an index bucket must drop each row object, not its twin.  (A
    stale bucket entry is hidden from SELECT, which re-checks WHERE.)"""
    db = Database()
    execute(db, "CREATE TABLE p (x INTEGER, y INTEGER)")
    execute(db, "CREATE INDEX ON p (x)")
    execute(db, "INSERT INTO p (x, y) VALUES (0, 0), (1, 0)")
    # The first row joins bucket x=1 behind the second: bucket order
    # now differs from row order, and the two rows are equal.
    execute(db, "UPDATE p SET x = 1 WHERE x = 0")
    execute(db, "UPDATE p SET x = x + 1 WHERE y = 0")
    index = db.table("p")._indexes["x"]
    assert not index.get(1)
    assert index[2] == [{"x": 2, "y": 0}, {"x": 2, "y": 0}]
