"""Property tests for transaction rollback and commit.

Random INSERT/UPDATE/DELETE/CREATE INDEX sequences, including statements
that fail half way (a duplicate key in a multi-row INSERT, an UPDATE
that moves a primary key onto an existing one), run inside one
transaction.  A rollback, explicit or forced by the failure, must leave
rows (content and order), the primary-key index and every secondary
index equal to a deep copy taken before ``begin``; a commit must leave
the same tables as running the statements on a plain executor.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.db import (
    Database,
    Executor,
    IntegrityError,
    SchemaError,
    TransactionManager,
    execute,
)
from repro.db.query import QueryError
from repro.sim import Simulator

_IDS = st.integers(min_value=0, max_value=7)
_A = st.integers(min_value=0, max_value=3)
_B = st.sampled_from(["x", "y", "z"])
_SMALL = st.integers(min_value=0, max_value=2)


def _build(t_rows, p_rows) -> Database:
    """``t`` has a primary key and an index on ``a``; ``p`` has no
    primary key (duplicate rows allowed) and an index on ``x``."""
    db = Database()
    execute(db, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
    execute(db, "CREATE TABLE p (x INTEGER, y INTEGER)")
    execute(db, "CREATE INDEX ON t (a)")
    execute(db, "CREATE INDEX ON p (x)")
    for row in t_rows:
        execute(db, "INSERT INTO t (id, a, b) VALUES (?, ?, ?)", row)
    for row in p_rows:
        execute(db, "INSERT INTO p (x, y) VALUES (?, ?)", row)
    return db


_STATEMENTS = st.one_of(
    st.tuples(st.just("INSERT INTO t (id, a, b) VALUES (?, ?, ?)"),
              st.tuples(_IDS, _A, _B)),
    # A duplicate id in the second row fails after the first is stored.
    st.tuples(st.just("INSERT INTO t (id, a, b) VALUES (?, ?, ?), "
                      "(?, ?, ?)"),
              st.tuples(_IDS, _A, _B, _IDS, _A, _B)),
    st.tuples(st.just("UPDATE t SET a = ? WHERE id = ?"),
              st.tuples(_A, _IDS)),
    st.tuples(st.just("UPDATE t SET b = ?, a = a + 1 WHERE a = ?"),
              st.tuples(_B, _A)),
    # Moves primary keys; collides when id + 1 is still taken.
    st.tuples(st.just("UPDATE t SET id = id + 1 WHERE a = ?"),
              st.tuples(_A)),
    st.tuples(st.just("UPDATE t SET id = ? WHERE id = ?"),
              st.tuples(_IDS, _IDS)),
    st.tuples(st.just("DELETE FROM t WHERE a = ?"), st.tuples(_A)),
    st.tuples(st.just("DELETE FROM t WHERE id = ?"), st.tuples(_IDS)),
    st.tuples(st.just("CREATE INDEX ON t (b)"), st.just(())),
    st.tuples(st.just("INSERT INTO p (x, y) VALUES (?, ?)"),
              st.tuples(_SMALL, _SMALL)),
    st.tuples(st.just("UPDATE p SET y = ? WHERE x = ?"),
              st.tuples(_SMALL, _SMALL)),
    st.tuples(st.just("UPDATE p SET x = x + 1 WHERE y = ?"),
              st.tuples(_SMALL)),
    st.tuples(st.just("DELETE FROM p WHERE x = ?"), st.tuples(_SMALL)),
    st.tuples(st.just("CREATE INDEX ON p (y)"), st.just(())),
)

_T_ROWS = st.lists(st.tuples(_IDS, _A, _B), max_size=6,
                   unique_by=lambda row: row[0])
_P_ROWS = st.lists(st.tuples(_SMALL, _SMALL), max_size=6)


def _image(table) -> tuple:
    return copy.deepcopy((table.rows, table._pk_index, table._indexes))


def _assert_consistent(table) -> None:
    """Every index entry is one of the table's own row objects, and
    every row sits in exactly one bucket of each index."""
    ids = {id(row) for row in table.rows}
    assert len(ids) == len(table.rows)
    if table.primary_key is not None:
        pk = table.primary_key.name
        assert len(table._pk_index) == len(table.rows)
        for key, row in table._pk_index.items():
            assert id(row) in ids and row[pk] == key
    for column, index in table._indexes.items():
        members = [row for bucket in index.values() for row in bucket]
        assert sorted(map(id, members)) == sorted(ids)
        for value, bucket in index.items():
            assert all(row[column] == value for row in bucket)


def _run_in_txn(db: Database, statements, finish: str) -> bool:
    """Run ``statements`` in one transaction; ``finish`` it with commit
    or rollback.  Returns whether every statement succeeded."""
    sim = Simulator()
    manager = TransactionManager(sim, db)
    outcome = {"ok": True}

    def work(env):
        txn = manager.begin()
        for sql, params in statements:
            try:
                yield txn.execute(sql, params)
            except (IntegrityError, SchemaError, QueryError):
                outcome["ok"] = False
                assert txn.state == txn.ABORTED
                return
        if finish == "commit":
            txn.commit()
        else:
            txn.rollback()

    sim.spawn(work(sim))
    sim.run(until=60)
    return outcome["ok"]


@settings(max_examples=300, deadline=None)
@given(_T_ROWS, _P_ROWS, st.lists(_STATEMENTS, max_size=8),
       st.sampled_from(["commit", "rollback"]))
def test_transaction_matches_before_image_or_plain_executor(
        t_rows, p_rows, statements, finish):
    db = _build(t_rows, p_rows)
    before = {name: _image(db.tables[name]) for name in ("t", "p")}
    ok = _run_in_txn(db, statements, finish)

    if ok and finish == "commit":
        plain = _build(t_rows, p_rows)
        executor = Executor(plain)
        for sql, params in statements:
            executor.execute(sql, params)
        expected = {name: _image(plain.tables[name]) for name in ("t", "p")}
    else:
        expected = before
    for name in ("t", "p"):
        table = db.tables[name]
        assert _image(table) == expected[name], name
        _assert_consistent(table)


def test_multi_row_insert_failure_undoes_the_stored_rows():
    db = _build([(1, 0, "x")], [])
    ok = _run_in_txn(db, [("INSERT INTO t (id, a, b) VALUES (?, ?, ?), "
                           "(?, ?, ?), (?, ?, ?)",
                           (2, 1, "y", 3, 1, "z", 1, 2, "x"))], "commit")
    assert not ok
    assert db.tables["t"].rows == [{"id": 1, "a": 0, "b": "x"}]
    assert list(db.tables["t"]._indexes["a"]) == [0]


def test_rollback_of_duplicate_rows_keeps_order():
    db = _build([], [(1, 1), (2, 2), (1, 1), (1, 1)])
    ok = _run_in_txn(db, [("DELETE FROM p WHERE x = ?", (1,)),
                          ("INSERT INTO p (x, y) VALUES (?, ?)", (1, 1)),
                          ("UPDATE p SET y = ? WHERE x = ?", (0, 2))],
                     "rollback")
    assert ok
    assert db.tables["p"].rows == [{"x": 1, "y": 1}, {"x": 2, "y": 2},
                                   {"x": 1, "y": 1}, {"x": 1, "y": 1}]
    _assert_consistent(db.tables["p"])


def test_rollback_restores_table_containers_in_place():
    """Rollback refills ``rows``, ``_pk_index`` and ``_indexes`` in
    place: anything holding one of them keeps seeing the table."""
    db = _build([(1, 0, "x"), (2, 1, "y")], [(0, 0)])
    table = db.tables["t"]
    containers = (table.rows, table._pk_index, table._indexes)
    ok = _run_in_txn(db, [("INSERT INTO t (id, a, b) VALUES (?, ?, ?)",
                           (3, 2, "z")),
                          ("UPDATE t SET a = ? WHERE id = ?", (3, 1)),
                          ("DELETE FROM t WHERE id = ?", (2,)),
                          ("CREATE INDEX ON t (b)", ())],
                     "rollback")
    assert ok
    assert table.rows is containers[0]
    assert table._pk_index is containers[1]
    assert table._indexes is containers[2]
    assert list(table._indexes) == ["a"]
    _assert_consistent(table)
