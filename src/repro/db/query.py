"""Query planning and execution over the storage engine.

The planner is small but honest: equality predicates against indexed
columns (primary key or ``CREATE INDEX``-ed) use index lookups, joins
use the index on the inner table when one exists, and everything else
degrades to a scan.  ``EXPLAIN``-style access-path information is
returned alongside results so tests (and the host-computer benchmark)
can verify the index is actually being used.
"""

from __future__ import annotations

from typing import Any, Optional

from .engine import Column, Database, SchemaError, Table
from .sql import (
    Arithmetic,
    ColumnRef,
    Comparison,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Literal,
    Logical,
    Not,
    Param,
    Select,
    Update,
    parse,
)

__all__ = ["QueryError", "QueryResult", "execute", "Executor"]


class QueryError(Exception):
    """Runtime query failure (unknown column, bad parameter count...)."""


class QueryResult:
    """Rows plus metadata about how the query ran."""

    def __init__(self, rows: list[dict] | None = None, rowcount: int = 0,
                 access_path: str = "none"):
        self.rows = [] if rows is None else rows
        self.rowcount = rowcount
        self.access_path = access_path

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def execute(database: Database, statement_or_sql, params: tuple = ()) \
        -> QueryResult:
    """Parse (if needed) and run one statement against ``database``."""
    return Executor(database).execute(statement_or_sql, params)


class Executor:
    """Statement executor bound to a database.

    With an ``undo`` list every write appends its undo entries there
    (see :mod:`repro.db.engine`); a transaction passes its own.
    """

    def __init__(self, database: Database, undo: Optional[list] = None):
        self.database = database
        self.undo = undo

    def execute(self, statement_or_sql, params: tuple = ()) -> QueryResult:
        if isinstance(statement_or_sql, str):
            statement = parse(statement_or_sql)
        else:
            statement = statement_or_sql
        handler = {
            CreateTable: self._create_table,
            CreateIndex: self._create_index,
            Insert: self._insert,
            Select: self._select,
            Update: self._update,
            Delete: self._delete,
        }.get(type(statement))
        if handler is None:
            raise QueryError(f"unsupported statement {statement!r}")
        return handler(statement, params)

    # -- DDL --------------------------------------------------------------
    def _create_table(self, stmt: CreateTable, params) -> QueryResult:
        columns = [
            Column(c.name, c.type, nullable=c.nullable,
                   primary_key=c.primary_key)
            for c in stmt.columns
        ]
        self.database.create_table(stmt.table, columns,
                                   if_not_exists=stmt.if_not_exists)
        return QueryResult(access_path="ddl")

    def _create_index(self, stmt: CreateIndex, params) -> QueryResult:
        table = self.database.table(stmt.table)
        table.create_index(stmt.column, undo=self.undo)
        return QueryResult(access_path="ddl")

    # -- DML --------------------------------------------------------------
    def _insert(self, stmt: Insert, params) -> QueryResult:
        table = self.database.table(stmt.table)
        count = 0
        for row_exprs in stmt.rows:
            values = {
                column: self._value(expr, params, row=None)
                for column, expr in zip(stmt.columns, row_exprs)
            }
            table.insert(values, undo=self.undo)
            count += 1
        return QueryResult(rowcount=count, access_path="insert")

    def _update(self, stmt: Update, params) -> QueryResult:
        table = self.database.table(stmt.table)
        if any(_references_columns(expr) for _, expr in stmt.changes):
            # SET expressions reading current values: evaluate per row.
            def changes(row, _stmt=stmt, _params=params):
                return {
                    column: self._value(expr, _params, row)
                    for column, expr in _stmt.changes
                }
        else:
            changes = {
                column: self._value(expr, params, row=None)
                for column, expr in stmt.changes
            }
        predicate = self._predicate(stmt.where, params, table)
        count = table.update_rows(predicate, changes, undo=self.undo)
        return QueryResult(rowcount=count, access_path="update")

    def _delete(self, stmt: Delete, params) -> QueryResult:
        table = self.database.table(stmt.table)
        predicate = self._predicate(stmt.where, params, table)
        count = table.delete_rows(predicate, undo=self.undo)
        return QueryResult(rowcount=count, access_path="delete")

    # -- SELECT -----------------------------------------------------------
    def _select(self, stmt: Select, params) -> QueryResult:
        table = self.database.table(stmt.table)
        candidates, access_path = self._access_rows(table, stmt.where, params)

        if stmt.join is not None:
            candidates, join_path = self._join(
                stmt, table, candidates, params)
            access_path = f"{access_path}+{join_path}"
            # Re-apply the full WHERE on joined rows (qualified refs now
            # resolvable).
            if stmt.where is not None:
                candidates = [
                    row for row in candidates
                    if self._truthy(stmt.where, params, row)
                ]
        elif stmt.where is not None:
            candidates = [
                row for row in candidates
                if self._truthy(stmt.where, params, row)
            ]

        if stmt.order_by is not None:
            key_name = self._resolve_name(stmt.order_by.column, candidates)
            candidates.sort(
                key=lambda r: (r.get(key_name) is None, r.get(key_name)),
                reverse=stmt.order_by.descending,
            )
        if stmt.limit is not None:
            candidates = candidates[: stmt.limit]

        if stmt.columns == ("*",):
            rows = candidates
        else:
            rows = []
            for row in candidates:
                projected = {}
                for ref in stmt.columns:
                    name = self._resolve_name(ref, candidates)
                    if name not in row:
                        raise QueryError(f"unknown column {ref.name!r}")
                    projected[ref.name] = row[name]
                rows.append(projected)
        return QueryResult(rows=rows, rowcount=len(rows),
                           access_path=access_path)

    def _access_rows(self, table: Table, where, params) \
            -> tuple[list[dict], str]:
        """Pick index lookup vs scan for the driving table."""
        equality = _find_indexable_equality(where, table)
        if equality is not None:
            column_name, expr = equality
            value = self._value(expr, params, row=None)
            return (table.lookup_indexed(column_name, value),
                    f"index({table.name}.{column_name})")
        return list(table.scan()), f"scan({table.name})"

    def _join(self, stmt: Select, outer_table: Table,
              outer_rows: list[dict], params) -> tuple[list[dict], str]:
        join = stmt.join
        inner_table = self.database.table(join.table)
        # Decide which side of the ON clause belongs to the inner table.
        if join.left.table == join.table:
            inner_ref, outer_ref = join.left, join.right
        else:
            inner_ref, outer_ref = join.right, join.left
        use_index = inner_ref.name in inner_table.indexed_columns
        joined: list[dict] = []
        inner_rows = None if use_index else list(inner_table.scan())
        for outer_row in outer_rows:
            outer_value = outer_row.get(outer_ref.name)
            if use_index:
                matches = inner_table.lookup_indexed(
                    inner_ref.name, outer_value)
            else:
                matches = [
                    r for r in inner_rows
                    if r.get(inner_ref.name) == outer_value
                ]
            for inner_row in matches:
                merged = dict(outer_row)
                for key, value in inner_row.items():
                    merged.setdefault(key, value)
                    merged[f"{join.table}.{key}"] = value
                for key, value in outer_row.items():
                    merged[f"{stmt.table}.{key}"] = value
                joined.append(merged)
        path = (f"index-join({join.table}.{inner_ref.name})" if use_index
                else f"nested-loop({join.table})")
        return joined, path

    # -- expression evaluation ---------------------------------------------
    def _predicate(self, where, params, table: Table):
        if where is None:
            return lambda row: True
        return lambda row: self._truthy(where, params, row)

    def _truthy(self, expr, params, row) -> bool:
        value = self._value(expr, params, row)
        return bool(value)

    def _value(self, expr, params, row) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            if expr.index >= len(params):
                raise QueryError(
                    f"statement wants parameter {expr.index + 1}, "
                    f"got {len(params)}"
                )
            return params[expr.index]
        if isinstance(expr, ColumnRef):
            if row is None:
                raise QueryError(
                    f"column {expr.name!r} referenced outside row context"
                )
            return self._column_value(expr, row)
        if isinstance(expr, Arithmetic):
            left = self._value(expr.left, params, row)
            right = self._value(expr.right, params, row)
            return _arith(left, expr.op, right)
        if isinstance(expr, Comparison):
            left = self._value(expr.left, params, row)
            right = self._value(expr.right, params, row)
            return _compare(left, expr.op, right)
        if isinstance(expr, Logical):
            if expr.op == "AND":
                return all(self._truthy(item, params, row)
                           for item in expr.items)
            return any(self._truthy(item, params, row)
                       for item in expr.items)
        if isinstance(expr, Not):
            return not self._truthy(expr.item, params, row)
        raise QueryError(f"cannot evaluate {expr!r}")

    def _column_value(self, ref: ColumnRef, row: dict) -> Any:
        if ref.table is not None:
            qualified = f"{ref.table}.{ref.name}"
            if qualified in row:
                return row[qualified]
        if ref.name in row:
            return row[ref.name]
        raise QueryError(f"unknown column {ref.name!r} in row")

    def _resolve_name(self, ref: ColumnRef, rows: list[dict]) -> str:
        if ref.table is not None and rows and \
                f"{ref.table}.{ref.name}" in rows[0]:
            return f"{ref.table}.{ref.name}"
        return ref.name


def _arith(left: Any, op: str, right: Any):
    if left is None or right is None:
        return None  # SQL: arithmetic with NULL yields NULL
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
    except TypeError:
        raise QueryError(
            f"cannot apply {op!r} to {type(left).__name__} and "
            f"{type(right).__name__}"
        ) from None
    raise QueryError(f"unknown arithmetic operator {op!r}")


def _compare(left: Any, op: str, right: Any) -> bool:
    if left is None or right is None:
        # SQL three-valued logic, collapsed: NULL comparisons are false
        # except explicit equality with NULL.
        if op == "=":
            return left is None and right is None
        if op == "!=":
            return (left is None) != (right is None)
        return False
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise QueryError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}"
        ) from None
    raise QueryError(f"unknown operator {op!r}")


def _references_columns(expr) -> bool:
    """Whether an expression tree contains any ColumnRef."""
    if isinstance(expr, ColumnRef):
        return True
    if isinstance(expr, Arithmetic):
        return _references_columns(expr.left) or \
            _references_columns(expr.right)
    if isinstance(expr, Comparison):
        return _references_columns(expr.left) or \
            _references_columns(expr.right)
    if isinstance(expr, Logical):
        return any(_references_columns(item) for item in expr.items)
    if isinstance(expr, Not):
        return _references_columns(expr.item)
    return False


def _find_indexable_equality(where, table: Table):
    """An equality comparison usable as an index probe, if any.

    Only safe at the top level or under AND (under OR the index result
    would be incomplete).
    """
    if where is None:
        return None
    if isinstance(where, Comparison) and where.op == "=":
        left, right = where.left, where.right
        if isinstance(left, ColumnRef) and not isinstance(right, ColumnRef):
            if left.name in table.indexed_columns and \
                    left.table in (None, table.name):
                return left.name, right
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            if right.name in table.indexed_columns and \
                    right.table in (None, table.name):
                return right.name, left
        return None
    if isinstance(where, Logical) and where.op == "AND":
        for item in where.items:
            found = _find_indexable_equality(item, table)
            if found is not None:
                return found
    return None
