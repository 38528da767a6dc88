"""Storage engine: typed tables, rows, primary keys, secondary indexes.

This is the in-memory heart of the host computer's "database server"
component (paper §7).  It is deliberately dependency-free and
synchronous; query planning lives in :mod:`repro.db.query`, SQL parsing
in :mod:`repro.db.sql`, concurrency in :mod:`repro.db.transactions`,
and the wire protocol in :mod:`repro.db.server`.

The mutating :class:`Table` methods take an optional ``undo`` list and
append one entry per change they make: an insert records the row, an
update the row and a copy of it from before the change, a delete the
row and its list position, ``create_index`` the column name.  A
transaction hands its own list in; :func:`undo_writes` reverses the
entries, so a write costs O(rows touched) however large the table is.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Column",
    "Table",
    "Database",
    "SchemaError",
    "IntegrityError",
    "INTEGER",
    "REAL",
    "TEXT",
    "BOOLEAN",
    "undo_writes",
]

INTEGER = "INTEGER"
REAL = "REAL"
TEXT = "TEXT"
BOOLEAN = "BOOLEAN"

_CASTS: dict[str, Callable[[Any], Any]] = {
    INTEGER: int,
    REAL: float,
    TEXT: str,
    BOOLEAN: bool,
}


class SchemaError(Exception):
    """Bad DDL: unknown table/column, duplicate definitions, type errors."""


class IntegrityError(Exception):
    """Constraint violation: duplicate primary key, NOT NULL, bad type."""


class Column:
    """One column definition."""

    def __init__(self, name: str, type: str, nullable: bool = True,
                 primary_key: bool = False):
        if type not in _CASTS:
            raise SchemaError(f"unknown column type {type!r}")
        self.name = name
        self.type = type
        self.nullable = nullable
        self.primary_key = primary_key

    def coerce(self, value: Any) -> Any:
        """Validate/convert a value for this column."""
        if value is None:
            if not self.nullable and not self.primary_key:
                raise IntegrityError(f"column {self.name} is NOT NULL")
            if self.primary_key:
                raise IntegrityError(f"primary key {self.name} cannot be NULL")
            return None
        expected = _CASTS[self.type]
        if self.type == BOOLEAN and isinstance(value, bool):
            return value
        if self.type == REAL and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return float(value)
        if self.type == INTEGER and isinstance(value, bool):
            raise IntegrityError(
                f"column {self.name}: boolean is not an INTEGER"
            )
        if isinstance(value, expected):
            return value
        try:
            if self.type == TEXT and not isinstance(value, str):
                raise TypeError
            return expected(value)
        except (TypeError, ValueError):
            raise IntegrityError(
                f"column {self.name}: {value!r} is not {self.type}"
            ) from None


class Table:
    """Rows stored as dicts, with a primary-key map and secondary indexes."""

    def __init__(self, name: str, columns: list[Column]):
        if not columns:
            raise SchemaError(f"table {name} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {name}")
        pks = [c for c in columns if c.primary_key]
        if len(pks) > 1:
            raise SchemaError(f"table {name} has multiple primary keys")
        self.name = name
        self.columns = list(columns)
        self.column_map = {c.name: c for c in columns}
        self.primary_key: Optional[Column] = pks[0] if pks else None
        self.rows: list[dict] = []
        self._pk_index: dict[Any, dict] = {}
        # column name -> value -> list of rows
        self._indexes: dict[str, dict[Any, list[dict]]] = {}

    # -- schema ---------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self.column_map[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name}"
            ) from None

    def create_index(self, column_name: str,
                     undo: Optional[list] = None) -> None:
        column = self.column(column_name)
        if column_name in self._indexes:
            return
        index: dict[Any, list[dict]] = {}
        for row in self.rows:
            index.setdefault(row[column.name], []).append(row)
        self._indexes[column_name] = index
        if undo is not None:
            undo.append((self, "index", column_name, None))

    def _reindex(self) -> None:
        """Refill the pk index and every secondary index from ``rows``,
        in place, so the containers keep their identity across a
        rollback."""
        self._pk_index.clear()
        if self.primary_key is not None:
            pk_name = self.primary_key.name
            self._pk_index.update((row[pk_name], row) for row in self.rows)
        for column_name, index in self._indexes.items():
            index.clear()
            for row in self.rows:
                index.setdefault(row[column_name], []).append(row)

    @property
    def indexed_columns(self) -> set[str]:
        indexed = set(self._indexes)
        if self.primary_key is not None:
            indexed.add(self.primary_key.name)
        return indexed

    # -- mutation ----------------------------------------------------------
    def insert(self, values: dict, undo: Optional[list] = None) -> dict:
        """Insert one row; returns the stored row."""
        unknown = set(values) - set(self.column_map)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for table {self.name}"
            )
        row = {}
        for column in self.columns:
            row[column.name] = column.coerce(values.get(column.name))
        if self.primary_key is not None:
            pk = row[self.primary_key.name]
            if pk in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {pk!r} in {self.name}"
                )
            self._pk_index[pk] = row
        self.rows.append(row)
        if undo is not None:
            undo.append((self, "insert", row, None))
        for column_name, index in self._indexes.items():
            index.setdefault(row[column_name], []).append(row)
        return dict(row)

    def delete_rows(self, predicate: Callable[[dict], bool],
                    undo: Optional[list] = None) -> int:
        """Delete matching rows; returns the count."""
        doomed = [row for row in self.rows if predicate(row)]
        for row in doomed:
            position = _position(self.rows, row)
            self.rows.pop(position)
            if undo is not None:
                undo.append((self, "delete", row, position))
            if self.primary_key is not None:
                self._pk_index.pop(row[self.primary_key.name], None)
            for column_name, index in self._indexes.items():
                bucket = index[row[column_name]]
                bucket.pop(_position(bucket, row))
        return len(doomed)

    def update_rows(self, predicate: Callable[[dict], bool],
                    changes, undo: Optional[list] = None) -> int:
        """Apply ``changes`` to matching rows; returns the count.

        ``changes`` is either a column->value dict or a callable taking
        the current row and returning such a dict (for SET expressions
        that reference existing column values).
        """
        if not callable(changes):
            unknown = set(changes) - set(self.column_map)
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {sorted(unknown)} for "
                    f"table {self.name}"
                )
        pk_name = self.primary_key.name if self.primary_key else None
        count = 0
        for row in self.rows:
            if not predicate(row):
                continue
            row_changes = changes(row) if callable(changes) else changes
            unknown = set(row_changes) - set(self.column_map)
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {sorted(unknown)} for "
                    f"table {self.name}"
                )
            coerced = {
                name: self.column(name).coerce(value)
                for name, value in row_changes.items()
            }
            if pk_name is not None and pk_name in coerced:
                new_pk = coerced[pk_name]
                if new_pk != row[pk_name] and new_pk in self._pk_index:
                    raise IntegrityError(
                        f"duplicate primary key {new_pk!r} in {self.name}"
                    )
            if undo is not None:
                undo.append((self, "update", row, dict(row)))
            for column_name, index in self._indexes.items():
                if column_name in coerced:
                    bucket = index[row[column_name]]
                    bucket.pop(_position(bucket, row))
            if pk_name is not None and pk_name in coerced:
                self._pk_index.pop(row[pk_name], None)
            row.update(coerced)
            if pk_name is not None and pk_name in coerced:
                self._pk_index[row[pk_name]] = row
            for column_name, index in self._indexes.items():
                if column_name in coerced:
                    index.setdefault(row[column_name], []).append(row)
            count += 1
        return count

    # -- lookup -------------------------------------------------------------
    def lookup_indexed(self, column_name: str, value: Any) -> list[dict]:
        """Index-backed equality lookup (falls back to scan if unindexed)."""
        if self.primary_key is not None and \
                column_name == self.primary_key.name:
            row = self._pk_index.get(value)
            return [dict(row)] if row is not None else []
        index = self._indexes.get(column_name)
        if index is not None:
            return [dict(r) for r in index.get(value, [])]
        return [dict(r) for r in self.rows if r.get(column_name) == value]

    def scan(self) -> Iterable[dict]:
        for row in self.rows:
            yield dict(row)

    def __len__(self) -> int:
        return len(self.rows)


def _position(rows: list, row: dict) -> int:
    """Index of ``row`` itself in ``rows`` (the table's rows or an
    index bucket).  ``list.index`` and ``list.remove`` match by
    equality, which picks the wrong one of two equal rows in a table
    without a primary key."""
    for position in range(len(rows) - 1, -1, -1):
        if rows[position] is row:
            return position
    raise ValueError("row not in table")


def undo_writes(log: list) -> None:
    """Reverse the changes recorded in ``log``, newest first, then
    rebuild the indexes of every table touched; empties ``log``."""
    for table, kind, subject, extra in reversed(log):
        if kind == "insert":
            table.rows.pop(_position(table.rows, subject))
        elif kind == "update":
            subject.update(extra)
        elif kind == "delete":
            table.rows.insert(extra, subject)
        else:  # "index": subject is the column name
            del table._indexes[subject]
    for table in dict.fromkeys(entry[0] for entry in log):
        table._reindex()
    log.clear()


class Database:
    """A named collection of tables."""

    def __init__(self, name: str = "main"):
        self.name = name
        self.tables: dict[str, Table] = {}

    def create_table(self, name: str, columns: list[Column],
                     if_not_exists: bool = False) -> Table:
        if name in self.tables:
            if if_not_exists:
                return self.tables[name]
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, columns)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables
