"""Host-computer data tier (paper §7): SQL engine, transactions, server."""

from .engine import (
    BOOLEAN,
    Column,
    Database,
    INTEGER,
    IntegrityError,
    REAL,
    SchemaError,
    TEXT,
    Table,
)
from .query import Executor, QueryError, QueryResult, execute
from .server import (
    DatabaseClient,
    DatabaseServer,
    DEFAULT_DB_PORT,
)
from .sql import SQLSyntaxError, parse
from .sync import DEFAULT_SYNC_PORT, SyncClient, SyncService
from .transactions import (
    DeadlockError,
    Transaction,
    TransactionError,
    TransactionManager,
)

__all__ = [
    "BOOLEAN",
    "Column",
    "Database",
    "INTEGER",
    "IntegrityError",
    "REAL",
    "SchemaError",
    "TEXT",
    "Table",
    "Executor",
    "QueryError",
    "QueryResult",
    "execute",
    "DatabaseClient",
    "DatabaseServer",
    "DEFAULT_DB_PORT",
    "SQLSyntaxError",
    "parse",
    "DEFAULT_SYNC_PORT",
    "SyncClient",
    "SyncService",
    "DeadlockError",
    "Transaction",
    "TransactionError",
    "TransactionManager",
]
