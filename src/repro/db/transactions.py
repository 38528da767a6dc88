"""Transactions: table-level two-phase locking with undo-based rollback.

Good enough for the host computer's application programs: a
:class:`Transaction` acquires shared/exclusive table locks (strict 2PL
— all locks held to commit/abort) and keeps a row-level undo log: each
write appends the rows it touched (see :mod:`repro.db.engine`).  Commit
drops the log; rollback undoes it newest first.  Deadlocks are broken
by wound-wait on lock-request timeouts.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..sim import Event, Simulator
from .engine import Database, IntegrityError, SchemaError, undo_writes
from .query import Executor, QueryError, QueryResult
from .sql import CreateIndex, CreateTable, Delete, Insert, Update, parse

__all__ = ["TransactionError", "DeadlockError", "Transaction",
           "TransactionManager"]

_txn_ids = itertools.count(1)


class TransactionError(Exception):
    """Misuse: operating on a finished transaction, etc."""


class DeadlockError(Exception):
    """Raised when a lock cannot be acquired in time."""


class _TableLock:
    """Shared/exclusive lock with FIFO-ish wakeups."""

    def __init__(self):
        self.shared_by: set[int] = set()
        self.exclusive_by: Optional[int] = None
        self.waiters: list[Event] = []

    def can_share(self, txn_id: int) -> bool:
        return self.exclusive_by is None or self.exclusive_by == txn_id

    def can_exclusive(self, txn_id: int) -> bool:
        others_shared = self.shared_by - {txn_id}
        return (self.exclusive_by in (None, txn_id)) and not others_shared

    def wake_all(self) -> None:
        waiters, self.waiters = self.waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()


class TransactionManager:
    """Lock table + transaction factory for one database."""

    def __init__(self, sim: Simulator, database: Database):
        self.sim = sim
        self.database = database
        # Seconds a transaction waits for a table lock before it is
        # treated as a deadlock victim.
        self.lock_timeout = 5.0
        self._locks: dict[str, _TableLock] = {}
        self.committed = 0
        self.aborted = 0

    def begin(self) -> "Transaction":
        return Transaction(self)

    def _lock_for(self, table_name: str) -> _TableLock:
        if table_name not in self._locks:
            self._locks[table_name] = _TableLock()
        return self._locks[table_name]

    def acquire(self, txn: "Transaction", table_name: str,
                exclusive: bool) -> Event:
        """Event that fires when the lock is granted (or fails: deadlock)."""
        lock = self._lock_for(table_name)
        result = self.sim.event()

        def attempt(env):
            deadline = env.now + self.lock_timeout
            while True:
                ok = (lock.can_exclusive(txn.txn_id) if exclusive
                      else lock.can_share(txn.txn_id))
                if ok:
                    if exclusive:
                        lock.exclusive_by = txn.txn_id
                        lock.shared_by.discard(txn.txn_id)
                    else:
                        lock.shared_by.add(txn.txn_id)
                    txn._held.add(table_name)
                    result.succeed()
                    return
                if env.now >= deadline:
                    result.fail(DeadlockError(
                        f"txn {txn.txn_id} timed out waiting for "
                        f"{'X' if exclusive else 'S'} lock on {table_name}"
                    ))
                    return
                waiter = env.event()
                lock.waiters.append(waiter)
                expiry = env.timeout(max(0.0, deadline - env.now))
                yield env.any_of([waiter, expiry])
                expiry.cancel()  # a no-op once it has fired

        self.sim.spawn(attempt(self.sim), name=f"lock-{table_name}")
        return result

    def release_all(self, txn: "Transaction") -> None:
        # Sorted: a set of names iterates in hash-seed order.
        for table_name in sorted(txn._held):
            lock = self._locks.get(table_name)
            if lock is None:
                continue
            lock.shared_by.discard(txn.txn_id)
            if lock.exclusive_by == txn.txn_id:
                lock.exclusive_by = None
            lock.wake_all()
        txn._held.clear()


class Transaction:
    """One ACID(ish) unit of work.

    Usage inside a process::

        txn = manager.begin()
        result = yield txn.execute("SELECT * FROM items WHERE id = ?", (3,))
        yield txn.execute("UPDATE items SET qty = ? WHERE id = ?", (2, 3))
        txn.commit()
    """

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(self, manager: TransactionManager):
        self.manager = manager
        self.txn_id = next(_txn_ids)
        self.state = Transaction.ACTIVE
        self._held: set[str] = set()
        self._undo: list = []
        self._executor = Executor(manager.database, undo=self._undo)

    # -- statement execution -------------------------------------------------
    def execute(self, statement_or_sql, params: tuple = ()) -> Event:
        """Event yielding a QueryResult (fails on lock timeout)."""
        if self.state != Transaction.ACTIVE:
            raise TransactionError(f"transaction is {self.state}")
        statement = (parse(statement_or_sql)
                     if isinstance(statement_or_sql, str)
                     else statement_or_sql)
        writes = isinstance(statement, (Insert, Update, Delete,
                                        CreateTable, CreateIndex))
        table_name = statement.table
        sim = self.manager.sim
        result = sim.event()

        def run(env):
            try:
                if not isinstance(statement, CreateTable):
                    yield self.manager.acquire(self, table_name,
                                               exclusive=writes)
                outcome = self._executor.execute(statement, params)
            except (DeadlockError, TransactionError, QueryError,
                    SchemaError, IntegrityError) as exc:
                self.rollback()
                result.fail(exc)
                return
            result.succeed(outcome)

        sim.spawn(run(sim), name=f"txn{self.txn_id}-exec")
        return result

    # -- outcome ----------------------------------------------------------
    def commit(self) -> None:
        if self.state != Transaction.ACTIVE:
            raise TransactionError(f"transaction is {self.state}")
        self.state = Transaction.COMMITTED
        self._undo.clear()
        self.manager.release_all(self)
        self.manager.committed += 1

    def rollback(self) -> None:
        if self.state != Transaction.ACTIVE:
            return
        self.state = Transaction.ABORTED
        undo_writes(self._undo)
        self.manager.release_all(self)
        self.manager.aborted += 1
