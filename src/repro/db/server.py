"""Database server: the SQL engine behind a TCP wire protocol.

The host computer's database tier (paper §7).  Clients send
length-prefixed JSON requests ``{"sql": ..., "params": [...]}`` over a
TCP connection and receive ``{"ok": ..., "rows": ...}`` responses.
Each query also burns a service time proportional to the result size,
so database load shows up in end-to-end transaction latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..net.addressing import IPAddress
from ..net.framing import FrameReader, encode_frame
from ..net.node import Node
from ..net.tcp import TCPConnection, tcp_stack
from ..obs import end_span, start_span
from ..sim import Counter, Event
from .engine import Database, IntegrityError, SchemaError
from .query import QueryError
from .sql import SQLSyntaxError
from .transactions import DeadlockError, TransactionError, TransactionManager

__all__ = ["DatabaseServer", "DatabaseClient", "TracedDatabaseClient",
           "DEFAULT_DB_PORT"]

DEFAULT_DB_PORT = 5432
BASE_SERVICE_TIME = 0.000_5
PER_ROW_SERVICE_TIME = 0.000_01


class DatabaseServer:
    """Serves a :class:`Database` over TCP with per-connection transactions.

    Protocol verbs:

    * ``{"sql": ..., "params": [...]}`` — autocommit execution;
    * ``{"begin": true}`` / ``{"commit": true}`` / ``{"rollback": true}``
      — explicit transaction control for the connection.
    """

    def __init__(self, node: Node, database: Optional[Database] = None,
                 port: int = DEFAULT_DB_PORT):
        self.node = node
        self.sim = node.sim
        self.database = database or Database()
        self.manager = TransactionManager(self.sim, self.database)
        self.port = port
        self.tcp = tcp_stack(node)
        self.stats = Counter()
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(), name=f"dbserver@{node.name}")

    def _accept_loop(self):
        while True:
            conn = yield self._listener.accept()
            self.stats.incr("connections")
            self.sim.spawn(self._serve(conn), name="db-session")

    def _serve(self, conn: TCPConnection):
        reader = FrameReader()
        txn = None
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                if txn is not None:
                    txn.rollback()
                return
            for request in reader.feed(chunk):
                # conn.trace was stamped by TCP from the request's own
                # data segments (packet metadata, zero wire bytes).
                txn, reply = yield from self._handle(request, txn,
                                                     parent=conn.trace)
                conn.send(encode_frame(reply))

    def _handle(self, request: dict, txn, parent=None):
        if request.get("begin"):
            if txn is not None:
                txn.rollback()
            txn = self.manager.begin()
            self.stats.incr("begins")
            return txn, {"ok": True}
        if request.get("commit"):
            if txn is not None:
                txn.commit()
                self.stats.incr("commits")
            return None, {"ok": True}
        if request.get("rollback"):
            if txn is not None:
                txn.rollback()
                self.stats.incr("rollbacks")
            return None, {"ok": True}

        sql = request.get("sql", "")
        params = tuple(request.get("params", ()))
        span = None
        if self.sim.tracer is not None and parent is not None:
            span = start_span(self.sim, "db.query", "db", parent=parent,
                              sql=sql.split(None, 1)[0].lower()
                              if sql else "")
        active = txn if txn is not None else self.manager.begin()
        try:
            result = yield active.execute(sql, params)
        except (SQLSyntaxError, QueryError, SchemaError, IntegrityError,
                TransactionError, DeadlockError) as exc:
            # execute() already rolled the transaction back.
            self.stats.incr("errors")
            end_span(self.sim, span, ok=False)
            return None, {"ok": False, "error": str(exc)}
        yield self.sim.timeout(
            BASE_SERVICE_TIME + PER_ROW_SERVICE_TIME * len(result.rows)
        )
        end_span(self.sim, span, ok=True, rows=len(result.rows))
        if txn is None:
            active.commit()
        self.stats.incr("queries")
        return txn, {
            "ok": True,
            "rows": result.rows,
            "rowcount": result.rowcount,
            "access_path": result.access_path,
        }


class DatabaseClient:
    """Client-side helper: one TCP connection, blocking query calls."""

    def __init__(self, node: Node, server_address: IPAddress,
                 port: int = DEFAULT_DB_PORT):
        self.node = node
        self.sim = node.sim
        self.server_address = server_address
        self.port = port
        self.tcp = tcp_stack(node)
        self._conn: Optional[TCPConnection] = None
        self._reader = FrameReader()
        self._pending: Deque[dict] = deque()
        # Serialise concurrent callers so replies match their requests.
        from ..sim import Resource
        self._mutex = Resource(self.sim, capacity=1)

    def connect(self) -> Event:
        """Event firing when the connection is established."""
        self._conn = self.tcp.connect(self.server_address, self.port)
        return self._conn.established_event

    def query(self, sql: str, params: tuple = (), trace=None) -> Event:
        """Event yielding the server's reply dict."""
        return self._roundtrip({"sql": sql, "params": list(params)},
                               trace=trace)

    def begin(self, trace=None) -> Event:
        return self._roundtrip({"begin": True}, trace=trace)

    def commit(self, trace=None) -> Event:
        return self._roundtrip({"commit": True}, trace=trace)

    def rollback(self, trace=None) -> Event:
        return self._roundtrip({"rollback": True}, trace=trace)

    def _roundtrip(self, request: dict, trace=None) -> Event:
        if self._conn is None:
            raise RuntimeError("call connect() first")
        result = self.sim.event()

        def exchange(env):
            grant = self._mutex.request()
            yield grant
            try:
                if trace is not None:
                    # Stamp under the mutex: a concurrent caller must
                    # not relabel segments of an in-flight request.
                    self._conn.trace = trace
                self._conn.send(encode_frame(request))
                while not self._pending:
                    chunk = yield self._conn.recv()
                    if chunk == b"":
                        result.succeed(
                            {"ok": False, "error": "connection closed"})
                        return
                    self._pending.extend(self._reader.feed(chunk))
                result.succeed(self._pending.popleft())
            finally:
                self._mutex.release(grant)

        self.sim.spawn(exchange(self.sim), name="db-client")
        return result

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()


class TracedDatabaseClient:
    """Per-request view of a shared :class:`DatabaseClient` that injects
    one TraceContext into every call.

    The underlying client is shared by all concurrent requests, so it
    cannot hold a "current trace" itself; this wrapper binds the trace
    per request instead.  Everything else delegates unchanged.
    """

    def __init__(self, client, trace):
        self._client = client
        self.trace = trace

    def query(self, sql: str, params: tuple = ()) -> Event:
        return self._client.query(sql, params, trace=self.trace)

    def begin(self) -> Event:
        return self._client.begin(trace=self.trace)

    def commit(self) -> Event:
        return self._client.commit(trace=self.trace)

    def rollback(self) -> Event:
        return self._client.rollback(trace=self.trace)

    def __getattr__(self, name):
        return getattr(self._client, name)
