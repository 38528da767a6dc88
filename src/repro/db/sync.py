"""Mobile-database synchronisation: device stores vs the host database.

§7: "a growing trend is to provide a mobile database or an embedded
database to a handheld device ... [it] must ... accommodate the
low-bandwidth constraints of a wireless-handheld network."  The
accommodation is *delta sync*: the device ships only records changed
since its last checkpoint and receives only what changed on the host —
implemented here as a :class:`SyncService` (host side, one table per
namespace) and a :class:`SyncClient` (device side, wrapping an
:class:`~repro.devices.embedded_db.EmbeddedDatabase`).

Versioning: the server stamps every record it accepts with its own
monotonic version; devices track a *server anchor* (for pulls) and a
*push anchor* (their local version at the last successful sync).  A
device change against a record the server modified after the device's
anchor is a conflict, resolved server-wins (the server's copy ships
back to the device).
"""

from __future__ import annotations

from ..devices.embedded_db import EmbeddedDatabase, Record, SyncDelta
from ..net.addressing import IPAddress
from ..net.node import Node
from ..net.framing import FrameReader, encode_frame
from ..net.tcp import TCPConnection, tcp_stack
from ..sim import Counter, Event

__all__ = ["SyncService", "SyncClient", "DEFAULT_SYNC_PORT"]

DEFAULT_SYNC_PORT = 8801


def _record_to_wire(record: Record) -> dict:
    return {"key": record.key, "value": record.value,
            "version": record.version, "deleted": record.deleted}


def _record_from_wire(data: dict) -> Record:
    return Record(key=data["key"], value=dict(data["value"]),
                  version=int(data["version"]),
                  deleted=bool(data["deleted"]))


class _Namespace:
    """One synchronised record set on the host."""

    def __init__(self):
        self.records: dict[str, Record] = {}
        self.version = 0

    def apply(self, records: list[Record], anchor: int) \
            -> tuple[int, list[Record]]:
        """Apply device records; returns (applied, conflicts).

        A record the server changed after the device's ``anchor`` is a
        conflict — the device's edit is discarded and the server copy
        returned so the device converges (server wins).
        """
        applied = 0
        conflicts: list[Record] = []
        for remote in records:
            local = self.records.get(remote.key)
            if local is not None and local.version > anchor:
                conflicts.append(local)
                continue
            self.version += 1
            self.records[remote.key] = Record(
                key=remote.key, value=dict(remote.value),
                version=self.version, deleted=remote.deleted,
            )
            applied += 1
        return applied, conflicts

    def changes_since(self, version: int) -> list[Record]:
        changed = [r for r in self.records.values() if r.version > version]
        changed.sort(key=lambda r: r.version)
        return changed

    def put(self, key: str, value: dict) -> Record:
        """Host-side write (e.g. a back-office update)."""
        self.version += 1
        record = Record(key=key, value=dict(value), version=self.version)
        self.records[key] = record
        return record


class SyncService:
    """Host-side sync endpoint over TCP."""

    def __init__(self, node: Node, port: int = DEFAULT_SYNC_PORT):
        self.node = node
        self.sim = node.sim
        self.port = port
        self.tcp = tcp_stack(node)
        self.namespaces: dict[str, _Namespace] = {}
        self.stats = Counter()
        self._listener = self.tcp.listen(port)
        self.sim.spawn(self._accept_loop(), name=f"sync@{node.name}")

    def namespace(self, name: str) -> _Namespace:
        if name not in self.namespaces:
            self.namespaces[name] = _Namespace()
        return self.namespaces[name]

    def _accept_loop(self):
        while True:
            conn = yield self._listener.accept()
            self.sim.spawn(self._serve(conn), name="sync-session")

    def _serve(self, conn: TCPConnection):
        reader = FrameReader()
        while True:
            chunk = yield conn.recv()
            if chunk == b"":
                return
            for request in reader.feed(chunk):
                reply = self._handle(request)
                conn.send(encode_frame(reply))

    def _handle(self, request: dict) -> dict:
        if request.get("op") != "sync":
            return {"ok": False, "error": "unknown op"}
        namespace = self.namespace(request.get("namespace", "default"))
        device_records = [_record_from_wire(r)
                          for r in request.get("records", [])]
        anchor = int(request.get("since", 0))
        applied, conflicts = namespace.apply(device_records, anchor)
        pushed_keys = {r.key for r in device_records}
        # Ship changes the device has not seen — but not echoes of what
        # it just pushed (those now carry fresh server versions).
        outgoing = [r for r in namespace.changes_since(anchor)
                    if r.key not in pushed_keys]
        outgoing.extend(conflicts)
        self.stats.incr("syncs")
        self.stats.incr("applied_from_devices", applied)
        self.stats.incr("conflicts", len(conflicts))
        self.stats.incr("shipped_to_devices", len(outgoing))
        return {
            "ok": True,
            "applied": applied,
            "conflicts": len(conflicts),
            "records": [_record_to_wire(r) for r in outgoing],
            "server_version": namespace.version,
        }


class SyncClient:
    """Device-side sync driver for one embedded database."""

    def __init__(self, database: EmbeddedDatabase,
                 service_address: IPAddress,
                 namespace: str = "default",
                 port: int = DEFAULT_SYNC_PORT):
        self.database = database
        self.station = database.station
        self.sim = self.station.sim
        self.service_address = service_address
        self.namespace = namespace
        self.port = port
        self.tcp = tcp_stack(self.station)
        # Server anchor: highest server version this device has seen.
        self.server_anchor = 0
        # Push anchor: local database version at the last successful sync.
        self.push_anchor = 0
        self.stats = Counter()

    def sync(self, timeout: float = 30.0) -> Event:
        """One sync round; event yields a summary dict or None on timeout."""
        result = self.sim.event()

        def run(env):
            delta = self.database.changes_since(self.push_anchor)
            request = {
                "op": "sync",
                "namespace": self.namespace,
                "since": self.server_anchor,
                "records": [_record_to_wire(r) for r in delta.records],
            }
            conn = self.tcp.connect(self.service_address, self.port)
            expiry = env.timeout(timeout)
            race = yield env.any_of([conn.established_event, expiry])
            expiry.cancel()  # a no-op once it has fired
            if conn.established_event not in race:
                result.succeed(None)
                return
            conn.send(encode_frame(request))
            reader = FrameReader()
            deadline = env.timeout(timeout)
            while True:
                chunk_ev = conn.recv()
                got = yield env.any_of([chunk_ev, deadline])
                if chunk_ev not in got or got[chunk_ev] == b"":
                    deadline.cancel()
                    result.succeed(None)
                    return
                replies = reader.feed(got[chunk_ev])
                if replies:
                    break
            deadline.cancel()
            conn.close()
            reply = replies[0]
            if not reply.get("ok"):
                result.succeed(None)
                return
            incoming = SyncDelta(records=[
                _record_from_wire(r) for r in reply.get("records", [])
            ])
            applied_locally = self.database.apply_remote(incoming, force=True)
            self.server_anchor = reply.get("server_version",
                                           self.server_anchor)
            self.push_anchor = self.database.version
            self.stats.incr("rounds")
            summary = {
                "pushed": len(delta.records),
                "pulled": applied_locally,
                "conflicts": reply.get("conflicts", 0),
                "bytes_up": delta.size_bytes(),
                "server_version": reply.get("server_version", 0),
            }
            result.succeed(summary)

        self.sim.spawn(run(self.sim), name="sync-client")
        return result
