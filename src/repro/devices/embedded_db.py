"""Embedded/mobile databases (paper §7, "Database servers").

"A growing trend is to provide a mobile database or an embedded
database to a handheld device ... Embedded databases have very small
footprints, and must be able to run without the services of a database
administrator and accommodate the low-bandwidth constraints of a
wireless-handheld network."

:class:`EmbeddedDatabase` is that: a dictionary-of-records store whose
footprint is charged against the device's RAM, with dirty-tracking and
a delta :class:`SyncSession` protocol so only changed records cross the
wireless link.  The server side of sync lives in :mod:`repro.db`; this
module only needs a record-store peer.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .hardware import OutOfMemoryError
from .station import MobileStation

__all__ = ["Record", "EmbeddedDatabase", "SyncDelta"]

RECORD_OVERHEAD_BYTES = 24


class Record:
    """One synchronisable record."""

    def __init__(self, key: str, value: dict, version: int = 0,
                 deleted: bool = False):
        self.key = key
        self.value = value
        self.version = version
        self.deleted = deleted

    def size_bytes(self) -> int:
        return RECORD_OVERHEAD_BYTES + len(self.key) + len(json.dumps(self.value))


class SyncDelta:
    """Changes shipped in one sync direction."""

    def __init__(self, records: list[Record] | None = None,
                 since_version: int = 0, new_version: int = 0):
        self.records = [] if records is None else records
        self.since_version = since_version
        self.new_version = new_version

    def size_bytes(self) -> int:
        return 16 + sum(r.size_bytes() for r in self.records)


class EmbeddedDatabase:
    """A small-footprint record store living in device RAM."""

    def __init__(self, station: MobileStation, name: str = "mobiledb",
                 quota_kb: Optional[int] = None):
        self.station = station
        self.name = name
        self.quota_kb = quota_kb
        self._records: dict[str, Record] = {}
        self._version = 0
        self._used_bytes = 0
        self._memory_tag = f"db-{name}"

    # -- CRUD ---------------------------------------------------------------
    def put(self, key: str, value: dict) -> Record:
        """Insert or update; bumps the database version."""
        old = self._records.get(key)
        self._version += 1
        record = Record(key=key, value=dict(value), version=self._version)
        delta_bytes = record.size_bytes() - (old.size_bytes() if old else 0)
        self._charge(delta_bytes)
        self._records[key] = record
        return record

    def get(self, key: str) -> Optional[dict]:
        record = self._records.get(key)
        if record is None or record.deleted:
            return None
        return dict(record.value)

    def delete(self, key: str) -> bool:
        """Tombstone the record (kept for sync); False if absent."""
        record = self._records.get(key)
        if record is None or record.deleted:
            return False
        self._version += 1
        record.deleted = True
        record.version = self._version
        return True

    def keys(self) -> list[str]:
        return sorted(k for k, r in self._records.items() if not r.deleted)

    def __len__(self) -> int:
        return len(self.keys())

    @property
    def version(self) -> int:
        return self._version

    @property
    def footprint_kb(self) -> int:
        return max(1, self._used_bytes // 1024)

    # -- memory accounting ----------------------------------------------------
    def _charge(self, delta_bytes: int) -> None:
        new_used = self._used_bytes + max(delta_bytes, 0)
        if self.quota_kb is not None and new_used // 1024 > self.quota_kb:
            raise OutOfMemoryError(
                f"{self.name}: quota {self.quota_kb} KB exceeded"
            )
        old_kb, new_kb = self.footprint_kb, max(1, new_used // 1024)
        if new_kb > old_kb:
            self.station.memory.allocate(self._memory_tag, new_kb - old_kb)
        self._used_bytes = new_used

    # -- sync -----------------------------------------------------------------
    def changes_since(self, version: int) -> SyncDelta:
        """Records changed after ``version`` (including tombstones)."""
        changed = [r for r in self._records.values() if r.version > version]
        changed.sort(key=lambda r: r.version)
        return SyncDelta(records=[Record(r.key, dict(r.value), r.version,
                                         r.deleted) for r in changed],
                         since_version=version,
                         new_version=self._version)

    def apply_remote(self, delta: SyncDelta, force: bool = False) -> int:
        """Apply server-side changes; last-writer-wins by version.

        ``force=True`` applies regardless of local versions — used by
        the sync client, for which the server is authoritative (its
        version counter lives in a different number space).
        """
        applied = 0
        for remote in delta.records:
            local = self._records.get(remote.key)
            if not force and local is not None and \
                    local.version >= remote.version:
                continue  # our copy is as new or newer
            self._version = max(self._version, remote.version)
            self._charge(remote.size_bytes()
                         - (local.size_bytes() if local else 0))
            self._records[remote.key] = Record(
                remote.key, dict(remote.value), remote.version, remote.deleted
            )
            applied += 1
        return applied
