"""Same-timestamp commutativity sanitizer.

Entries sharing a timestamp are dispatched in the kernel's tie-break
order, ``(priority, seq)``.  The sanitizer groups them into *batches*
as the kernel hands them over (the batch rule is stated once, in
:class:`BatchSanitizer`).  Entries in one batch were all pending
before its first one ran, so they have no causal edges through the
kernel between them: their relative order is the tie-break, not
causality.  The sanitizer asks whether the output depends on that
tie-break: *do they commute?*

Three pieces:

* :class:`AccessRecorder` + :class:`TrackedDict`/:class:`TrackedList` —
  instrumented shared containers that report every read and write,
  attributed to whichever event the kernel is currently dispatching.
  :func:`instrument_system` sweeps a built system's well-known shared
  components (payment accounts, sessions, DB tables, gateway caches
  and counters ...) and swaps their dicts/lists for tracked versions;
  the wrappers are behaviour-identical, so an instrumented run
  computes byte-identical results.
* :class:`BatchSanitizer` — the kernel hook (installed via
  :func:`install_sanitizer`, duck-typed like the tracer/profiler).
  It forms the batches, closes each one's per-event read/write sets
  and flags *hazards*: two events in one batch whose sets overlap on a
  key with at least one write (write/write, or read/write in either
  order).
* :class:`FlipDirective` — the confirmation tool.  A hazard is only a
  *candidate*; the proof is behavioural.  A second, fully
  deterministic run replays the scenario with the flagged batch
  dispatched in flipped order (the conflicting pair transposed, or
  the whole batch reversed) and the final state hashes are diffed.
  Divergence = CONFIRMED race; identical bytes = the accesses commute
  in effect (e.g. independent counter increments).

Seeded :class:`repro.sim.RandomStream` draws are deliberately *not*
tracked: the seed bank is kernel-owned state, and its draw order is
part of the kernel's ordering contract, not application-level sharing.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Any, Iterable, Optional

__all__ = [
    "AccessRecorder",
    "BatchSanitizer",
    "FlipDirective",
    "TrackedDict",
    "TrackedList",
    "first_divergence",
    "install_sanitizer",
    "instrument_system",
    "null_recorder",
    "state_hash",
]


# --------------------------------------------------------------- recording
class AccessRecorder:
    """Collects (key, kind) accesses attributed to the current event.

    ``current`` is the index of the event being dispatched within the
    current batch, or ``None`` outside dispatch (system build, report
    collection) — ambient accesses are not recorded.
    """

    __slots__ = ("current", "reads", "writes", "enabled")

    def __init__(self):
        self.current: Optional[int] = None
        self.reads: dict[int, set] = {}
        self.writes: dict[int, set] = {}
        self.enabled = True

    def note_read(self, label: str, key: Any) -> None:
        if self.current is not None and self.enabled:
            self.reads.setdefault(self.current, set()).add((label, key))

    def note_write(self, label: str, key: Any) -> None:
        if self.current is not None and self.enabled:
            self.writes.setdefault(self.current, set()).add((label, key))

    def begin_event(self, index: int) -> None:
        self.current = index


class _NullRecorder(AccessRecorder):
    """Recorder that keeps tracked containers alive but records nothing
    (used by confirmation replays, which only need identical types)."""

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self.enabled = False


class TrackedDict(dict):
    """A dict reporting reads/writes to an :class:`AccessRecorder`.

    Key-granular: two events touching *different* keys of one dict do
    not conflict.  Whole-container operations (iteration, ``len``,
    ``clear``) use the wildcard key ``"*"``.
    """

    __slots__ = ("_recorder", "_label")

    def __init__(self, data, recorder: AccessRecorder, label: str):
        super().__init__(data)
        self._recorder = recorder
        self._label = label

    def __getitem__(self, key):
        self._recorder.note_read(self._label, key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self._recorder.note_write(self._label, key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._recorder.note_write(self._label, key)
        super().__delitem__(key)

    def __contains__(self, key):
        self._recorder.note_read(self._label, key)
        return super().__contains__(key)

    def __iter__(self):
        self._recorder.note_read(self._label, "*")
        return super().__iter__()

    def get(self, key, default=None):
        self._recorder.note_read(self._label, key)
        return super().get(key, default)

    def pop(self, key, *default):
        self._recorder.note_write(self._label, key)
        return super().pop(key, *default)

    def popitem(self):
        self._recorder.note_write(self._label, "*")
        return super().popitem()

    def setdefault(self, key, default=None):
        self._recorder.note_write(self._label, key)
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self._recorder.note_write(self._label, "*")
        super().update(*args, **kwargs)

    def clear(self):
        self._recorder.note_write(self._label, "*")
        super().clear()


class TrackedList(list):
    """A list reporting accesses; order-sensitive ops use key ``"*"``.

    Appends conflict with each other (their interleaving decides final
    order), so every mutation is a write on the wildcard key.
    """

    __slots__ = ("_recorder", "_label")

    def __init__(self, data, recorder: AccessRecorder, label: str):
        super().__init__(data)
        self._recorder = recorder
        self._label = label

    def append(self, value):
        self._recorder.note_write(self._label, "*")
        super().append(value)

    def extend(self, values):
        self._recorder.note_write(self._label, "*")
        super().extend(values)

    def insert(self, index, value):
        self._recorder.note_write(self._label, "*")
        super().insert(index, value)

    def pop(self, index=-1):
        self._recorder.note_write(self._label, "*")
        return super().pop(index)

    def remove(self, value):
        self._recorder.note_write(self._label, "*")
        super().remove(value)

    def clear(self):
        self._recorder.note_write(self._label, "*")
        super().clear()

    def sort(self, **kwargs):
        self._recorder.note_write(self._label, "*")
        super().sort(**kwargs)

    def __setitem__(self, index, value):
        self._recorder.note_write(self._label, "*")
        super().__setitem__(index, value)

    def __iter__(self):
        self._recorder.note_read(self._label, "*")
        return super().__iter__()

    def __getitem__(self, index):
        self._recorder.note_read(self._label, "*")
        return super().__getitem__(index)


# ------------------------------------------------------------ flip replay
class FlipDirective:
    """Replay instruction: flip one batch's dispatch order.

    ``ordinal`` counts batches from run start; the replay
    is byte-identical to the baseline up to that batch, so the ordinal
    (and the recorded sequence numbers) identify the same batch in
    both runs.  ``mode`` is ``"pair"`` (transpose the two conflicting
    entries — the minimal perturbation, leaving every other
    same-timestamp ordering intact) or ``"batch"`` (reverse the whole
    batch).
    """

    def __init__(self, ordinal: int, seq_a: Optional[int] = None,
                 seq_b: Optional[int] = None, mode: str = "pair",
                 applied: bool = False):
        self.ordinal = ordinal
        self.seq_a = seq_a
        self.seq_b = seq_b
        self.mode = mode
        self.applied = applied

    def apply(self, batch: list) -> list:
        self.applied = True
        if self.mode == "batch":
            return list(reversed(batch))
        index_a = index_b = None
        for index, entry in enumerate(batch):
            if entry[2] == self.seq_a:
                index_a = index
            elif entry[2] == self.seq_b:
                index_b = index
        if index_a is None or index_b is None:
            self.applied = False
            return batch
        flipped = list(batch)
        flipped[index_a], flipped[index_b] = \
            flipped[index_b], flipped[index_a]
        return flipped


# ------------------------------------------------------------- the hook
def _dead(entry: tuple) -> bool:
    """Whether ``entry`` is a cancelled event's (a tombstone)."""
    return entry[3] is None and entry[4]._cancelled


#: Hazards kept per run; the scan stops once this many are flagged.
_MAX_HAZARDS = 64


class BatchSanitizer:
    """Kernel dispatch hook: batch accounting, hazard flagging, flips.

    Installed on a :class:`~repro.sim.Simulator` via
    :func:`install_sanitizer`; ``run()`` hands :meth:`on_entry` every
    live entry before dispatching it, and dispatches the entry it
    returns.  Call :meth:`finalize` after the run to close the last
    batch.

    A *batch* is every live entry at one time that is pending when the
    batch's first entry is taken.  So an entry opens a new batch when
    its time differs from the open batch's, or when its seq is above
    every seq in the open batch (it was pushed after that batch
    began).  Opening a batch reads the simulator's lane and the heap
    entries at that time without changing them, except at the
    :class:`FlipDirective`'s ordinal: there the batch is taken out of
    the queue, flipped, and handed the batch's sorted
    ``(time, priority, seq)`` keys in its flipped order, so the kernel
    dispatches it flipped.
    """

    def __init__(self, recorder: Optional[AccessRecorder] = None,
                 flip: Optional[FlipDirective] = None):
        self.recorder = recorder
        self.flip = flip
        self.hazards: list[dict] = []
        self.batches = 0
        self.multi_event_batches = 0
        self.events_seen = 0
        self._sim: Any = None  # set by install_sanitizer
        self._ordinal = -1
        self._batch_time = 0.0
        self._batch_max_seq = -1
        self._batch_entries: list[tuple] = []
        self._descriptions: dict[int, str] = {}

    # -- kernel-facing ----------------------------------------------------
    def on_entry(self, entry: tuple) -> tuple:
        """Note ``entry``, opening a batch first if it starts one;
        returns the entry to dispatch in its place."""
        if entry[0] != self._batch_time or entry[2] > self._batch_max_seq:
            entry = self._open_batch(entry)
        self.events_seen += 1
        index = len(self._batch_entries)
        self._batch_entries.append(entry)
        if self.recorder is not None:
            self._descriptions[index] = _describe(entry)
            self.recorder.begin_event(index)
        return entry

    def _open_batch(self, entry: tuple) -> tuple:
        self._close_batch()
        self._ordinal += 1
        self.batches += 1
        time = entry[0]
        rest = self._pending_at(time)
        if rest:
            self.multi_event_batches += 1
        self._batch_max_seq = max([entry[2]] + [e[2] for e in rest])
        self._batch_time = time
        self._batch_entries = []
        self._descriptions = {}
        if self.flip is not None and self._ordinal == self.flip.ordinal:
            entry = self._flip_batch(entry)
        return entry

    def _pending_at(self, time: float) -> list:
        """The live entries at ``time`` still queued: the whole lane
        (it holds only the current instant) and the heap's entries at
        ``time``, which form a subtree under its root."""
        heap = self._sim._heap
        found = [e for e in self._sim._lane if not _dead(e)]
        stack = [0]
        while stack:
            index = stack.pop()
            if index < len(heap) and heap[index][0] == time:
                if not _dead(heap[index]):
                    found.append(heap[index])
                stack += (2 * index + 1, 2 * index + 2)
        return found

    def _flip_batch(self, entry: tuple) -> tuple:
        """Take the open batch out of the queue, flip it, and re-key it
        so its entries dispatch in flipped order; returns the first and
        pushes the rest back into the heap."""
        sim = self._sim
        heap = sim._heap
        taken = [entry] + list(sim._lane)
        sim._lane.clear()
        while heap and heap[0][0] == entry[0]:
            taken.append(heapq.heappop(heap))
        batch = sorted(e for e in taken if not _dead(e))
        sim._tombstones -= len(taken) - len(batch)
        flipped = self.flip.apply(batch)
        rekeyed = [old[:3] + new[3:] for old, new in zip(batch, flipped)]
        for later in rekeyed[1:]:
            sim._heappush(later)
        return rekeyed[0]

    def finalize(self) -> None:
        self._close_batch()

    # -- hazard detection -------------------------------------------------
    def _close_batch(self) -> None:
        recorder = self.recorder
        entries = self._batch_entries
        self._batch_entries = []
        if recorder is None:
            return
        recorder.current = None
        reads, writes = recorder.reads, recorder.writes
        if len(entries) < 2 or not writes:
            reads.clear()
            writes.clear()
            return
        if len(self.hazards) < _MAX_HAZARDS:
            self._scan_conflicts(entries, reads, writes)
        reads.clear()
        writes.clear()

    def _scan_conflicts(self, entries: list, reads: dict,
                        writes: dict) -> None:
        """Flag keys with write/write or read/write overlap between
        two *different* events of the batch just closed."""
        writers_by_key: dict[tuple, list[int]] = {}
        readers_by_key: dict[tuple, list[int]] = {}
        for index, keys in writes.items():
            for key in keys:
                writers_by_key.setdefault(key, []).append(index)
        for index, keys in reads.items():
            for key in keys:
                readers_by_key.setdefault(key, []).append(index)
        conflicts: dict[tuple, dict] = {}
        for key, writer_list in writers_by_key.items():
            reader_list = [r for r in readers_by_key.get(key, [])
                           if r not in writer_list]
            involved = sorted(set(writer_list) | set(reader_list))
            if len(involved) < 2:
                continue
            conflicts[key] = {
                "writers": sorted(set(writer_list)),
                "readers": sorted(set(reader_list)),
                "involved": involved,
            }
        if not conflicts:
            return
        # One hazard per batch: the batch is the replay unit.
        involved_all = sorted(
            set(index for c in conflicts.values() for index in c["involved"]))
        first_key = min(conflicts)
        pair = conflicts[first_key]["involved"][:2]
        self.hazards.append({
            "time": self._batch_time,
            "batch": self._ordinal,
            "batch_size": len(entries),
            "keys": [
                {
                    "state": f"{key[0]}[{key[1]!r}]",
                    "kind": ("write/write"
                             if len(conflict["writers"]) > 1
                             else "read/write"),
                    "writers": [self._describe_index(entries, i)
                                for i in conflict["writers"]],
                    "readers": [self._describe_index(entries, i)
                                for i in conflict["readers"]],
                }
                for key, conflict in sorted(conflicts.items())
            ],
            "events": [self._describe_index(entries, i)
                       for i in involved_all],
            "flip_seqs": [entries[pair[0]][2], entries[pair[1]][2]],
        })

    def _describe_index(self, entries: list, index: int) -> str:
        seq = entries[index][2]
        label = self._descriptions.get(index, "event")
        return f"{label} (seq {seq})"


def _describe(entry: tuple) -> str:
    """Human-readable identity of a dispatched entry: an event, or a
    scheduled call (named by its function, or as the event resuming a
    process that its bootstrap and relay calls stand for)."""
    from ...sim import Process, Timeout

    _, _, _, fn, event = entry
    if fn is not None:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Process) and getattr(fn, "__func__", None) \
                in (Process._resume, Process._relay):
            return f"event resuming {owner.name!r}"
        return getattr(fn, "__qualname__", repr(fn))
    if isinstance(event, Process):
        return f"process {event.name!r}"
    resumed = [cb.__self__.name for cb in event.callbacks
               if getattr(cb, "__name__", "") in ("_resume", "_interrupted")
               and isinstance(getattr(cb, "__self__", None), Process)]
    kind = ("timeout" if isinstance(event, Timeout)
            else type(event).__name__.lower())
    if resumed:
        return f"{kind} resuming {', '.join(repr(n) for n in resumed)}"
    return kind


# ----------------------------------------------------------- installation
def install_sanitizer(sim, sanitizer: BatchSanitizer) -> BatchSanitizer:
    """Attach ``sanitizer`` to ``sim`` (duck-typed, like the tracer)."""
    sanitizer._sim = sim
    sim._sanitizer = sanitizer
    return sanitizer


def null_recorder() -> AccessRecorder:
    """A disabled recorder for confirmation replays (identical types,
    zero recording)."""
    return _NullRecorder()


# -------------------------------------------------------- instrumentation
def _wrap_attrs(obj: Any, label: str, recorder: AccessRecorder,
                wrapped: list) -> None:
    """Swap ``obj``'s plain dict/list attributes for tracked versions."""
    try:
        attrs = vars(obj)
    except TypeError:
        return
    for name in sorted(attrs):
        value = attrs[name]
        if type(value) is dict:
            setattr(obj, name, TrackedDict(value, recorder,
                                           f"{label}.{name}"))
            wrapped.append(f"{label}.{name}")
        elif type(value) is list:
            setattr(obj, name, TrackedList(value, recorder,
                                           f"{label}.{name}"))
            wrapped.append(f"{label}.{name}")


def _shared_roots(system, engine=None) -> Iterable[tuple]:
    """(label, object) pairs for the system's well-known shared state."""
    host = getattr(system, "host", None)
    if host is not None:
        yield "payment", getattr(host, "payment", None)
        yield "users", getattr(host, "users", None)
        yield "tokens", getattr(host, "tokens", None)
        web = getattr(host, "web_server", None)
        yield "web_server", web
        if web is not None:
            yield "web_server.sessions", getattr(web, "sessions", None)
            yield "web_server.stats", getattr(web, "stats", None)
        db = getattr(host, "db_server", None)
        yield "db_server", db
        if db is not None:
            db_engine = getattr(db, "engine", None) or \
                getattr(db, "database", None)
            yield "db", db_engine
            tables = getattr(db_engine, "tables", None)
            if isinstance(tables, dict):
                for name in sorted(tables):
                    yield f"db.tables[{name}]", tables[name]
    for label in ("gateway", "standby_gateway"):
        gateway = getattr(system, label, None)
        if gateway is not None:
            yield label, gateway
            yield f"{label}.stats", getattr(gateway, "stats", None)
    fleet = getattr(system, "fleet", None)
    if fleet is not None:
        yield "fleet", fleet
        yield "fleet.stats", getattr(fleet, "stats", None)
        primary = getattr(system, "gateway", None)
        for name in sorted(fleet.members):
            member = fleet.members[name]
            if member.gateway is primary:
                continue  # member 0 is already wrapped as "gateway"
            yield f"fleet[{name}]", member.gateway
            yield f"fleet[{name}].stats", member.gateway.stats
    for label in ("balancer", "health_monitor", "canary"):
        component = getattr(system, label, None)
        if component is not None:
            yield label, component
            yield f"{label}.stats", getattr(component, "stats", None)
    for index, app in enumerate(getattr(system, "applications", ())):
        yield f"app[{index}]", app
    if engine is not None:
        yield "engine", engine


def instrument_system(system, recorder: AccessRecorder,
                      engine=None) -> list[str]:
    """Instrument a built system's shared components; returns the list
    of wrapped container labels.

    The sweep is one attribute level deep over a curated set of roots
    (payment processor, user/token stores, web sessions, DB tables,
    gateways and their caches/counters, mounted applications, the
    transaction engine).  Containers are replaced with
    behaviour-identical tracked versions, so the instrumented run's
    deterministic output is byte-identical to an uninstrumented one.
    """
    wrapped: list[str] = []
    for label, obj in _shared_roots(system, engine):
        if obj is None:
            continue
        _wrap_attrs(obj, label, recorder, wrapped)
    return wrapped


# ----------------------------------------------------------- state hashes
def state_hash(payload: str) -> str:
    """Stable short hash of a canonical state serialisation."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def first_divergence(baseline: str, flipped: str) -> Optional[dict]:
    """First differing line between two canonical JSON serialisations
    (None when identical) — the human-readable core of a CONFIRMED
    verdict's state-hash diff."""
    if baseline == flipped:
        return None
    base_lines = baseline.splitlines()
    flip_lines = flipped.splitlines()
    for number, (a, b) in enumerate(zip(base_lines, flip_lines), start=1):
        if a != b:
            return {"line": number, "baseline": a.strip(),
                    "flipped": b.strip()}
    longer, shorter = ((base_lines, flip_lines)
                       if len(base_lines) > len(flip_lines)
                       else (flip_lines, base_lines))
    return {"line": len(shorter) + 1,
            "baseline": (base_lines[len(shorter)].strip()
                         if len(base_lines) > len(shorter) else ""),
            "flipped": (flip_lines[len(shorter)].strip()
                        if len(flip_lines) > len(shorter) else "")}
