"""Append-only change feed: the durable event log of the CDC subsystem.

The resolution system is specified over a fixed tuple set and a fixed Σ ∪ Γ;
any edit used to mean a full batch re-run.  The change feed turns edits into
*data*: every mutation of the registry is appended as one typed event —
:class:`TupleAdded`, :class:`TupleRetracted` or :class:`ConstraintChanged` —
under a monotonically increasing sequence number, and consumers re-derive the
affected resolutions incrementally (:mod:`repro.cdc.consumer`).  The design
follows the changelog architecture of production identity registries: the
feed is the source of truth for *what changed*, and any consumer position is
just a sequence number.

Determinism is the load-bearing property.  The event codec
(:func:`encode_event` / :func:`decode_event`) is canonical JSON — sorted
keys, fixed separators — so the same event always encodes to the same bytes
and a feed can be diffed, replayed and byte-compared across backends.  The
storage envelope adds ``seq`` and an append timestamp ``ts`` *around* the
event, never inside it: timestamps are nondeterministic by nature and must
not perturb the canonical event bytes.

Three backends share the contract (and the cross-backend tests assert their
equivalence):

* :class:`MemoryChangeFeed` — an in-process list, for tests;
* :class:`JsonlChangeFeed` — one envelope per line in an append-only file,
  human-readable and `tail -f`-able, indexed by byte offset so a poll reads
  only the lines it returns;
* :class:`SqliteChangeFeed` — a SQLite file in WAL mode, safe for concurrent
  appenders across processes (same journal settings as the result store).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.core.errors import ReproError
from repro.core.values import Value, is_null

__all__ = [
    "ChangeEvent",
    "ChangeFeed",
    "ConstraintChanged",
    "FeedError",
    "FeedRecord",
    "JsonlChangeFeed",
    "MemoryChangeFeed",
    "SqliteChangeFeed",
    "TupleAdded",
    "TupleRetracted",
    "decode_event",
    "encode_event",
    "open_change_feed",
]


class FeedError(ReproError):
    """A change-feed event or envelope does not conform to the codec."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_row(row: Mapping[str, Value]) -> Dict[str, Any]:
    """One observed row as JSON primitives (NULLs normalised to ``None``).

    The codec is strict: a value that is not a JSON primitive would decode
    to something other than what was encoded, silently breaking the
    replay-equivalence contract — reject it at append time instead.
    """
    record: Dict[str, Any] = {}
    for attribute, value in row.items():
        if is_null(value):
            record[str(attribute)] = None
        elif isinstance(value, (str, int, float, bool)):
            record[str(attribute)] = value
        else:
            raise FeedError(
                f"row value {value!r} for attribute {attribute!r} is not a "
                "JSON primitive; change events carry plain values only"
            )
    return record


@dataclass(frozen=True)
class TupleAdded:
    """A new observed tuple of *entity* entered the registry."""

    entity: str
    row: Mapping[str, Value]

    kind = "tuple_added"

    def payload(self) -> Dict[str, Any]:
        return {"entity": self.entity, "kind": self.kind, "row": _json_row(self.row)}


@dataclass(frozen=True)
class TupleRetracted:
    """An observed tuple of *entity* was withdrawn (must match an earlier add)."""

    entity: str
    row: Mapping[str, Value]

    kind = "tuple_retracted"

    def payload(self) -> Dict[str, Any]:
        return {"entity": self.entity, "kind": self.kind, "row": _json_row(self.row)}


@dataclass(frozen=True)
class ConstraintChanged:
    """The global Σ ∪ Γ was replaced by *constraints* (constraint-file text)."""

    constraints: str

    kind = "constraint_changed"

    def payload(self) -> Dict[str, Any]:
        return {"constraints": self.constraints, "kind": self.kind}


ChangeEvent = Union[TupleAdded, TupleRetracted, ConstraintChanged]

_EVENT_KINDS = {
    TupleAdded.kind: TupleAdded,
    TupleRetracted.kind: TupleRetracted,
    ConstraintChanged.kind: ConstraintChanged,
}


def encode_event(event: ChangeEvent) -> str:
    """Canonical one-line encoding of one event (no trailing newline)."""
    if not isinstance(event, (TupleAdded, TupleRetracted, ConstraintChanged)):
        raise FeedError(f"not a change event: {type(event).__name__}")
    return _canonical(event.payload())


def decode_event(text: str) -> ChangeEvent:
    """Inverse of :func:`encode_event`; rejects malformed events loudly."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise FeedError(f"event is not valid JSON: {error}") from None
    return _event_from_payload(payload)


def _event_from_payload(payload: Any) -> ChangeEvent:
    """Validate one parsed event object and build the event it encodes."""
    if not isinstance(payload, dict):
        raise FeedError(f"event must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in _EVENT_KINDS:
        known = ", ".join(sorted(_EVENT_KINDS))
        raise FeedError(f"unknown event kind {kind!r}; expected one of: {known}")
    if kind == ConstraintChanged.kind:
        expected = {"kind", "constraints"}
        constraints = payload.get("constraints")
        if not isinstance(constraints, str):
            raise FeedError("constraint_changed needs a 'constraints' string")
    else:
        expected = {"kind", "entity", "row"}
        entity = payload.get("entity")
        if not isinstance(entity, str) or not entity:
            raise FeedError(f"{kind} needs a non-empty 'entity' string")
        row = payload.get("row")
        if not isinstance(row, dict):
            raise FeedError(f"{kind} for {entity!r} needs a 'row' object")
    unknown = sorted(set(payload) - expected)
    if unknown:
        raise FeedError(f"{kind} has unknown fields: {', '.join(unknown)}")
    if kind == ConstraintChanged.kind:
        return ConstraintChanged(constraints=payload["constraints"])
    return _EVENT_KINDS[kind](entity=payload["entity"], row=dict(payload["row"]))


@dataclass(frozen=True)
class FeedRecord:
    """One stored event: the feed's envelope around the canonical bytes."""

    seq: int
    ts: float
    event: ChangeEvent


def encode_envelope(record: FeedRecord) -> str:
    """Canonical one-line encoding of a stored record (seq + ts + event)."""
    return _canonical(
        {"data": record.event.payload(), "seq": record.seq, "ts": record.ts}
    )


def _decode_envelope(text: Union[str, bytes], where: str) -> FeedRecord:
    """One stored line back into a record, parsed once and fully validated."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise FeedError(f"{where}: envelope is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "seq" not in payload or "data" not in payload:
        raise FeedError(f"{where}: envelope needs 'seq' and 'data' fields")
    seq, ts = payload["seq"], payload.get("ts", 0.0)
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise FeedError(f"{where}: envelope 'seq' must be a positive integer, got {seq!r}")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise FeedError(f"{where}: envelope 'ts' must be a number, got {ts!r}")
    try:
        event = _event_from_payload(payload["data"])
    except FeedError as error:
        raise FeedError(f"{where}: {error}") from None
    return FeedRecord(seq=seq, ts=float(ts), event=event)


class ChangeFeed:
    """Contract of an append-only change feed (see the backends below).

    Sequence numbers are assigned by the feed, start at 1 and increase by 1
    per append — a position in the feed is therefore exactly "the number of
    events consumed", the same shape as a pipeline checkpoint.  All methods
    are thread-safe.
    """

    #: Human-readable backend tag (``"memory"`` / ``"jsonl"`` / ``"sqlite"``).
    backend: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.Lock()

    # -- required backend primitives -------------------------------------------

    def _append(self, record: FeedRecord) -> None:
        raise NotImplementedError

    def _last_sequence(self) -> int:
        raise NotImplementedError

    def _records(self, after: int, limit: Optional[int]) -> Iterator[FeedRecord]:
        raise NotImplementedError

    # -- public API ------------------------------------------------------------

    def append(self, event: ChangeEvent) -> int:
        """Durably append one event; return its assigned sequence number."""
        encode_event(event)  # validate (and normalise) before anything lands
        with self._lock:
            seq = self._last_sequence() + 1
            self._append(FeedRecord(seq=seq, ts=time.time(), event=event))
        return seq

    def events(self, after: int = 0, limit: Optional[int] = None) -> Iterator[FeedRecord]:
        """Replay the feed strictly after position *after*, in order.

        *limit* caps the number of records returned (``None`` returns them
        all).  Every backend reads and decodes only the records it returns
        (a JSONL handle also validates, once, the lines other handles
        appended since it last looked), so polling the tail of a long feed
        costs what the poll returns, not what the feed holds.

        The records are materialised under the lock, so the iteration is a
        stable snapshot: appends racing the replay are simply not part of it
        and will be seen by the next ``events`` call.
        """
        if after < 0:
            raise FeedError(f"feed position must be >= 0, got {after}")
        if limit is not None and limit < 0:
            raise FeedError(f"read limit must be >= 0, got {limit}")
        with self._lock:
            records = list(self._records(after, limit))
        return iter(records)

    def last_sequence(self) -> int:
        """The highest assigned sequence number (0 for an empty feed)."""
        with self._lock:
            return self._last_sequence()

    def __len__(self) -> int:
        return self.last_sequence()

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ChangeFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryChangeFeed(ChangeFeed):
    """List-backed feed; events still round-trip through the codec so the
    backends stay byte-equivalent."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._data: list[FeedRecord] = []

    def _append(self, record: FeedRecord) -> None:
        # The codec round-trip mirrors what the durable backends do, so a
        # value the file formats would reject is rejected here too.
        self._data.append(
            FeedRecord(record.seq, record.ts, decode_event(encode_event(record.event)))
        )

    def _last_sequence(self) -> int:
        return self._data[-1].seq if self._data else 0

    def _records(self, after: int, limit: Optional[int]) -> Iterator[FeedRecord]:
        # Sequence numbers are list positions + 1: slicing is the seek.
        return iter(self._data[after : None if limit is None else after + limit])


class JsonlChangeFeed(ChangeFeed):
    """One envelope per line in an append-only text file.

    A record exists once its newline lands.  An unterminated last line is a
    write still in progress (or one torn by a crash): reads skip it, and
    :meth:`append` raises :class:`FeedError` rather than glue a record onto
    it.

    Each handle keeps an index from sequence number to the byte offset of
    the record's line.  Opening the feed builds it in one scan, which
    validates every envelope and the sequence chain.  Every later read,
    append and :meth:`last_sequence` first extends the index over the bytes
    appended since — by this handle or by any other, in this process or
    another — validating those lines the same way, so handles taking turns
    never reuse a sequence number.  A read then seeks straight to the first
    record past ``after`` and decodes only the records it returns.

    Appends are flushed per event.  Sequence assignment is not serialised
    across processes: concurrent appenders belong on
    :class:`SqliteChangeFeed`.
    """

    backend = "jsonl"

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Sequence number and line offset of each indexed record, ascending.
        self._seqs: List[int] = []
        self._offsets: List[int] = []
        #: Bytes indexed so far (always the end of a complete line), and the
        #: lines they hold.
        self._end = 0
        self._lines = 0
        self._closed = False
        with contextlib.ExitStack() as handles:
            self._writer = handles.enter_context(self.path.open("ab"))  # creates the file
            self._reader = handles.enter_context(self.path.open("rb"))
            self._catch_up()
            handles.pop_all()  # from here on, close() releases them

    def _catch_up(self) -> None:
        """Index the complete lines appended since the last scan."""
        self._require_open()
        size = os.fstat(self._reader.fileno()).st_size
        if size == self._end:
            return
        if size < self._end:
            raise FeedError(
                f"{self.path}: the file shrank from {self._end} to {size} bytes; "
                "a change feed is append-only"
            )
        self._reader.seek(self._end)
        for line in self._reader:
            if not line.endswith(b"\n"):
                break  # not a record until its newline lands
            number = self._lines + 1
            if line.strip():
                record = _decode_envelope(line, f"{self.path}:{number}")
                last = self._seqs[-1] if self._seqs else 0
                if record.seq <= last:
                    raise FeedError(
                        f"{self.path}:{number}: sequence {record.seq} is not "
                        f"monotonic (last was {last})"
                    )
                self._seqs.append(record.seq)
                self._offsets.append(self._end)
            self._lines = number
            self._end += len(line)

    def _append(self, record: FeedRecord) -> None:
        # ``append`` assigned the sequence number right after a catch-up, so
        # any byte past the index is an unterminated line.
        if os.fstat(self._writer.fileno()).st_size != self._end:
            raise FeedError(
                f"{self.path}: unterminated line at byte {self._end}; a record "
                "exists only once its newline lands, so nothing is appended after it"
            )
        line = (encode_envelope(record) + "\n").encode("utf-8")
        self._writer.write(line)
        self._writer.flush()
        self._seqs.append(record.seq)
        self._offsets.append(self._end)
        self._lines += 1
        self._end += len(line)

    def _last_sequence(self) -> int:
        self._catch_up()
        return self._seqs[-1] if self._seqs else 0

    def _records(self, after: int, limit: Optional[int]) -> Iterator[FeedRecord]:
        self._catch_up()
        first = bisect.bisect_right(self._seqs, after)
        stop = len(self._seqs) if limit is None else min(len(self._seqs), first + limit)
        if first >= stop:
            return
        # A record's bytes run to the next record's offset (blank lines in
        # between are whitespace to the JSON parser).
        ends = self._offsets[first + 1 : stop + 1]
        if stop == len(self._offsets):
            ends.append(self._end)
        start = self._offsets[first]
        self._reader.seek(start)
        block = self._reader.read(ends[-1] - start)
        for seq, offset, end in zip(self._seqs[first:stop], self._offsets[first:stop], ends):
            record = _decode_envelope(
                block[offset - start : end - start], f"{self.path}: byte {offset}"
            )
            if record.seq != seq:
                raise FeedError(
                    f"{self.path}: byte {offset}: expected sequence {seq}, found "
                    f"{record.seq}; the file was rewritten under the feed"
                )
            yield record

    def _require_open(self) -> None:
        if self._closed:
            raise FeedError("the change feed is closed")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._writer.close()
                self._reader.close()


class SqliteChangeFeed(ChangeFeed):
    """SQLite-backed feed (WAL journal, busy timeout — like the result store).

    The write path is one INSERT per event under the feed's lock; WAL mode
    plus the busy timeout make concurrent appenders in separate processes
    safe, with SQLite serialising the sequence assignment.
    """

    backend = "sqlite"

    #: How long a writer waits on another process's transaction (ms).
    BUSY_TIMEOUT_MS = 5000

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS events (
            seq INTEGER PRIMARY KEY,
            ts REAL NOT NULL,
            data TEXT NOT NULL
        )
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path) if str(path) != ":memory:" else path
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(path), check_same_thread=False)
        self._connection.execute(f"PRAGMA busy_timeout = {self.BUSY_TIMEOUT_MS}")
        self.journal_mode = str(
            self._connection.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        ).lower()
        self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.execute(self._SCHEMA)
        self._connection.commit()
        self._closed = False

    def _append(self, record: FeedRecord) -> None:
        self._require_open()
        self._connection.execute(
            "INSERT INTO events (seq, ts, data) VALUES (?, ?, ?)",
            (record.seq, record.ts, encode_event(record.event)),
        )
        self._connection.commit()

    def _last_sequence(self) -> int:
        self._require_open()
        row = self._connection.execute("SELECT MAX(seq) FROM events").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def _records(self, after: int, limit: Optional[int]) -> Iterator[FeedRecord]:
        self._require_open()
        cursor = self._connection.execute(
            "SELECT seq, ts, data FROM events WHERE seq > ? ORDER BY seq LIMIT ?",
            (after, -1 if limit is None else limit),  # a negative LIMIT is none
        )
        for seq, ts, data in cursor.fetchall():
            yield FeedRecord(seq=int(seq), ts=float(ts), event=decode_event(data))

    def _require_open(self) -> None:
        if self._closed:
            raise FeedError("the change feed is closed")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._connection.close()


def open_change_feed(target: Union[str, Path, ChangeFeed]) -> ChangeFeed:
    """Open (or pass through) a change feed.

    A :class:`ChangeFeed` instance is returned as-is; ``":memory:"`` opens a
    :class:`MemoryChangeFeed`; a ``.jsonl``/``.ndjson`` path opens a
    :class:`JsonlChangeFeed`; any other path opens a :class:`SqliteChangeFeed`.
    """
    if isinstance(target, ChangeFeed):
        return target
    if str(target) == ":memory:":
        return MemoryChangeFeed()
    if str(target).endswith((".jsonl", ".ndjson")):
        return JsonlChangeFeed(target)
    return SqliteChangeFeed(target)
