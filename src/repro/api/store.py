"""Persistent result store: idempotent upserts keyed by (entity, spec hash).

The pipeline checkpoint (PR 3) remembers *how far* a run got — resuming means
replaying the input and skipping a prefix.  The result store remembers *what*
was resolved: each :class:`~repro.resolution.framework.ResolutionResult` is
upserted under ``(entity_key, specification_hash)``, so any later run — batch,
streaming, experiment or serving — can skip an already-resolved entity by a
single keyed lookup instead of a linear scan, and a changed specification
(new constraints, different resolver options) misses the key and re-resolves.

Two backends share the contract and are byte-equivalent (the cross-backend
tests assert it):

* :class:`MemoryResultStore` — an in-process dictionary, for tests and
  single-run deduplication;
* :class:`SqliteResultStore` — a SQLite file in WAL mode, safe for concurrent
  threads of one process (the serving layer's resolver threads) *and* for
  concurrent writers in separate processes (the cluster tier's workers),
  surviving restarts.

Results are persisted as pickles — lossless for the full result object,
rounds and timings included — next to a queryable JSON projection of the
resolved tuple.  Upserts are idempotent: storing the same key twice keeps one
row, the latest result winning.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.core.retry import classify_retryable
from repro.core.values import is_null
from repro.resolution.framework import ResolutionResult

__all__ = [
    "MemoryResultStore",
    "ResultStore",
    "SqliteResultStore",
    "StoredResult",
    "open_result_store",
]


@dataclass(frozen=True)
class StoredResult:
    """One stored resolution: the upsert key plus the full result."""

    entity_key: str
    specification_hash: str
    result: ResolutionResult

    @property
    def resolved(self) -> Dict[str, Any]:
        """The resolved tuple with NULLs normalised to ``None`` (JSON shape)."""
        return {
            attribute: (None if is_null(value) else value)
            for attribute, value in self.result.resolved_tuple.items()
        }


def _encode(result: ResolutionResult) -> bytes:
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(payload: bytes) -> ResolutionResult:
    return pickle.loads(payload)


def _resolved_json(result: ResolutionResult) -> str:
    projection = {
        attribute: (None if is_null(value) else value)
        for attribute, value in result.resolved_tuple.items()
    }
    return json.dumps(projection, sort_keys=True, separators=(",", ":"), default=str)


class ResultStore:
    """Contract of a persistent result store (see the backends below).

    All methods are thread-safe; a store may be shared by a client, a server
    and their resolver threads at once.  Counters (:meth:`statistics`) track
    lookups and upserts so callers can assert skip behaviour without
    instrumenting the engine.
    """

    #: Human-readable backend tag (``"memory"`` / ``"sqlite"``).
    backend: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._replaced = 0
        self._invalidated = 0

    # -- required backend primitives -------------------------------------------

    def _fetch(self, entity_key: str, specification_hash: str) -> Optional[bytes]:
        raise NotImplementedError

    def _upsert(self, entity_key: str, specification_hash: str, payload: bytes,
                resolved: str, result: ResolutionResult) -> bool:
        """Insert or replace one row; return ``True`` when the row is new."""
        raise NotImplementedError

    def _rows(self, entity_key: Optional[str]) -> Iterator[Tuple[str, str, bytes]]:
        raise NotImplementedError

    def _count(self) -> int:
        raise NotImplementedError

    def _clear(self) -> None:
        raise NotImplementedError

    def _invalidate(self, entity_key: str, specification_hash: Optional[str]) -> int:
        """Delete the rows of one entity (optionally one hash); return count."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------------

    def get(self, entity_key: str, specification_hash: str) -> Optional[ResolutionResult]:
        """The stored result for a key, or ``None`` (a counted miss)."""
        with self._lock:
            payload = self._fetch(entity_key, specification_hash)
            if payload is None:
                self._misses += 1
                return None
            self._hits += 1
        return _decode(payload)

    def put(self, entity_key: str, specification_hash: str, result: ResolutionResult) -> bool:
        """Idempotently upsert one result; ``True`` when the key was new.

        Upserting an existing key replaces the stored result (latest wins)
        and still leaves exactly one row.
        """
        payload = _encode(result)
        resolved = _resolved_json(result)
        with self._lock:
            inserted = self._upsert(entity_key, specification_hash, payload, resolved, result)
            if inserted:
                self._inserts += 1
            else:
                self._replaced += 1
        return inserted

    def __contains__(self, key: Tuple[str, str]) -> bool:
        entity_key, specification_hash = key
        with self._lock:
            return self._fetch(entity_key, specification_hash) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._count()

    def results(self, entity_key: Optional[str] = None) -> List[StoredResult]:
        """Stored results (optionally of one entity), ordered by key."""
        with self._lock:
            rows = list(self._rows(entity_key))
        return [
            StoredResult(entity, digest, _decode(payload))
            for entity, digest, payload in rows
        ]

    def clear(self) -> None:
        """Drop every stored result (counters are kept)."""
        with self._lock:
            self._clear()

    def invalidate(
        self,
        entity_keys: Iterable[str],
        specification_hash: Optional[str] = None,
    ) -> int:
        """Remove the stored results of *entity_keys*; return rows removed.

        With ``specification_hash=None`` (the default) every stored hash of
        each key is removed — the shape a tuple-change event needs, where the
        stale entry's hash is no longer derivable.  With a hash, exactly that
        one ``(entity, hash)`` row is removed.

        Idempotency contract: invalidating an absent key (or an already
        invalidated one) removes nothing, returns 0 and is *not* an error —
        so a replayed change event, a concurrent consumer or a crashed-and-
        resumed one can re-invalidate freely without perturbing the store
        beyond the first call.
        """
        removed = 0
        with self._lock:
            for entity_key in entity_keys:
                removed += self._invalidate(entity_key, specification_hash)
            self._invalidated += removed
        return removed

    def statistics(self) -> Dict[str, int]:
        """Lookup/upsert counters plus the current row count.

        The ``invalidated`` counter appears only when invalidation happened,
        so stores untouched by CDC keep their serialized statistics
        byte-identical to earlier releases.
        """
        with self._lock:
            record = {
                "hits": self._hits,
                "misses": self._misses,
                "inserts": self._inserts,
                "replaced": self._replaced,
                "rows": self._count(),
            }
            if self._invalidated:
                record["invalidated"] = self._invalidated
            return record

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryResultStore(ResultStore):
    """Dictionary-backed store; results still round-trip through pickling so
    the two backends return byte-equivalent objects."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[Tuple[str, str], bytes] = {}

    def _fetch(self, entity_key: str, specification_hash: str) -> Optional[bytes]:
        return self._data.get((entity_key, specification_hash))

    def _upsert(self, entity_key: str, specification_hash: str, payload: bytes,
                resolved: str, result: ResolutionResult) -> bool:
        key = (entity_key, specification_hash)
        inserted = key not in self._data
        self._data[key] = payload
        return inserted

    def _rows(self, entity_key: Optional[str]) -> Iterator[Tuple[str, str, bytes]]:
        for (entity, digest) in sorted(self._data):
            if entity_key is None or entity == entity_key:
                yield entity, digest, self._data[(entity, digest)]

    def _count(self) -> int:
        return len(self._data)

    def _clear(self) -> None:
        self._data.clear()

    def _invalidate(self, entity_key: str, specification_hash: Optional[str]) -> int:
        if specification_hash is not None:
            return 1 if self._data.pop((entity_key, specification_hash), None) else 0
        doomed = [key for key in self._data if key[0] == entity_key]
        for key in doomed:
            del self._data[key]
        return len(doomed)


class SqliteResultStore(ResultStore):
    """SQLite-backed store (one file; ``":memory:"`` works too, per-handle).

    The connection is shared across threads under the store's lock —
    exactly the access pattern of the serving layer, whose resolver threads
    interleave lookups and upserts.  File-backed stores run in WAL journal
    mode with a busy timeout so several *processes* (the cluster tier's
    workers) can read and write the same file concurrently: rollback-journal
    mode serialises every reader against the single writer and surfaces the
    contention as ``sqlite3.OperationalError: database is locked``.  A lock
    error that still escapes the busy timeout is classified retryable by
    :func:`repro.core.retry.classify_retryable`.
    """

    backend = "sqlite"

    #: How long a writer waits on another process's transaction before
    #: surfacing SQLITE_BUSY, in milliseconds.
    BUSY_TIMEOUT_MS = 5000

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS results (
            entity_key TEXT NOT NULL,
            specification_hash TEXT NOT NULL,
            valid INTEGER NOT NULL,
            complete INTEGER NOT NULL,
            rounds INTEGER NOT NULL,
            resolved TEXT NOT NULL,
            payload BLOB NOT NULL,
            updated_at REAL NOT NULL,
            PRIMARY KEY (entity_key, specification_hash)
        )
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path) if str(path) != ":memory:" else path
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(path), check_same_thread=False)
        self._connection.execute(f"PRAGMA busy_timeout = {self.BUSY_TIMEOUT_MS}")
        # Switching a fresh file to WAL while another connection holds its
        # write lock fails at once: SQLite skips the busy handler there to
        # avoid a deadlock.  Cluster workers open one new file together, so
        # retry the switch (and the schema) for as long as the busy timeout.
        deadline = time.monotonic() + self.BUSY_TIMEOUT_MS / 1000.0
        while True:
            try:
                self._prepare()
                break
            except sqlite3.OperationalError as error:
                if not classify_retryable(error) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)
        self._closed = False

    def _prepare(self) -> None:
        # ":memory:" handles report journal_mode "memory"; files report "wal".
        self.journal_mode = str(
            self._connection.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        ).lower()
        self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.execute(self._SCHEMA)
        self._connection.commit()

    def _fetch(self, entity_key: str, specification_hash: str) -> Optional[bytes]:
        self._require_open()
        row = self._connection.execute(
            "SELECT payload FROM results WHERE entity_key = ? AND specification_hash = ?",
            (entity_key, specification_hash),
        ).fetchone()
        return None if row is None else row[0]

    def _upsert(self, entity_key: str, specification_hash: str, payload: bytes,
                resolved: str, result: ResolutionResult) -> bool:
        self._require_open()
        existing = self._connection.execute(
            "SELECT 1 FROM results WHERE entity_key = ? AND specification_hash = ?",
            (entity_key, specification_hash),
        ).fetchone()
        self._connection.execute(
            "INSERT OR REPLACE INTO results "
            "(entity_key, specification_hash, valid, complete, rounds, resolved, payload, updated_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                entity_key,
                specification_hash,
                int(result.valid),
                int(result.complete),
                int(result.interaction_rounds),
                resolved,
                payload,
                time.time(),
            ),
        )
        self._connection.commit()
        return existing is None

    def _rows(self, entity_key: Optional[str]) -> Iterator[Tuple[str, str, bytes]]:
        self._require_open()
        if entity_key is None:
            cursor = self._connection.execute(
                "SELECT entity_key, specification_hash, payload FROM results "
                "ORDER BY entity_key, specification_hash"
            )
        else:
            cursor = self._connection.execute(
                "SELECT entity_key, specification_hash, payload FROM results "
                "WHERE entity_key = ? ORDER BY specification_hash",
                (entity_key,),
            )
        yield from cursor.fetchall()

    def _count(self) -> int:
        self._require_open()
        return self._connection.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def _clear(self) -> None:
        self._require_open()
        self._connection.execute("DELETE FROM results")
        self._connection.commit()

    def _invalidate(self, entity_key: str, specification_hash: Optional[str]) -> int:
        self._require_open()
        if specification_hash is not None:
            cursor = self._connection.execute(
                "DELETE FROM results WHERE entity_key = ? AND specification_hash = ?",
                (entity_key, specification_hash),
            )
        else:
            cursor = self._connection.execute(
                "DELETE FROM results WHERE entity_key = ?", (entity_key,)
            )
        self._connection.commit()
        return cursor.rowcount if cursor.rowcount > 0 else 0

    def _require_open(self) -> None:
        if self._closed:
            raise ReproError("the result store is closed")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._connection.close()


def open_result_store(target: Union[str, Path, ResultStore]) -> ResultStore:
    """Open (or pass through) a result store.

    A :class:`ResultStore` instance is returned as-is; ``":memory:"`` opens a
    :class:`MemoryResultStore`; any other string or path opens (creating if
    needed) a :class:`SqliteResultStore` file.
    """
    if isinstance(target, ResultStore):
        return target
    if str(target) == ":memory:":
        return MemoryResultStore()
    return SqliteResultStore(target)
