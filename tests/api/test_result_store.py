"""ResultStore contract: idempotent upserts, hash misses, backend parity."""

import multiprocessing
import sqlite3
import threading
import time

import pytest

from repro.api import (
    MemoryResultStore,
    ResolutionClient,
    RunConfig,
    SqliteResultStore,
    open_result_store,
    specification_hash,
)
from repro.datasets import NBAConfig, generate_nba_dataset
from repro.resolution import ConflictResolver, ResolverOptions


@pytest.fixture(scope="module")
def nba_dataset():
    return generate_nba_dataset(NBAConfig(num_players=6, seed=5))


@pytest.fixture(scope="module")
def resolved_pairs(nba_dataset):
    """(entity_key, spec, result) triples resolved once, reused across tests."""
    resolver = ConflictResolver(ResolverOptions(max_rounds=0, fallback="none"))
    triples = []
    for _entity, spec in nba_dataset.specifications(limit=3):
        triples.append((spec.name, spec, resolver.resolve(spec)))
    return triples


def _backends(tmp_path):
    return [MemoryResultStore(), SqliteResultStore(tmp_path / "results.db")]


class TestIdempotentUpsert:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_same_key_twice_keeps_one_row(self, backend, tmp_path, resolved_pairs):
        store = (
            MemoryResultStore() if backend == "memory"
            else SqliteResultStore(tmp_path / "results.db")
        )
        with store:
            key, spec, result = resolved_pairs[0]
            digest = specification_hash(spec)
            assert store.put(key, digest, result) is True
            assert store.put(key, digest, result) is False
            assert len(store) == 1
            stats = store.statistics()
            assert stats["inserts"] == 1 and stats["replaced"] == 1
            assert store.get(key, digest) == result

    def test_replacement_keeps_latest(self, resolved_pairs):
        (key, spec, result), (_k2, _s2, other) = resolved_pairs[0], resolved_pairs[1]
        with MemoryResultStore() as store:
            digest = specification_hash(spec)
            store.put(key, digest, result)
            store.put(key, digest, other)
            assert len(store) == 1
            assert store.get(key, digest) == other


class TestSpecHashMisses:
    def test_changed_constraints_miss(self, nba_dataset, resolved_pairs):
        """Dropping constraints changes the hash, so the key misses."""
        key, spec, result = resolved_pairs[0]
        fewer = list(nba_dataset.specifications(sigma_fraction=0.5, limit=1))[0][1]
        assert fewer.name == spec.name
        with MemoryResultStore() as store:
            store.put(key, specification_hash(spec), result)
            assert store.get(key, specification_hash(fewer)) is None
            assert (key, specification_hash(fewer)) not in store

    def test_changed_options_miss(self, resolved_pairs):
        """The options-aware hash separates results per resolver config."""
        key, spec, result = resolved_pairs[0]
        lenient = ResolverOptions(max_rounds=0, fallback="none")
        strict = ResolverOptions(max_rounds=3, fallback="pick")
        assert specification_hash(spec, lenient) != specification_hash(spec, strict)
        assert specification_hash(spec) == specification_hash(spec)

    def test_client_config_reflected_in_spec_hash(self, resolved_pairs):
        _key, spec, _result = resolved_pairs[0]
        a = RunConfig(options=ResolverOptions(max_rounds=0))
        b = RunConfig(options=ResolverOptions(max_rounds=2))
        assert a.spec_hash(spec) != b.spec_hash(spec)
        # Pool shape does not affect results, so it must not affect the hash.
        c = RunConfig(options=ResolverOptions(max_rounds=0), workers=4, chunk_size=2)
        assert a.spec_hash(spec) == c.spec_hash(spec)


class TestCrossBackendEquivalence:
    def test_backends_round_trip_identically(self, tmp_path, resolved_pairs):
        memory, sqlite = _backends(tmp_path)
        with memory, sqlite:
            for key, spec, result in resolved_pairs:
                digest = specification_hash(spec)
                assert memory.put(key, digest, result) == sqlite.put(key, digest, result)
            assert len(memory) == len(sqlite) == len(resolved_pairs)
            for key, spec, result in resolved_pairs:
                digest = specification_hash(spec)
                from_memory = memory.get(key, digest)
                from_sqlite = sqlite.get(key, digest)
                assert from_memory == from_sqlite == result
            memory_rows = [(r.entity_key, r.specification_hash, r.resolved)
                           for r in memory.results()]
            sqlite_rows = [(r.entity_key, r.specification_hash, r.resolved)
                           for r in sqlite.results()]
            assert memory_rows == sqlite_rows

    def test_sqlite_persists_across_reopen(self, tmp_path, resolved_pairs):
        path = tmp_path / "persistent.db"
        key, spec, result = resolved_pairs[0]
        digest = specification_hash(spec)
        with SqliteResultStore(path) as store:
            store.put(key, digest, result)
        with SqliteResultStore(path) as reopened:
            assert reopened.get(key, digest) == result
            assert len(reopened) == 1

    def test_open_result_store_dispatch(self, tmp_path):
        assert isinstance(open_result_store(":memory:"), MemoryResultStore)
        sqlite = open_result_store(tmp_path / "x.db")
        assert isinstance(sqlite, SqliteResultStore)
        sqlite.close()
        passthrough = MemoryResultStore()
        assert open_result_store(passthrough) is passthrough


def _hammer_store(path, offset, result, writes):
    """Child-process worker: interleave inserts, replacements and reads."""
    with SqliteResultStore(path) as store:
        for index in range(writes):
            store.put(f"writer{offset}_entity{index}", "digest", result)
            store.put(f"writer{offset}_entity{index}", "digest", result)  # replace
            store.get(f"writer{offset}_entity{index}", "digest")


class TestCrossProcessConcurrency:
    """The WAL satellite: one SQLite file shared by writers in N processes."""

    def test_file_store_runs_in_wal_mode_with_busy_timeout(self, tmp_path):
        with SqliteResultStore(tmp_path / "wal.db") as store:
            assert store.journal_mode == "wal"
            timeout = store._connection.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout == SqliteResultStore.BUSY_TIMEOUT_MS

    def test_memory_handle_keeps_working(self):
        """":memory:" cannot be WAL; the pragma must not break the handle."""
        with SqliteResultStore(":memory:") as store:
            assert store.journal_mode == "memory"
            assert len(store) == 0

    def test_wal_survives_reopen(self, tmp_path):
        path = tmp_path / "wal.db"
        SqliteResultStore(path).close()
        with SqliteResultStore(path) as reopened:
            assert reopened.journal_mode == "wal"

    @pytest.mark.parametrize(
        "begin, hold",
        [
            ("BEGIN IMMEDIATE", None),
            ("BEGIN EXCLUSIVE", None),
            ("BEGIN", "SELECT count(*) FROM sqlite_master"),
        ],
        ids=["write", "exclusive", "read"],
    )
    def test_open_waits_out_a_lock_on_a_fresh_file(self, tmp_path, begin, hold):
        """Another connection's transaction must not fail the open.

        SQLite answers the WAL switch on a write-locked fresh file with
        "database is locked" at once, without consulting the busy handler;
        cluster workers opening one new store file together hit exactly that.
        The exclusive and read locks go through the busy handler.
        """
        path = tmp_path / "fresh.db"
        holder = sqlite3.connect(str(path), isolation_level=None, check_same_thread=False)
        holder.execute(begin)
        if hold is not None:
            holder.execute(hold).fetchall()
        release = threading.Timer(0.3, holder.execute, args=("COMMIT",))
        release.start()
        try:
            with SqliteResultStore(path) as store:
                assert store.journal_mode == "wal"
                assert len(store) == 0
        finally:
            release.join()
            holder.close()

    def test_open_gives_up_once_the_busy_timeout_passes(self, tmp_path, monkeypatch):
        """A write lock that outlasts the busy timeout fails the open as before."""
        monkeypatch.setattr(SqliteResultStore, "BUSY_TIMEOUT_MS", 200)
        path = tmp_path / "held.db"
        holder = sqlite3.connect(str(path), isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            started = time.monotonic()
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                SqliteResultStore(path)
            assert time.monotonic() - started >= 0.2
        finally:
            holder.execute("COMMIT")
            holder.close()

    def test_open_does_not_retry_a_file_that_is_not_a_database(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"not a database, not even close" * 64)
        started = time.monotonic()
        with pytest.raises(sqlite3.DatabaseError, match="not a database"):
            SqliteResultStore(path)
        # Well inside the busy timeout: the error is not retried as a lock.
        assert time.monotonic() - started < SqliteResultStore.BUSY_TIMEOUT_MS / 2000.0

    def test_concurrent_writer_processes_do_not_lock_out(
        self, tmp_path, resolved_pairs
    ):
        """Four processes upserting and reading the same file all succeed."""
        path = str(tmp_path / "contended.db")
        _key, _spec, result = resolved_pairs[0]
        writers, writes = 4, 20
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        processes = [
            context.Process(target=_hammer_store, args=(path, offset, result, writes))
            for offset in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        exit_codes = [process.exitcode for process in processes]
        assert exit_codes == [0] * writers, exit_codes
        with SqliteResultStore(path) as store:
            assert len(store) == writers * writes


class TestResumeSkipsStoredPrefix:
    def test_nba_rerun_skips_stored_entities(self, nba_dataset, tmp_path):
        """A second experiment over a populated store performs zero solver calls."""
        config = RunConfig(
            options=ResolverOptions(max_rounds=0, fallback="none"),
            store=tmp_path / "nba.db",
        )
        with ResolutionClient(config) as client:
            first = client.run_experiment(nba_dataset)
            assert client.engine.statistics.entities == len(nba_dataset.entities)
            assert client.stats().store_hits == 0
        with ResolutionClient(config) as resumed:
            second = resumed.run_experiment(nba_dataset)
            # Zero engine work: every entity came from the store.
            assert resumed.engine.statistics.entities == 0
            assert resumed.stats().store_hits == len(nba_dataset.entities)
        assert second.counts() == first.counts()
        assert second.entities == first.entities

    def test_partial_prefix_resolves_only_the_rest(self, nba_dataset):
        from repro.api import MemoryResultStore

        store = MemoryResultStore()
        config = RunConfig(options=ResolverOptions(max_rounds=0, fallback="none"), store=store)
        with ResolutionClient(config) as client:
            client.run_experiment(nba_dataset, limit=2)
        with ResolutionClient(config) as client:
            client.run_experiment(nba_dataset)
            assert client.engine.statistics.entities == len(nba_dataset.entities) - 2
            assert client.stats().store_hits == 2


class TestInvalidate:
    """The CDC satellite: idempotent invalidation across both backends."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_invalidate_removes_every_hash_of_a_key(
        self, backend, tmp_path, resolved_pairs
    ):
        store = (
            MemoryResultStore() if backend == "memory"
            else SqliteResultStore(tmp_path / "results.db")
        )
        with store:
            key, spec, result = resolved_pairs[0]
            store.put(key, "digest-a", result)
            store.put(key, "digest-b", result)
            other_key, _spec, other = resolved_pairs[1]
            store.put(other_key, "digest-a", other)
            assert store.invalidate([key]) == 2
            assert store.get(key, "digest-a") is None
            assert store.get(key, "digest-b") is None
            # Unrelated keys are untouched.
            assert store.get(other_key, "digest-a") == other

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_invalidate_one_specific_hash(self, backend, tmp_path, resolved_pairs):
        store = (
            MemoryResultStore() if backend == "memory"
            else SqliteResultStore(tmp_path / "results.db")
        )
        with store:
            key, _spec, result = resolved_pairs[0]
            store.put(key, "digest-a", result)
            store.put(key, "digest-b", result)
            assert store.invalidate([key], specification_hash="digest-a") == 1
            assert store.get(key, "digest-a") is None
            assert store.get(key, "digest-b") == result

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_invalidation_is_idempotent(self, backend, tmp_path, resolved_pairs):
        """Replayed events re-invalidate freely: absent keys remove nothing."""
        store = (
            MemoryResultStore() if backend == "memory"
            else SqliteResultStore(tmp_path / "results.db")
        )
        with store:
            key, _spec, result = resolved_pairs[0]
            store.put(key, "digest", result)
            assert store.invalidate([key]) == 1
            assert store.invalidate([key]) == 0
            assert store.invalidate(["never-stored"]) == 0
            assert store.invalidate([]) == 0

    def test_statistics_count_appears_only_when_nonzero(self, resolved_pairs):
        """Omit-when-zero: untouched stores report no "invalidated" key."""
        key, _spec, result = resolved_pairs[0]
        with MemoryResultStore() as store:
            store.put(key, "digest", result)
            assert "invalidated" not in store.statistics()
            store.invalidate(["never-stored"])
            assert "invalidated" not in store.statistics()
            store.invalidate([key])
            assert store.statistics()["invalidated"] == 1


def _hammer_invalidations(path, offset, result, rounds):
    """Child-process worker: interleave upserts, reads and invalidations."""
    with SqliteResultStore(path) as store:
        for index in range(rounds):
            key = f"writer{offset}_entity{index}"
            store.put(key, "digest", result)
            store.get(key, "digest")
            assert store.invalidate([key]) in (0, 1)
            store.put(key, "digest", result)  # re-insert after invalidation
            store.invalidate(["shared_entity"])  # contended no-op most rounds
            store.results()


class TestInvalidateAcrossProcesses:
    def test_concurrent_invalidators_do_not_lock_out(self, tmp_path, resolved_pairs):
        """Four processes invalidating while reading the same WAL file."""
        path = str(tmp_path / "contended.db")
        _key, _spec, result = resolved_pairs[0]
        with SqliteResultStore(path) as store:
            store.put("shared_entity", "digest", result)
        writers, rounds = 4, 15
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        processes = [
            context.Process(
                target=_hammer_invalidations, args=(path, offset, result, rounds)
            )
            for offset in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        exit_codes = [process.exitcode for process in processes]
        assert exit_codes == [0] * writers, exit_codes
        with SqliteResultStore(path) as store:
            # Every worker's final state: one re-inserted row per round; the
            # shared row was invalidated by whichever process got there first.
            assert len(store) == writers * rounds
            assert store.get("shared_entity", "digest") is None
