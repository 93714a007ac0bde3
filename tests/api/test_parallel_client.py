"""The in-process parallel path: a client over a ``workers=N`` engine.

The load-bearing guarantee is *byte-identity*: a parallel run must produce
exactly the stream a sequential run produces — same results, same order —
for every pool shape, every dataset, warm or cold pools, cold or populated
stores, and with entities failing mid-run (the survivors' results must not
move).  Comparisons use a canonical projection that drops only per-round
wall-clock timings, which are the one nondeterministic field and are
excluded from every serialized output format.

Faults reach forked pool workers through the environment variable, so every
fault test builds its own client (and with it a fresh pool) after setting it.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.api import MemoryResultStore, ResolutionClient, RunConfig
from repro.faults import ENV_VAR, FaultPlan
from repro.serving.host import EngineHost

#: ``(workers, chunk_size)`` pool shapes checked against the sequential run.
POOL_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 4))

#: The parallel shape the lease, store and fault tests run on.
PARALLEL = RunConfig(workers=2, chunk_size=2)

#: Matches the entities at input positions 1 and 4 of every dataset below.
DOOMED = "*[14]"


def canon(result):
    """Everything a result asserts, minus per-round wall-clock timings."""
    return (
        result.name,
        result.valid,
        result.complete,
        dict(result.true_values.values),
        result.resolved_tuple,
        result.fallback_attributes,
        result.user_validated_attributes,
        result.failure,
        result.attempts,
        [
            (
                report.round_index,
                report.valid,
                report.deduced_attributes,
                report.suggestion,
                report.answers,
            )
            for report in result.rounds
        ],
    )


def dataset_pairs(dataset, limit=6):
    """``(key, specification)`` pairs of the dataset's first *limit* entities."""
    return [(entity.name, spec) for entity, spec in dataset.specifications(limit=limit)]


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def shared_host():
    host = EngineHost()
    yield host
    host.close()


@pytest.fixture(scope="module", params=["nba", "career", "person"])
def pairs_and_baseline(request):
    """Per-dataset entity pairs plus the sequential reference stream."""
    dataset = request.getfixturevalue(f"small_{request.param}_dataset")
    pairs = dataset_pairs(dataset)
    with ResolutionClient(RunConfig()) as client:
        baseline = [canon(result) for result in client.resolve_stream(list(pairs))]
    return pairs, baseline


class TestDeterministicOrder:
    @pytest.mark.parametrize("workers, chunk_size", POOL_SHAPES)
    def test_parallel_stream_identical_to_sequential(
        self, pairs_and_baseline, shared_host, workers, chunk_size
    ):
        pairs, baseline = pairs_and_baseline
        config = RunConfig(workers=workers, chunk_size=chunk_size)
        with ResolutionClient(config, host=shared_host) as client:
            streamed = [canon(result) for result in client.resolve_stream(list(pairs))]
        assert streamed == baseline

    def test_second_client_reuses_the_warm_pool(self, pairs_and_baseline):
        pairs, baseline = pairs_and_baseline
        with EngineHost() as host:
            for generation in range(2):
                with ResolutionClient(PARALLEL, host=host) as client:
                    streamed = [canon(r) for r in client.resolve_stream(list(pairs))]
                    stats = client.stats()
                assert streamed == baseline
                assert stats.entities == stats.resolved == len(pairs)
                assert stats.store_hits == 0
                # The second generation found the pool warm: one pool, not two.
                assert stats.lease["reused"] is (generation == 1)
            assert host.statistics()["engines"] == 1

    def test_parallel_over_populated_store_skips_engine(
        self, pairs_and_baseline, shared_host
    ):
        pairs, baseline = pairs_and_baseline
        store = MemoryResultStore()
        config = RunConfig(workers=2, chunk_size=2, store=store)
        with ResolutionClient(config, host=shared_host) as client:
            list(client.resolve_stream(list(pairs)))
            engine_before = client.engine.statistics.entities
            streamed = [canon(r) for r in client.resolve_stream(list(pairs))]
            stats = client.stats()
            engine_after = client.engine.statistics.entities
        assert streamed == baseline
        # Every entity of the second pass was a store hit; the pool resolved nothing.
        assert stats.store_hits == len(pairs)
        assert stats.resolved == len(pairs)
        assert engine_after == engine_before

    def test_early_close_leaves_the_client_usable(self, small_nba_dataset, shared_host):
        pairs = dataset_pairs(small_nba_dataset)
        config = RunConfig(workers=2, chunk_size=1)
        with ResolutionClient(config, host=shared_host) as client:
            baseline = [canon(r) for r in client.resolve_stream(list(pairs))]
            stream = client.resolve_stream(list(pairs))
            assert canon(next(stream)) == baseline[0]
            stream.close()  # must drop the in-flight chunks, not hang
            assert [canon(r) for r in client.resolve_stream(list(pairs))] == baseline


class TestFailureModel:
    def test_failing_entities_quarantined_survivors_identical(
        self, pairs_and_baseline, monkeypatch
    ):
        pairs, baseline = pairs_and_baseline
        doomed = {spec.name for index, (_key, spec) in enumerate(pairs) if index in (1, 4)}
        monkeypatch.setenv(ENV_VAR, FaultPlan(raise_in_resolver=DOOMED).encode())
        with ResolutionClient(PARALLEL) as client:
            streamed = list(client.resolve_stream(list(pairs)))
            stats = client.stats()
            quarantine = client.engine.statistics.quarantine
        # The stream is complete: one result per input, input order.
        assert [r.name for r in streamed] == [spec.name for _key, spec in pairs]
        by_name = {entry[0]: entry for entry in baseline}
        for result in streamed:
            if result.name in doomed:
                assert result.failure == "injected"
                assert not result.valid
            else:
                # Survivors are untouched by the failing entities.
                assert canon(result) == by_name[result.name]
        assert sorted(record.entity for record in quarantine) == sorted(doomed)
        assert stats.quarantined == len(doomed)

    def test_transient_fault_heals_by_retry(self, pairs_and_baseline, monkeypatch):
        pairs, baseline = pairs_and_baseline
        plan = FaultPlan(raise_in_resolver=DOOMED, raise_times=1)
        monkeypatch.setenv(ENV_VAR, plan.encode())
        with ResolutionClient(PARALLEL) as client:
            streamed = [canon(r) for r in client.resolve_stream(list(pairs))]
            statistics = client.engine.statistics
        # The faults fired and were re-driven; nothing of them shows in the results.
        assert statistics.chunk_retries >= 1
        assert statistics.quarantine == []
        assert streamed == baseline

    def test_rerun_resolves_exactly_the_quarantined_entities(
        self, small_nba_dataset, monkeypatch
    ):
        """A re-run that retries quarantined entities re-resolves only those."""
        pairs = dataset_pairs(small_nba_dataset)
        doomed = {pairs[1][1].name, pairs[4][1].name}
        with ResolutionClient(RunConfig()) as client:
            baseline = [canon(r) for r in client.resolve_stream(list(pairs))]
        store = MemoryResultStore()
        monkeypatch.setenv(ENV_VAR, FaultPlan(raise_in_resolver=DOOMED).encode())
        with ResolutionClient(RunConfig(workers=2, chunk_size=2, store=store)) as client:
            first = list(client.resolve_stream(list(pairs)))
        monkeypatch.delenv(ENV_VAR)
        assert {r.name for r in first if r.failure} == doomed
        config = RunConfig(workers=2, chunk_size=2, store=store, retry_quarantined=True)
        with ResolutionClient(config) as client:
            second = [canon(r) for r in client.resolve_stream(list(pairs))]
            stats = client.stats()
        assert second == baseline
        assert stats.store_hits == len(pairs) - len(doomed)
        assert stats.resolved == len(doomed)
        assert stats.quarantined == 0
