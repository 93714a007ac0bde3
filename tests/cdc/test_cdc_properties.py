"""Property tests: codec stability, position-independent reads, and the
consume ≡ batch-re-run equivalence over all three paper datasets."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import MemoryResultStore, ResolutionClient
from repro.cdc import (
    ChangeConsumer,
    ConstraintChanged,
    JsonlChangeFeed,
    MemoryChangeFeed,
    SqliteChangeFeed,
    TupleAdded,
    TupleRetracted,
    decode_event,
    encode_event,
)
from repro.cdc.impact import RegistryState
from repro.datasets import (
    CareerConfig,
    NBAConfig,
    PersonConfig,
    generate_career_dataset,
    generate_nba_dataset,
    generate_person_dataset,
)

from tests.cdc._helpers import (
    bootstrap_events,
    canonical_store,
    cdc_run_config,
    make_feed,
)

ROWS = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-9, max_value=9),
        st.text(alphabet="xyz", max_size=4),
    ),
    max_size=3,
)
ENTITIES = st.sampled_from(["e1", "e2", "e3"])
EVENTS = st.one_of(
    st.builds(TupleAdded, entity=ENTITIES, row=ROWS),
    st.builds(TupleRetracted, entity=ENTITIES, row=ROWS),
    st.builds(ConstraintChanged, constraints=st.text(max_size=30)),
)


class TestCodecProperties:
    @given(event=EVENTS)
    def test_round_trip_is_byte_stable(self, event):
        encoded = encode_event(event)
        decoded = decode_event(encoded)
        assert decoded == event
        assert encode_event(decoded) == encoded

    @given(
        events=st.lists(st.tuples(EVENTS, st.booleans()), max_size=8),
        after=st.integers(0, 10),
        limit=st.none() | st.integers(0, 10),
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_feed_reads_are_position_independent(self, events, after, limit):
        """Any backend, cursor and limit, either of two appending handles:
        events(after=k, limit=n) is exactly the first n records past k."""
        expected = [
            (seq, event)
            for seq, (event, _second) in enumerate(events, start=1)
            if seq > after
        ][:limit]
        with tempfile.TemporaryDirectory() as tmp:
            for first, second in _handle_pairs(Path(tmp)):
                with first, second:
                    for event, by_second in events:
                        (second if by_second else first).append(event)
                    for handle in (first, second):
                        got = [
                            (r.seq, r.event)
                            for r in handle.events(after=after, limit=limit)
                        ]
                        assert got == expected
                    assert first.last_sequence() == second.last_sequence() == len(events)


def _handle_pairs(tmp):
    """Two handles on one feed per backend; a memory feed is its only handle."""
    memory = MemoryChangeFeed()
    yield memory, memory
    yield JsonlChangeFeed(tmp / "feed.jsonl"), JsonlChangeFeed(tmp / "feed.jsonl")
    yield SqliteChangeFeed(tmp / "feed.db"), SqliteChangeFeed(tmp / "feed.db")


def _datasets():
    return {
        "nba": generate_nba_dataset(NBAConfig(num_players=4, seasons=2, seed=3)),
        "career": generate_career_dataset(
            CareerConfig(
                num_authors=4,
                num_affiliations=6,
                publications_range=(2, 4),
                seed=7,
            )
        ),
        "person": generate_person_dataset(
            PersonConfig(
                num_entities=4, tuples_per_entity=3, versions_per_entity=3, seed=7
            )
        ),
    }


DATASETS = _datasets()


class TestConsumeEqualsBatch:
    @given(
        name=st.sampled_from(sorted(DATASETS)),
        seed=st.integers(0, 50),
        changes=st.integers(3, 8),
    )
    @settings(max_examples=10, deadline=None)
    def test_incremental_consume_matches_batch_rerun(self, name, seed, changes):
        dataset = DATASETS[name]
        sigma = tuple(dataset.currency_constraints)
        gamma = tuple(dataset.cfds)
        events = bootstrap_events(dataset, changes=changes, seed=seed)

        feed = make_feed(MemoryChangeFeed(), events)
        incremental_store = MemoryResultStore()
        with ResolutionClient(cdc_run_config(incremental_store)) as client:
            with ChangeConsumer(
                feed, client, dataset.schema, sigma=sigma, gamma=gamma
            ) as consumer:
                report = consumer.consume()
        assert report.applied == len(events)

        state = RegistryState(dataset.schema, sigma, gamma)
        for event in events:
            state.apply(event)
        batch_store = MemoryResultStore()
        with ResolutionClient(cdc_run_config(batch_store)) as client:
            for entity in state.entities():
                client.resolve(state.specification(entity))

        assert canonical_store(incremental_store) == canonical_store(batch_store)
