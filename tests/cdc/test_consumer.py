"""ChangeConsumer: incremental re-resolution ≡ full batch re-run, exactly once.

The load-bearing claim of the CDC subsystem: after consuming a feed, the
result store is semantically identical to resolving every live entity from
scratch against the final registry state — while only the entities each event
touches were actually re-resolved, and while crashes anywhere inside an
event's apply window resume without double effects.
"""

import pytest

from repro import faults
from repro.api import MemoryResultStore, ResolutionClient
from repro.cdc import (
    ChangeConsumer,
    ConstraintChanged,
    JsonlChangeFeed,
    MemoryChangeFeed,
    TupleAdded,
    feed_status,
)
from repro.cdc.impact import RegistryState
from repro.faults import FaultPlan, InjectedCrash
from repro.io.constraints_io import dump_constraints
from repro.pipeline.checkpoint import Checkpoint

from tests.cdc._helpers import (
    bootstrap_events,
    canonical_store,
    cdc_run_config,
    make_feed,
    record_decodes,
)


def batch_reference(dataset_schema, events, sigma=(), gamma=()):
    """Resolve every live entity of the final registry state from scratch."""
    state = RegistryState(dataset_schema, sigma, gamma)
    for event in events:
        state.apply(event)
    store = MemoryResultStore()
    with ResolutionClient(cdc_run_config(store)) as client:
        for entity in state.entities():
            client.resolve(state.specification(entity))
    return canonical_store(store)


def consume_all(schema, events, *, sigma=(), gamma=(), feed=None, **kwargs):
    """Run one consumer over *events*; return (report, canonical store)."""
    feed = feed if feed is not None else make_feed(MemoryChangeFeed(), events)
    store = MemoryResultStore()
    with ResolutionClient(cdc_run_config(store)) as client:
        with ChangeConsumer(
            feed, client, schema, sigma=sigma, gamma=gamma, **kwargs
        ) as consumer:
            report = consumer.consume()
    return report, canonical_store(store)


class TestBatchEquivalence:
    def test_consume_matches_batch_rerun(self, cdc_nba_dataset, nba_events):
        report, incremental = consume_all(cdc_nba_dataset.schema, nba_events)
        assert report.applied == len(nba_events)
        assert incremental == batch_reference(cdc_nba_dataset.schema, nba_events)

    def test_tuple_added_reuses_warm_encoders(self, cdc_nba_dataset, nba_events):
        report, _ = consume_all(cdc_nba_dataset.schema, nba_events)
        # Every re-resolution past an entity's first is a delta reuse: the
        # cached solver session absorbs the new tuple instead of re-encoding.
        assert report.delta_reuses > 0
        assert report.re_resolved == report.delta_reuses + report.full_encodes

    def test_equivalence_holds_without_encoder_cache(
        self, cdc_nba_dataset, nba_events
    ):
        """encoder_cache=0 forces the cold path; results must not change."""
        report, cold = consume_all(
            cdc_nba_dataset.schema, nba_events, encoder_cache=0
        )
        assert report.delta_reuses == 0
        _report, warm = consume_all(cdc_nba_dataset.schema, nba_events)
        assert cold == warm

    def test_chunked_consumption_matches_one_shot(
        self, cdc_nba_dataset, nba_events
    ):
        feed = make_feed(MemoryChangeFeed(), nba_events)
        store = MemoryResultStore()
        with ResolutionClient(cdc_run_config(store)) as client:
            with ChangeConsumer(feed, client, cdc_nba_dataset.schema) as consumer:
                applied = 0
                while True:
                    report = consumer.consume(max_events=3)
                    applied += report.applied
                    if report.applied == 0:
                        break
                assert applied == len(nba_events)
        _report, one_shot = consume_all(cdc_nba_dataset.schema, nba_events)
        assert canonical_store(store) == one_shot


class TestConstraintChanges:
    def test_constraint_edit_rekeys_and_re_resolves(self, cdc_nba_dataset):
        dataset = cdc_nba_dataset
        events = bootstrap_events(dataset, changes=4)
        # Drop the CFDs mid-stream: entities observing touched attributes
        # re-resolve under the new hash; the rest are rekeyed, not re-run.
        edit = ConstraintChanged(
            constraints=dump_constraints(list(dataset.currency_constraints), [])
        )
        events = events[:-2] + [edit] + events[-2:]
        report, incremental = consume_all(
            dataset.schema,
            events,
            sigma=tuple(dataset.currency_constraints),
            gamma=tuple(dataset.cfds),
        )
        assert report.applied == len(events)
        assert incremental == batch_reference(
            dataset.schema,
            events,
            sigma=tuple(dataset.currency_constraints),
            gamma=tuple(dataset.cfds),
        )


class TestExactlyOnce:
    def test_crash_mid_event_resumes_without_double_effects(
        self, cdc_nba_dataset, nba_events, tmp_path
    ):
        """Crash after the store work of one event, before its cursor save."""
        schema = cdc_nba_dataset.schema
        feed = make_feed(MemoryChangeFeed(), nba_events)
        cursor = tmp_path / "cursor.json"
        store = MemoryResultStore()
        crash_at = len(nba_events) - 2
        faults.install(FaultPlan(crash_consumer_on_event=crash_at, raise_times=1))
        try:
            with ResolutionClient(cdc_run_config(store)) as client:
                with ChangeConsumer(feed, client, schema, cursor=cursor) as consumer:
                    with pytest.raises(InjectedCrash):
                        consumer.consume()
                    assert consumer.position == crash_at - 1
        finally:
            faults.clear()
        # A fresh consumer (new process in real life) resumes from the cursor:
        # the doomed event re-applies idempotently, then the tail completes.
        with ResolutionClient(cdc_run_config(store)) as client:
            with ChangeConsumer(feed, client, schema, cursor=cursor) as resumed:
                report = resumed.consume()
                assert report.applied == 3
                assert report.position == len(nba_events)
        _report, clean = consume_all(schema, nba_events)
        assert canonical_store(store) == clean

    def test_caught_up_consumer_applies_nothing(
        self, cdc_nba_dataset, nba_events, tmp_path
    ):
        schema = cdc_nba_dataset.schema
        feed = make_feed(MemoryChangeFeed(), nba_events)
        cursor = tmp_path / "cursor.json"
        store = MemoryResultStore()
        with ResolutionClient(cdc_run_config(store)) as client:
            with ChangeConsumer(feed, client, schema, cursor=cursor) as consumer:
                consumer.consume()
            before = canonical_store(store)
            with ChangeConsumer(feed, client, schema, cursor=cursor) as again:
                report = again.consume()
        assert report.applied == 0 and report.re_resolved == 0
        assert canonical_store(store) == before


class TestReadCost:
    def test_poll_decodes_only_what_it_reads(self, tmp_path, monkeypatch):
        """A poll on a long JSONL feed decodes the records it returns."""
        from repro.core import Attribute, AttributeType, RelationSchema

        schema = RelationSchema("t", [Attribute("a", AttributeType.STRING)])
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as writer:
            for index in range(1000):
                writer.append(TupleAdded(entity=f"e{index}", row={"a": f"v{index}"}))
        Checkpoint(tmp_path / "cursor.json").save(999)
        decoded = record_decodes(monkeypatch)
        with JsonlChangeFeed(path) as feed:
            assert len(decoded) == 1000  # the open scan validates every line
            decoded.clear()
            with ResolutionClient(cdc_run_config(MemoryResultStore())) as client:
                with ChangeConsumer(
                    feed, client, schema, cursor=tmp_path / "cursor.json"
                ) as consumer:
                    assert consumer.position == 999
                    assert decoded == list(range(1, 1000))  # none past the cursor
                    decoded.clear()
                    assert feed_status(feed, 999)["behind"] == 1
                    assert len(decoded) <= 1
                    decoded.clear()
                    report = consumer.consume(max_events=1)
                    assert report.applied == 1 and report.position == 1000
                    assert decoded == [1000]


class TestReports:
    def test_report_dict_omits_zero_counters(self):
        from repro.core import Attribute, AttributeType, RelationSchema

        feed = MemoryChangeFeed()
        schema = RelationSchema("t", [Attribute("a", AttributeType.STRING)])
        with ResolutionClient(cdc_run_config(MemoryResultStore())) as client:
            with ChangeConsumer(feed, client, schema) as consumer:
                report = consumer.consume()
        assert report.as_dict() == {"applied": 0, "position": 0}

    def test_feed_status_lag(self):
        feed = MemoryChangeFeed()
        assert feed_status(feed, 0) == {
            "last_sequence": 0,
            "position": 0,
            "behind": 0,
        }
        feed.append(TupleAdded(entity="e", row={"a": 1}))
        feed.append(TupleAdded(entity="e", row={"a": 2}))
        status = feed_status(feed, 1)
        assert status["last_sequence"] == 2
        assert status["position"] == 1
        assert status["behind"] == 1
        assert status["oldest_pending_age"] >= 0
