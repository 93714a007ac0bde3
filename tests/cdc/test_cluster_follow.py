"""Change-feed delivery through the cluster frontdoor (``follow``).

Events route to the *owning* worker (the same ``stable_key_shard`` used for
requests): the worker invalidates the entity's shared-store rows over the
control channel and re-resolves it on its warm engine.  The shared store must
end up semantically identical to a standalone consumer over the same feed.
"""

import asyncio

import pytest

from repro.api import ResolutionClient, RunConfig, SqliteResultStore
from repro.cdc import ChangeConsumer, ConstraintChanged
from repro.core.errors import ReproError
from repro.io.constraints_io import dump_constraints
from repro.pipeline.checkpoint import Checkpoint
from repro.resolution import ResolverOptions
from repro.serving.cluster import ServingCluster
from repro.serving.wire import SpecificationBuilder

from tests.cdc._helpers import (
    canonical_store,
    cdc_run_config,
    make_feed,
    record_decodes,
)


def _builder(dataset):
    return SpecificationBuilder(
        dataset.schema,
        tuple(dataset.currency_constraints),
        tuple(dataset.cfds),
    )


def _cluster_config(store_path):
    return RunConfig(
        options=ResolverOptions(max_rounds=0, fallback="none"), store=store_path
    )


def _run(coro):
    return asyncio.run(coro)


class TestClusterFollow:
    def test_follow_matches_standalone_consumer(
        self, cdc_nba_dataset, nba_events, tmp_path
    ):
        dataset = cdc_nba_dataset
        feed = make_feed(tmp_path / "feed.jsonl", nba_events)
        cluster_store = tmp_path / "cluster.db"
        cursor = tmp_path / "cursor.json"

        async def follow():
            async with ServingCluster(
                _builder(dataset), _cluster_config(cluster_store), workers=2
            ) as cluster:
                report = await cluster.follow(feed, cursor=str(cursor))
                stats = await cluster.stats()
                second = await cluster.follow()
            return report, stats, second

        report, stats, second = _run(follow())
        feed.close()
        assert report["applied"] == len(nba_events)
        assert report["re_resolved"] > 0
        # Lifetime counters and feed lag surface under "cdc" in stats().
        assert stats["cdc"]["applied"] == len(nba_events)
        assert stats["cdc"]["behind"] == 0
        assert stats["cdc"]["position"] == len(nba_events)
        # A caught-up poll applies nothing (and keeps omit-when-zero).
        assert second == {"applied": 0, "position": len(nba_events)}

        # Reference: a standalone consumer over the same feed and options.
        consumer_store = tmp_path / "consumer.db"
        with ResolutionClient(cdc_run_config(consumer_store)) as client:
            with ChangeConsumer(
                tmp_path / "feed.jsonl",
                client,
                dataset.schema,
                sigma=tuple(dataset.currency_constraints),
                gamma=tuple(dataset.cfds),
            ) as consumer:
                consumer.consume()

        with SqliteResultStore(cluster_store) as a, SqliteResultStore(
            consumer_store
        ) as b:
            clustered, standalone = canonical_store(a), canonical_store(b)
        assert clustered == standalone
        assert len(clustered) == len(
            {entity for entity, _digest in clustered}
        ), "one live result per entity"

    def test_resumed_follow_decodes_each_record_once(
        self, cdc_nba_dataset, nba_events, tmp_path, monkeypatch
    ):
        """Recovery reads up to the cursor, the poll reads past it."""
        dataset = cdc_nba_dataset
        feed = make_feed(tmp_path / "feed.jsonl", nba_events)
        cursor = tmp_path / "cursor.json"
        Checkpoint(cursor).save(len(nba_events) - 2)
        decoded = record_decodes(monkeypatch)

        async def follow():
            async with ServingCluster(
                _builder(dataset), _cluster_config(tmp_path / "s.db"), workers=2
            ) as cluster:
                report = await cluster.follow(feed, cursor=str(cursor))
                stats = await cluster.stats()
            return report, stats

        report, stats = _run(follow())
        feed.close()
        assert report["applied"] == 2 and stats["cdc"]["behind"] == 0
        assert decoded == list(range(1, len(nba_events) + 1))

    def test_constraint_changed_is_rejected_while_running(
        self, cdc_nba_dataset, tmp_path
    ):
        dataset = cdc_nba_dataset
        edit = ConstraintChanged(
            constraints=dump_constraints(list(dataset.currency_constraints), [])
        )
        feed = make_feed(tmp_path / "feed.jsonl", [edit])

        async def follow():
            async with ServingCluster(
                _builder(dataset), _cluster_config(tmp_path / "s.db"), workers=2
            ) as cluster:
                await cluster.follow(feed)

        with pytest.raises(ReproError, match="constraint_changed"):
            _run(follow())
        feed.close()

    def test_stats_without_follower_has_no_cdc_block(
        self, cdc_nba_dataset, tmp_path
    ):
        async def stats_only():
            async with ServingCluster(
                _builder(cdc_nba_dataset),
                _cluster_config(tmp_path / "s.db"),
                workers=2,
            ) as cluster:
                return await cluster.stats()

        assert "cdc" not in _run(stats_only())
