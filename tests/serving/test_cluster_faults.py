"""Cluster failure-model tests: worker death, respawn, quarantine, resume.

A dead worker is retried by *respawning* it under the cluster's
``RetryPolicy``; one that stays dead becomes a ``"shard:N"`` quarantine
record whose requests get all-NULL failure fills, while the surviving
workers' responses stay byte-identical to a single resolver.  The
``fail_shard`` fault plan drives both cases at worker start.
"""

import asyncio

from repro import faults
from repro.api.config import RunConfig
from repro.core.retry import RetryPolicy
from repro.faults import FaultPlan
from repro.resolution.framework import ConflictResolver, ResolverOptions
from repro.serving import (
    ServingCluster,
    decode_response,
    encode_request,
    encode_response,
    response_from_result,
)
from repro.serving.cluster import WORKER_LOST

from tests.serving.conftest import dataset_builder, dataset_requests

AUTOMATIC = ResolverOptions(max_rounds=0, fallback="none")


def automatic_config() -> RunConfig:
    return RunConfig(options=AUTOMATIC, workers=1)


def reference_by_entity(dataset):
    """Entity -> the single-resolver response bytes (the survivor contract)."""
    builder = dataset_builder(dataset)
    resolver = ConflictResolver(AUTOMATIC)
    return {
        request.entity: encode_response(
            response_from_result(request, resolver.resolve(builder(request)))
        )
        for request in dataset_requests(dataset)
    }


def split_by_shard(cluster, requests):
    """(doomed, survivors) entity lists for a cluster whose shard 0 dies."""
    doomed = [r.entity for r in requests if cluster.shard_of(r.entity) == 0]
    survivors = [r.entity for r in requests if cluster.shard_of(r.entity) != 0]
    assert doomed and survivors, "the small dataset must populate both shards"
    return doomed, survivors


class TestWorkerLoss:
    def test_dead_worker_quarantined_survivors_byte_identical(self, small_nba_dataset):
        requests = dataset_requests(small_nba_dataset)
        lines = [encode_request(item) + "\n" for item in requests]
        expected = reference_by_entity(small_nba_dataset)
        cluster = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        doomed, survivors = split_by_shard(cluster, requests)
        out = []

        async def run():
            async with cluster:
                # A hard, unannounced process death before any answer.
                cluster._shards[0].process.terminate()
                return await cluster.serve_lines(lines, out.append)

        written = asyncio.run(run())
        assert written == len(requests)
        # The stream stays complete and in input order.
        responses = [decode_response(line) for line in out]
        assert [response.entity for response in responses] == [
            item.entity for item in requests
        ]
        for response, line in zip(responses, out):
            if response.entity in survivors:
                assert line.rstrip("\n") == expected[response.entity]
            else:
                assert response.failure == WORKER_LOST
                assert response.attempts == 1
                assert not response.valid
                assert set(response.resolved.values()) == {None}
        assert [record.entity for record in cluster.quarantine] == ["shard:0"]
        assert cluster.quarantine[0].reason == WORKER_LOST
        assert cluster._shards[1].failed == ""  # the survivor was untouched

    def test_worker_respawn_heals_within_retry_budget(self, small_nba_dataset):
        requests = dataset_requests(small_nba_dataset)
        lines = [encode_request(item) + "\n" for item in requests]
        expected = reference_by_entity(small_nba_dataset)
        cluster = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0),
        )
        out = []

        async def run():
            async with cluster:
                cluster._shards[0].process.terminate()
                return await cluster.serve_lines(lines, out.append)

        written = asyncio.run(run())
        assert written == len(requests)
        # The respawned incarnation answered everything — no fills, no
        # quarantine, full byte-identity.
        assert [line.rstrip("\n") for line in out] == [
            expected[item.entity] for item in requests
        ]
        assert cluster.quarantine == []
        assert cluster._shards[0].retries >= 1
        assert cluster._shards[0].incarnation >= 2


class TestInjectedFaults:
    def test_bounded_fail_shard_plan_heals_on_respawn(
        self, monkeypatch, small_nba_dataset
    ):
        """A raise_times-bounded plan kills incarnation 1; the respawn replays
        the dead incarnation's attempt counter and comes up clean."""
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(fail_shard=0, raise_times=1).encode())
        requests = dataset_requests(small_nba_dataset)
        lines = [encode_request(item) + "\n" for item in requests]
        expected = reference_by_entity(small_nba_dataset)
        cluster = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0),
        )
        out = []

        async def run():
            async with cluster:
                return await cluster.serve_lines(lines, out.append)

        written = asyncio.run(run())
        assert written == len(requests)
        assert [line.rstrip("\n") for line in out] == [
            expected[item.entity] for item in requests
        ]
        assert cluster.quarantine == []
        assert cluster._shards[0].retries >= 1

    def test_unbounded_fail_shard_plan_exhausts_into_quarantine(
        self, monkeypatch, small_nba_dataset
    ):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(fail_shard=0).encode())
        requests = dataset_requests(small_nba_dataset)
        lines = [encode_request(item) + "\n" for item in requests]
        expected = reference_by_entity(small_nba_dataset)
        cluster = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.02, jitter=0.0),
        )
        doomed, survivors = split_by_shard(cluster, requests)
        out = []

        async def run():
            async with cluster:
                return await cluster.serve_lines(lines, out.append)

        written = asyncio.run(run())
        assert written == len(requests)
        assert [record.entity for record in cluster.quarantine] == ["shard:0"]
        assert cluster.quarantine[0].attempts == 2  # both incarnations died
        for line in out:
            response = decode_response(line)
            if response.entity in survivors:
                assert line.rstrip("\n") == expected[response.entity]
            else:
                assert response.failure == WORKER_LOST and response.attempts == 2


class TestExactlyOnceResume:
    def test_resume_over_the_shared_store_is_exactly_once(
        self, tmp_path, small_nba_dataset
    ):
        store_path = str(tmp_path / "resume.sqlite")
        requests = dataset_requests(small_nba_dataset)
        lines = [encode_request(item) + "\n" for item in requests]
        expected = reference_by_entity(small_nba_dataset)

        # Run 1: shard 0 dies on arrival past its retry budget — survivors
        # are resolved (and stored), the doomed shard's entities are filled.
        first = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            store=store_path,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        doomed, survivors = split_by_shard(first, requests)
        out_first = []

        async def run_first():
            async with first:
                first._shards[0].process.terminate()
                return await first.serve_lines(lines, out_first.append)

        asyncio.run(run_first())
        assert [record.entity for record in first.quarantine] == ["shard:0"]

        # Run 2: a fresh, fault-free cluster over the same store answers the
        # full stream; the survivors' work is *not* redone — every one is a
        # store hit — while the previously-failed entities resolve now.
        second = ServingCluster(
            dataset_builder(small_nba_dataset),
            automatic_config(),
            workers=2,
            store=store_path,
        )
        out_second = []

        async def run_second():
            async with second:
                written = await second.serve_lines(lines, out_second.append)
                return written, await second.stats()

        written, summary = asyncio.run(run_second())
        assert written == len(requests)
        assert [line.rstrip("\n") for line in out_second] == [
            expected[item.entity] for item in requests
        ]
        hits = sum(
            entry["server"]["store_hits"]
            for entry in summary["shards"]
            if "server" in entry
        )
        assert hits == len(survivors)
