"""Hypothesis property tests for the streaming-layer (PR 3) surfaces.

Three invariants that previously only had example-based coverage:

* the folded :class:`~repro.evaluation.ExperimentResult` aggregates survive a
  ``state_dict`` → :class:`~repro.pipeline.Checkpoint` → ``load_state_dict``
  round trip for *arbitrary* outcome sequences, not just the ones our
  experiments happen to produce;
* :func:`~repro.datasets.shard_entities` is an exact partition: shards are
  disjoint, their round-robin merge reproduces the unsharded stream, and the
  bounds are enforced;
* :class:`~repro.linkage.streaming.StreamingLinker` groups generated row
  streams exactly like the batch :func:`~repro.linkage.matcher.link_rows`
  for a single blocking scheme (the contract its docstring states).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.errors import DatasetError
from repro.core.schema import RelationSchema
from repro.core.values import is_null
from repro.datasets import shard_entities, stable_key_shard
from repro.evaluation import ExperimentResult
from repro.evaluation.experiment import EntityOutcome
from repro.evaluation.metrics import AccuracyCounts
from repro.linkage.matcher import link_rows
from repro.linkage.streaming import stream_link_rows
from repro.pipeline import Checkpoint

# -- ExperimentResult state round trip ----------------------------------------

_PHASES = ("encode", "validity", "deduce", "suggest", "total")

counts_strategy = st.builds(
    AccuracyCounts,
    deduced=st.integers(min_value=0, max_value=40),
    correct=st.integers(min_value=0, max_value=40),
    conflicting=st.integers(min_value=0, max_value=40),
)

outcome_strategy = st.builds(
    EntityOutcome,
    entity_name=st.text(min_size=1, max_size=8),
    entity_size=st.integers(min_value=1, max_value=20),
    counts=counts_strategy,
    rounds_used=st.integers(min_value=0, max_value=6),
    valid=st.booleans(),
    seconds=st.fixed_dictionaries(
        {},
        optional={
            phase: st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
            for phase in _PHASES
        },
    ),
    correct_by_round=st.lists(st.integers(min_value=0, max_value=40), max_size=5),
    reuse=st.dictionaries(
        st.sampled_from(["incremental", "session_solve_calls", "delta_encodings"]),
        st.integers(min_value=0, max_value=100),
        max_size=3,
    ),
)


class TestExperimentStateRoundTrip:
    @given(outcomes=st.lists(outcome_strategy, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_state_survives_checkpoint_round_trip(self, tmp_path_factory, outcomes):
        folded = ExperimentResult(label="property", keep_outcomes=False)
        for outcome in outcomes:
            folded.add_outcome(outcome)

        path = tmp_path_factory.mktemp("ckpt") / "state.json"
        checkpoint = Checkpoint(path)
        checkpoint.save(folded.entities, folded.state_dict())
        saved = checkpoint.load()
        assert saved is not None and saved["processed"] == folded.entities

        restored = ExperimentResult(label="property", keep_outcomes=False)
        restored.load_state_dict(saved["state"])

        assert restored.entities == folded.entities
        assert restored.counts() == folded.counts()
        assert restored.precision == folded.precision
        assert restored.recall == folded.recall
        assert restored.f_measure == folded.f_measure
        assert restored.max_rounds_used() == folded.max_rounds_used()
        assert restored.reuse_summary() == folded.reuse_summary()
        for phase in _PHASES:
            assert restored.total_seconds(phase) == pytest.approx(
                folded.total_seconds(phase)
            )
            assert restored.mean_seconds(phase) == pytest.approx(folded.mean_seconds(phase))
        for rounds in (0, 1, 3, 7):
            assert restored.true_value_fraction_by_round(rounds) == pytest.approx(
                folded.true_value_fraction_by_round(rounds)
            )

    @given(
        outcomes=st.lists(outcome_strategy, min_size=1, max_size=8),
        more=st.lists(outcome_strategy, min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_restored_state_keeps_folding_consistently(self, outcomes, more):
        """Resuming and then folding more outcomes equals one uninterrupted run."""
        uninterrupted = ExperimentResult(label="run", keep_outcomes=False)
        for outcome in outcomes + more:
            uninterrupted.add_outcome(outcome)

        first = ExperimentResult(label="run", keep_outcomes=False)
        for outcome in outcomes:
            first.add_outcome(outcome)
        resumed = ExperimentResult(label="run", keep_outcomes=False)
        resumed.load_state_dict(first.state_dict())
        for outcome in more:
            resumed.add_outcome(outcome)

        assert resumed.entities == uninterrupted.entities
        assert resumed.counts() == uninterrupted.counts()
        assert resumed.state_dict() == uninterrupted.state_dict()


# -- shard_entities partition invariants --------------------------------------


class TestShardEntitiesProperties:
    @given(
        items=st.lists(st.integers(), max_size=60),
        num_shards=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_shards_partition_and_recombine(self, items, num_shards):
        shards = [
            list(shard_entities(items, shard, num_shards)) for shard in range(num_shards)
        ]
        # Disjoint cover: every item lands in exactly one shard.
        assert sum(len(shard) for shard in shards) == len(items)
        # Round-robin recombination reproduces the original stream exactly.
        merged = []
        for index in range(max((len(s) for s in shards), default=0)):
            for shard in shards:
                if index < len(shard):
                    merged.append(shard[index])
        assert merged == items
        # Shard sizes differ by at most one (round robin is balanced).
        if shards:
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    @given(num_shards=st.integers(min_value=-3, max_value=0))
    def test_bad_shard_count_rejected(self, num_shards):
        with pytest.raises(DatasetError):
            list(shard_entities([1, 2, 3], 0, num_shards))

    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        offset=st.integers(min_value=1, max_value=5),
    )
    def test_out_of_range_shard_rejected(self, num_shards, offset):
        with pytest.raises(DatasetError):
            list(shard_entities([1, 2, 3], num_shards + offset - 1, num_shards))


class TestHashKeyShardProperties:
    """The ``key=`` partitioner: stable hash-by-blocking-key partitioning."""

    @given(
        items=st.lists(st.text(max_size=12), max_size=60),
        num_shards=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_keyed_shards_partition_and_merge_by_assignment(self, items, num_shards):
        shards = [
            list(shard_entities(items, shard, num_shards, key=str))
            for shard in range(num_shards)
        ]
        # Disjoint cover: every item lands in exactly one shard.
        assert sum(len(shard) for shard in shards) == len(items)
        # Replaying the assignment order (a pure function of each key) is
        # the exact inverse of the partition — the coordinator's merge.
        cursors = [0] * num_shards
        merged = []
        for item in items:
            index = stable_key_shard(str(item), num_shards)
            assert shards[index][cursors[index]] == item
            merged.append(shards[index][cursors[index]])
            cursors[index] += 1
        assert merged == items

    @given(
        items=st.lists(st.text(max_size=8), max_size=40),
        num_shards=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_keys_are_colocated(self, items, num_shards):
        assignments = {}
        for item in items:
            index = stable_key_shard(str(item), num_shards)
            assert assignments.setdefault(str(item), index) == index

    @given(
        items=st.lists(st.text(max_size=8), min_size=1, max_size=40),
        num_shards=st.integers(min_value=1, max_value=7),
        skip=st.integers(min_value=0, max_value=39),
    )
    @settings(max_examples=60, deadline=None)
    def test_keyed_assignment_is_position_independent(self, items, num_shards, skip):
        # Dropping a prefix (a resumed run) must not move any surviving item
        # to a different shard — unlike round-robin, which re-numbers.
        suffix = items[min(skip, len(items) - 1):]
        full = {
            shard: list(shard_entities(items, shard, num_shards, key=str))
            for shard in range(num_shards)
        }
        resumed = {
            shard: list(shard_entities(suffix, shard, num_shards, key=str))
            for shard in range(num_shards)
        }
        for shard in range(num_shards):
            # The resumed shard stream is a suffix of the full shard stream.
            tail = resumed[shard]
            assert full[shard][len(full[shard]) - len(tail):] == tail

    @given(key=st.text(max_size=20), num_shards=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_stable_key_shard_bounds_and_determinism(self, key, num_shards):
        index = stable_key_shard(key, num_shards)
        assert 0 <= index < num_shards
        assert index == stable_key_shard(key, num_shards)

    @given(num_shards=st.integers(min_value=-3, max_value=0))
    def test_stable_key_shard_rejects_bad_counts(self, num_shards):
        with pytest.raises(DatasetError):
            stable_key_shard("k", num_shards)


# -- StreamingLinker vs batch link_rows ---------------------------------------

_SCHEMA = RelationSchema("rows", ["key", "a", "b"])

row_strategy = st.fixed_dictionaries(
    {
        "key": st.one_of(st.none(), st.sampled_from(["k1", "k2", "k3", "k4"])),
        "a": st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        "b": st.sampled_from(["x", "y", "z"]),
    }
)


def _instance_fingerprint(instance):
    """Order-independent canonical form of an entity instance."""
    rows = []
    for item in instance.tuples:
        rows.append(
            tuple(
                (attribute, None if is_null(item[attribute]) else item[attribute])
                for attribute in instance.schema.attribute_names
            )
        )
    return tuple(sorted(rows, key=repr))


def _fingerprints(instances):
    return sorted((_instance_fingerprint(instance) for instance in instances), key=repr)


class TestStreamingLinkerEquivalence:
    @given(rows=st.lists(row_strategy, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_streaming_matches_batch(self, rows):
        batch = link_rows(_SCHEMA, rows, ["key"], {"key": 1.0, "b": 0.5}, threshold=0.7)
        streamed = list(
            stream_link_rows(
                _SCHEMA, rows, ["key"], {"key": 1.0, "b": 0.5}, threshold=0.7
            )
        )
        assert _fingerprints(streamed) == _fingerprints(batch)

    @given(rows=st.lists(row_strategy, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_bounded_buckets_cover_all_rows_once(self, rows):
        """With an eviction bound, every row still lands in exactly one instance."""
        streamed = list(
            stream_link_rows(
                _SCHEMA, rows, ["key"], {"key": 1.0}, threshold=0.9, max_open_blocks=2
            )
        )
        emitted = sum(len(instance.tuples) for instance in streamed)
        assert emitted == len(rows)

    @given(rows=st.lists(row_strategy, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_bound_no_smaller_than_key_count_is_exact(self, rows):
        """A bound that never forces eviction keeps batch semantics exactly."""
        distinct = len({row["key"] for row in rows if row["key"] is not None})
        bound = max(distinct, 1)
        batch = link_rows(_SCHEMA, rows, ["key"], {"key": 1.0}, threshold=0.9)
        streamed = list(
            stream_link_rows(
                _SCHEMA, rows, ["key"], {"key": 1.0}, threshold=0.9, max_open_blocks=bound
            )
        )
        assert _fingerprints(streamed) == _fingerprints(batch)
