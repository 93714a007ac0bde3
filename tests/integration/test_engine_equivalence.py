"""End-to-end equivalence: the parallel engine vs. one sequential resolver.

The acceptance property of the engine refactor: for NBA, CAREER and Person,
``ResolutionEngine(workers=N)``, whose workers each keep their own compiled
constraint programs, resolves every entity to exactly the same result — same
resolved values, same deduced true values, same per-round deduced orders and
suggestions — as the sequential path (one in-process resolver).
"""

import pytest

from repro.engine import ResolutionEngine
from tests.conftest import run_client_baseline, run_client_experiment
from repro.evaluation.interaction import ReluctantOracle
from repro.resolution.framework import ConflictResolver, ResolverOptions


def assert_resolutions_identical(reference, candidate):
    assert candidate.name == reference.name
    assert candidate.valid == reference.valid
    assert candidate.complete == reference.complete
    assert candidate.resolved_tuple == reference.resolved_tuple
    assert candidate.true_values.values == reference.true_values.values
    assert candidate.fallback_attributes == reference.fallback_attributes
    assert candidate.user_validated_attributes == reference.user_validated_attributes
    assert len(candidate.rounds) == len(reference.rounds)
    for expected, actual in zip(reference.rounds, candidate.rounds):
        assert actual.valid == expected.valid
        # Same deduced orders round for round...
        assert actual.deduced_attributes == expected.deduced_attributes
        assert actual.answers == expected.answers
        # ...and the same user interaction.
        if expected.suggestion is None:
            assert actual.suggestion is None
        else:
            assert actual.suggestion is not None
            assert actual.suggestion.attributes == expected.suggestion.attributes
            assert actual.suggestion.candidates == expected.suggestion.candidates


def sequential_results(dataset, limit, max_rounds):
    """One in-process resolver, entity after entity."""
    options = ResolverOptions(max_rounds=max_rounds, fallback="none")
    resolver = ConflictResolver(options)
    results = []
    for entity, spec in dataset.specifications(limit=limit):
        results.append(resolver.resolve(spec, ReluctantOracle(entity, max_rounds=max_rounds)))
    return results


def engine_results(dataset, limit, max_rounds, workers, **engine_kwargs):
    options = ResolverOptions(max_rounds=max_rounds, fallback="none")
    tasks = [
        (spec, ReluctantOracle(entity, max_rounds=max_rounds))
        for entity, spec in dataset.specifications(limit=limit)
    ]
    with ResolutionEngine(options, workers=workers, **engine_kwargs) as engine:
        return engine.resolve_many(tasks)


@pytest.mark.parametrize("dataset_fixture", ["small_nba_dataset", "small_career_dataset", "small_person_dataset"])
def test_parallel_compiled_matches_legacy_sequential(dataset_fixture, request):
    dataset = request.getfixturevalue(dataset_fixture)
    limit, max_rounds = 4, 2
    reference = sequential_results(dataset, limit, max_rounds)
    candidate = engine_results(dataset, limit, max_rounds, workers=2, chunk_size=2)
    assert len(candidate) == len(reference)
    for expected, actual in zip(reference, candidate):
        assert_resolutions_identical(expected, actual)


def test_sequential_compiled_matches_legacy_sequential(small_nba_dataset):
    reference = sequential_results(small_nba_dataset, limit=4, max_rounds=2)
    candidate = engine_results(small_nba_dataset, limit=4, max_rounds=2, workers=1)
    for expected, actual in zip(reference, candidate):
        assert_resolutions_identical(expected, actual)


def test_chunking_does_not_change_results(small_person_dataset):
    reference = engine_results(small_person_dataset, limit=5, max_rounds=1, workers=2, chunk_size=1)
    candidate = engine_results(small_person_dataset, limit=5, max_rounds=1, workers=2, chunk_size=4)
    for expected, actual in zip(reference, candidate):
        assert_resolutions_identical(expected, actual)


def test_framework_experiment_workers_invariant(small_nba_dataset):
    """run_client_experiment(workers=2) scores exactly like workers=1."""
    sequential = run_client_experiment(small_nba_dataset, max_interaction_rounds=1, limit=4)
    parallel = run_client_experiment(
        small_nba_dataset, max_interaction_rounds=1, limit=4, workers=2, chunk_size=2
    )
    assert parallel.f_measure == sequential.f_measure
    assert parallel.precision == sequential.precision
    assert parallel.recall == sequential.recall
    assert [o.entity_name for o in parallel.outcomes] == [
        o.entity_name for o in sequential.outcomes
    ]
    for seq, par in zip(sequential.outcomes, parallel.outcomes):
        assert seq.counts == par.counts
        assert seq.rounds_used == par.rounds_used
    assert parallel.engine["parallel"] == 1.0
    assert parallel.wall_seconds > 0.0


def test_baseline_experiment_workers_invariant(small_nba_dataset):

    sequential = run_client_baseline(small_nba_dataset, "vote", limit=4)
    parallel = run_client_baseline(small_nba_dataset, "vote", limit=4, workers=2)
    assert parallel.f_measure == sequential.f_measure
    for seq, par in zip(sequential.outcomes, parallel.outcomes):
        assert seq.counts == par.counts
