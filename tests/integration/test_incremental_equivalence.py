"""Cross-check: the incremental resolve path must match the from-scratch path.

This is the safety net of the incremental-session refactor: for every entity
of the (corrupted) generated datasets, resolving through the persistent
``IncrementalEncoder`` + ``SolverSession`` pipeline must produce exactly the
same ``ResolutionResult.true_values`` as re-encoding and cold-solving every
round.
"""

import pytest

from repro.core import values_equal
from repro.datasets import (
    CareerConfig,
    NBAConfig,
    PersonConfig,
    generate_career_dataset,
    generate_nba_dataset,
    generate_person_dataset,
)
from repro.evaluation.interaction import ReluctantOracle
from repro.resolution import ConflictResolver, ResolverOptions


DATASETS = pytest.mark.parametrize(
    "generate, config",
    [
        (generate_nba_dataset, NBAConfig(num_players=6, seed=17)),
        (generate_career_dataset, CareerConfig(num_authors=5, seed=23)),
        (generate_person_dataset, PersonConfig(num_entities=6, seed=29)),
    ],
    ids=["nba", "career", "person"],
)


def _resolve(spec, entity, incremental, max_rounds=2, backend="arena"):
    options = ResolverOptions(
        max_rounds=max_rounds,
        fallback="none",
        incremental=incremental,
        solver_backend=backend,
    )
    oracle = ReluctantOracle(entity, max_rounds=max_rounds)
    return ConflictResolver(options).resolve(spec, oracle)


def _assert_equivalent(incremental, from_scratch, label):
    assert incremental.valid == from_scratch.valid, label
    assert incremental.complete == from_scratch.complete, label
    assert set(incremental.true_values.values) == set(from_scratch.true_values.values), label
    for attribute, value in incremental.true_values.values.items():
        assert values_equal(value, from_scratch.true_values.values[attribute]), (
            label,
            attribute,
        )
    assert incremental.user_validated_attributes == from_scratch.user_validated_attributes, label


@DATASETS
def test_incremental_resolution_matches_from_scratch(generate, config):
    dataset = generate(config)
    for entity, spec in dataset.specifications(1.0, 1.0):
        incremental = _resolve(spec, entity, incremental=True)
        from_scratch = _resolve(spec, entity, incremental=False)
        _assert_equivalent(incremental, from_scratch, entity.name)


@DATASETS
def test_incremental_resolution_matches_across_backends(generate, config):
    """The DPLL session backend must agree with the arena session backend.

    The two backends search differently, so their solver statistics differ;
    what the paper's algorithms read from them — validity, the deduced
    values, and with those every suggestion and round — must not.
    """
    dataset = generate(config)
    for entity, spec in dataset.specifications(1.0, 1.0):
        arena = _resolve(spec, entity, incremental=True, backend="arena")
        dpll = _resolve(spec, entity, incremental=True, backend="dpll")
        _assert_equivalent(arena, dpll, entity.name)
        assert [
            (report.valid, report.deduced_attributes, report.suggestion, report.answers)
            for report in arena.rounds
        ] == [
            (report.valid, report.deduced_attributes, report.suggestion, report.answers)
            for report in dpll.rounds
        ], entity.name


def test_incremental_path_encodes_once_per_entity():
    """Acceptance check: one full encoding, then delta encodings only."""
    dataset = generate_nba_dataset(NBAConfig(num_players=4, seed=37))
    for entity, spec in dataset.specifications(1.0, 1.0):
        result = _resolve(spec, entity, incremental=True)
        initial_counts = {
            report.encoding_statistics.get("initial_clauses")
            for report in result.rounds
        }
        # The number of clauses produced by the single full encoding never
        # changes: every later round only appended delta clauses.
        assert len(initial_counts) == 1
        final = result.rounds[-1].encoding_statistics
        assert final["incremental"] == 1
        assert final["delta_encodings"] == max(0, len(result.rounds) - 1)
        assert final["session_solve_calls"] >= len(result.rounds)
        if len(result.rounds) > 1:
            assert final["session_incremental_solves"] > 0
