"""Cross-check: the incremental resolve path must match the from-scratch path.

This is the safety net of the incremental-session refactor: for every entity
of the (corrupted) generated datasets, resolving through the persistent
``IncrementalEncoder`` + ``SolverSession`` pipeline must produce exactly the
same ``ResolutionResult.true_values`` as encoding from scratch into a fresh
encoder every round.
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
from repro.encoding import IncrementalEncoder
from repro.evaluation.interaction import ReluctantOracle
from repro.resolution import ConflictResolver, ResolverOptions, naive_deduce

from tests.solvers._dpll_reference import DPLLSession


DATASETS = pytest.mark.parametrize(
    "generate, config",
    [
        (generate_nba_dataset, NBAConfig(num_players=6, seed=17)),
        (generate_career_dataset, CareerConfig(num_authors=5, seed=23)),
        (generate_person_dataset, PersonConfig(num_entities=6, seed=29)),
    ],
    ids=["nba", "career", "person"],
)


def _resolve(spec, entity, incremental, max_rounds=2, session=None):
    """Resolve *spec*; a given *session* backs the encoder the resolver starts from."""
    options = ResolverOptions(max_rounds=max_rounds, fallback="none", incremental=incremental)
    oracle = ReluctantOracle(entity, max_rounds=max_rounds)
    encoder = None if session is None else IncrementalEncoder(spec, session=session)
    return ConflictResolver(options).resolve(spec, oracle, encoder=encoder)


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
    """The DPLL reference session must agree with the arena session.

    The two search differently, so their solver statistics differ; what the
    paper's algorithms read from them — validity, the deduced values, and
    with those every suggestion and round — must not.
    """
    dataset = generate(config)
    for entity, spec in dataset.specifications(1.0, 1.0):
        arena = _resolve(spec, entity, incremental=True)
        dpll = _resolve(spec, entity, incremental=True, session=DPLLSession())
        _assert_equivalent(arena, dpll, entity.name)
        assert [
            (report.valid, report.deduced_attributes, report.suggestion, report.answers)
            for report in arena.rounds
        ] == [
            (report.valid, report.deduced_attributes, report.suggestion, report.answers)
            for report in dpll.rounds
        ], entity.name


@DATASETS
def test_naive_deduce_matches_across_backends(generate, config):
    """NaiveDeduce, which no resolution runs, must read the same orders off both sessions."""
    dataset = generate(config)
    pair_questions = 0
    for entity, spec in dataset.specifications(1.0, 1.0):
        arena = naive_deduce(IncrementalEncoder(spec))
        dpll = naive_deduce(IncrementalEncoder(spec, session=DPLLSession()))
        assert (arena.orders, arena.conflict) == (dpll.orders, dpll.conflict), entity.name
        assert arena.sat_calls == dpll.sat_calls, entity.name
        pair_questions += arena.sat_calls - 1
    assert pair_questions > 0


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


def test_from_scratch_path_encodes_every_round(monkeypatch):
    """Acceptance check: from scratch, a fresh full encoding every round and no delta."""
    encoded, applied = [], []
    init = IncrementalEncoder.__init__

    def counting_init(self, spec, *args, **kwargs):
        encoded.append(spec)
        init(self, spec, *args, **kwargs)

    monkeypatch.setattr(IncrementalEncoder, "__init__", counting_init)
    monkeypatch.setattr(IncrementalEncoder, "apply_delta", lambda self, delta: applied.append(delta))
    dataset = generate_nba_dataset(NBAConfig(num_players=4, seed=37))
    rounds = []
    for entity, spec in dataset.specifications(1.0, 1.0):
        encoded.clear()
        result = _resolve(spec, entity, incremental=False)
        rounds.append(len(result.rounds))
        # Round k encodes S_e ⊕ O_k: S_e itself, then one more answer tuple a round.
        sizes = [len(current.instance.tids) for current in encoded]
        assert encoded[0] is spec and sizes == sorted(set(sizes)) and len(sizes) == rounds[-1]
        for report in result.rounds:
            assert report.encoding_statistics["incremental"] == 0
            assert not {"delta_encodings", "session_solve_calls"} & set(report.encoding_statistics)
    assert applied == [] and max(rounds) > 1
