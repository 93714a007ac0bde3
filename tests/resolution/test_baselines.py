"""Tests for the traditional fusion baselines (Pick, vote, min, max, any)."""

import random

import pytest

from repro.core import CurrencyConstraint, RelationSchema, Specification, is_null
from repro.resolution import (
    any_resolution,
    max_resolution,
    min_resolution,
    pick_resolution,
    vote_resolution,
)


@pytest.fixture
def schema():
    return RelationSchema("r", ["status", "kids", "city"])


@pytest.fixture
def spec(schema):
    sigma = [CurrencyConstraint.value_transition("status", "working", "retired")]
    rows = [
        {"status": "working", "kids": 0, "city": "NY"},
        {"status": "retired", "kids": 3, "city": "NY"},
        {"status": "working", "kids": 1, "city": None},
    ]
    return Specification.from_rows(schema, rows, sigma)


class TestPick:
    def test_pick_resolves_every_attribute(self, spec, schema):
        resolved = pick_resolution(spec, rng=random.Random(1))
        assert set(resolved) == set(schema.attribute_names)

    def test_pick_prefers_non_null_values(self, spec):
        resolved = pick_resolution(spec, rng=random.Random(1))
        assert not is_null(resolved["city"])

    def test_pick_honours_comparison_only_constraints(self, spec):
        # "working" is dominated by the transition constraint, so Pick never returns it.
        for seed in range(10):
            resolved = pick_resolution(spec, rng=random.Random(seed))
            assert resolved["status"] == "retired"

    def test_pick_without_currency_favouring_can_return_dominated_values(self, spec):
        seen = {pick_resolution(spec, rng=random.Random(seed), favor_currency=False)["status"] for seed in range(20)}
        assert "working" in seen

    def test_pick_is_deterministic_given_a_seed(self, spec):
        assert pick_resolution(spec, rng=random.Random(7)) == pick_resolution(spec, rng=random.Random(7))


class TestOtherBaselines:
    def test_vote_picks_most_frequent(self, spec):
        resolved = vote_resolution(spec)
        assert resolved["city"] == "NY"
        assert resolved["status"] == "working"  # 2 of 3 tuples say working

    def test_vote_handles_all_null_attribute(self, schema):
        spec = Specification.from_rows(schema, [{"status": "a"}, {"status": "b"}])
        resolved = vote_resolution(spec)
        assert "city" in resolved

    def test_min_and_max(self, spec):
        assert max_resolution(spec)["kids"] == 3
        assert min_resolution(spec)["kids"] == 0

    def test_any_returns_values_from_the_domain(self, spec):
        resolved = any_resolution(spec, rng=random.Random(3))
        assert resolved["kids"] in (0, 1, 3)


class TestEntityWithoutTuples:
    """An empty active domain resolves to NULL under every strategy."""

    @pytest.fixture
    def empty(self, schema):
        sigma = [
            CurrencyConstraint.value_transition("status", "working", "retired"),
            CurrencyConstraint.monotone("kids"),
        ]
        return Specification.from_rows(schema, [], sigma)

    @pytest.mark.parametrize(
        "strategy",
        [
            lambda spec: pick_resolution(spec, rng=random.Random(0)),
            lambda spec: any_resolution(spec, rng=random.Random(0)),
            vote_resolution,
            min_resolution,
            max_resolution,
        ],
        ids=["pick", "any", "vote", "min", "max"],
    )
    def test_every_attribute_is_null(self, empty, schema, strategy):
        resolved = strategy(empty)
        assert list(resolved) == list(schema.attribute_names)
        assert all(is_null(value) for value in resolved.values())
