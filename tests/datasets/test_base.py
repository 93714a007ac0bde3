"""Tests for the shared dataset structures (GeneratedEntity / GeneratedDataset)."""

import pytest

from repro.core import DatasetError, EntityTuple, RelationSchema, SchemaError, TemporalOrderDelta
from repro.datasets import GeneratedDataset, GeneratedEntity, sample_constraints
from repro.datasets.base import build_specification
from repro.core import CurrencyConstraint


@pytest.fixture
def schema():
    return RelationSchema("r", ["status", "city"])


@pytest.fixture
def entity():
    return GeneratedEntity(
        name="e1",
        rows=[{"status": "a", "city": "NY"}, {"status": "b", "city": "NY"}],
        true_values={"status": "b", "city": "LA"},
        history=[{"status": "a", "city": "NY"}, {"status": "b", "city": "LA"}],
    )


@pytest.fixture
def dataset(schema, entity):
    sigma = [CurrencyConstraint.value_transition("status", "a", "b")]
    return GeneratedDataset("toy", schema, [entity], sigma, [])


class TestGeneratedEntity:
    def test_size(self, entity):
        assert entity.size() == 2

    def test_conflicting_attributes_detects_conflicts_and_stale_values(self, entity, schema):
        conflicting = entity.conflicting_attributes(schema)
        assert "status" in conflicting  # two distinct observed values
        assert "city" in conflicting  # single observed value, but stale vs. truth

    def test_unconflicted_attribute_not_reported(self, schema):
        entity = GeneratedEntity("e", [{"status": "a", "city": "NY"}], {"status": "a", "city": "NY"})
        assert entity.conflicting_attributes(schema) == ()


class TestSampleConstraints:
    def test_full_fraction_returns_everything(self):
        constraints = list(range(10))
        assert sample_constraints(constraints, 1.0) == constraints

    def test_zero_fraction_returns_nothing(self):
        assert sample_constraints(list(range(10)), 0.0) == []

    def test_half_fraction_returns_half(self):
        assert len(sample_constraints(list(range(10)), 0.5)) == 5

    def test_growing_fraction_is_monotone(self):
        import random

        constraints = list(range(20))
        small = set(sample_constraints(constraints, 0.3, random.Random(7)))
        large = set(sample_constraints(constraints, 0.6, random.Random(7)))
        assert small <= large

    def test_invalid_fraction_rejected(self):
        with pytest.raises(DatasetError):
            sample_constraints([1], 1.5)


class TestGeneratedDataset:
    def test_specification_for_entity(self, dataset, entity):
        spec = dataset.specification_for(entity)
        assert len(spec.instance) == 2
        assert len(spec.currency_constraints) == 1

    def test_constraint_fractions_are_applied(self, dataset, entity):
        spec = dataset.specification_for(entity, sigma_fraction=0.0, gamma_fraction=0.0)
        assert len(spec.currency_constraints) == 0

    def test_specifications_iterator_with_limit(self, dataset):
        assert len(list(dataset.specifications(limit=0))) == 0
        assert len(list(dataset.specifications())) == 1

    def test_entities_by_size(self, dataset):
        grouped = dataset.entities_by_size([(1, 1), (2, 5)])
        assert len(grouped[(2, 5)]) == 1
        assert len(grouped[(1, 1)]) == 0

    def test_all_rows_and_histories(self, dataset):
        assert len(dataset.all_rows()) == 2
        assert len(dataset.histories()) == 1

    def test_summary_mentions_name_and_sizes(self, dataset):
        summary = dataset.summary()
        assert "toy" in summary and "1 entities" in summary


class TestConstraintValidation:
    """A dataset validates its Σ ∪ Γ once, and again after a constraint list changes."""

    BAD = CurrencyConstraint.value_transition("salary", 1, 2, name="bad")

    def test_a_bad_constraint_raises_at_the_first_specification(self, schema, entity):
        dataset = GeneratedDataset("toy", schema, [entity], [self.BAD], [])
        for build in (dataset.specification_for, lambda e: next(dataset.stream().specifications())[1]):
            with pytest.raises(SchemaError, match="salary"):
                build(entity)

    def test_a_changed_constraint_list_is_validated_again(self, dataset, entity):
        assert len(dataset.specification_for(entity).currency_constraints) == 1
        dataset.currency_constraints.append(self.BAD)
        with pytest.raises(SchemaError, match="salary"):
            dataset.specification_for(entity)

    def test_validation_runs_once_per_holder(self, dataset, entity, monkeypatch):
        calls = []
        validate = CurrencyConstraint.validate
        monkeypatch.setattr(
            CurrencyConstraint, "validate", lambda self, schema: calls.append(self) or validate(self, schema)
        )
        for _ in range(3):
            dataset.specification_for(entity)
        spec = dataset.specification_for(entity)
        spec.extend(TemporalOrderDelta(new_tuples=[EntityTuple(spec.schema, {"status": "c"})]))
        assert len(calls) == 1

    def test_build_specification_validates(self, schema, entity):
        with pytest.raises(SchemaError, match="salary"):
            build_specification("toy", schema, entity, [self.BAD], [])
