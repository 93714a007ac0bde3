"""Tests for constant CFDs."""

import pytest

from repro.core import (
    ConstantCFD,
    ConstraintSyntaxError,
    EntityTuple,
    RelationSchema,
    SchemaError,
)


@pytest.fixture
def schema():
    return RelationSchema("person", ["AC", "city", "zip"])


class TestConstantCFD:
    def test_basic_construction(self):
        cfd = ConstantCFD({"AC": "213"}, "city", "LA")
        assert cfd.lhs_attributes == ("AC",)
        assert cfd.lhs_pattern == {"AC": "213"}
        assert cfd.rhs_attribute == "city"
        assert cfd.rhs_value == "LA"

    def test_empty_lhs_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            ConstantCFD({}, "city", "LA")

    def test_rhs_on_lhs_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            ConstantCFD({"city": "LA"}, "city", "LA")

    def test_multi_attribute_lhs_is_sorted(self):
        cfd = ConstantCFD({"zip": "90058", "AC": "213"}, "city", "LA")
        assert cfd.lhs_attributes == ("AC", "zip")

    def test_referenced_attributes(self):
        cfd = ConstantCFD({"AC": "213"}, "city", "LA")
        assert cfd.referenced_attributes() == frozenset({"AC", "city"})

    def test_validate_against_schema(self, schema):
        ConstantCFD({"AC": "213"}, "city", "LA").validate(schema)
        with pytest.raises(SchemaError):
            ConstantCFD({"AC": "213"}, "county", "LA").validate(schema)

    def test_satisfaction_on_current_tuple(self):
        cfd = ConstantCFD({"AC": "213"}, "city", "LA")
        assert cfd.satisfied_by({"AC": "213", "city": "LA"})
        assert not cfd.satisfied_by({"AC": "213", "city": "NY"})
        # A non-matching LHS makes the CFD vacuously satisfied.
        assert cfd.satisfied_by({"AC": "212", "city": "NY"})

    def test_satisfaction_on_entity_tuple(self, schema):
        cfd = ConstantCFD({"AC": "213"}, "city", "LA")
        row = EntityTuple(schema, {"AC": "213", "city": "LA", "zip": "90058"})
        assert cfd.satisfied_by(row)

    def test_lhs_matches_respects_null(self):
        cfd = ConstantCFD({"AC": "213"}, "city", "LA")
        assert not cfd.lhs_matches({"AC": None, "city": "LA"})
