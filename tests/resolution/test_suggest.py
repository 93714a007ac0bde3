"""Tests for suggestion generation (DeriveVR, Suggest, GetSug)."""

import pytest

from repro.core import CurrencyConstraint, RelationSchema, Specification, TrueValueAssignment
from repro.encoding import IncrementalEncoder
from repro.resolution import (
    deduce_order,
    derive_candidate_values,
    extract_true_values,
    suggest,
)
from repro.resolution.suggest import SuggestOptions


@pytest.fixture
def george_pipeline(george_spec):
    encoder = IncrementalEncoder(george_spec)
    deduced = deduce_order(encoder)
    known = extract_true_values(george_spec, deduced)
    return george_spec, encoder, deduced, known


class TestDeriveVR:
    def test_candidates_exclude_dominated_values(self, george_pipeline):
        spec, encoder, deduced, known = george_pipeline
        candidates = derive_candidate_values(spec, deduced, known)
        # Example 12: V(status) = {retired, unemployed} (working is dominated).
        assert set(candidates["status"]) == {"retired", "unemployed"}
        # Known attributes (name, kids) are not offered.
        assert "name" not in candidates and "kids" not in candidates

    def test_candidates_for_edith_are_empty(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        known = extract_true_values(edith_spec, deduced)
        assert derive_candidate_values(edith_spec, deduced, known) == {}


class TestSuggestOnGeorge:
    def test_suggestion_matches_example_12(self, george_pipeline):
        spec, encoder, deduced, known = george_pipeline
        suggestion = suggest(encoder, deduced, known)
        # The paper's suggestion is exactly {status} with candidates {retired, unemployed}.
        assert suggestion.attributes == ("status",)
        assert set(suggestion.candidates["status"]) == {"retired", "unemployed"}
        assert not suggestion.is_empty()
        assert "status" in str(suggestion)

    def test_derivable_attributes_cover_the_rest(self, george_pipeline):
        spec, encoder, deduced, known = george_pipeline
        suggestion = suggest(encoder, deduced, known)
        expected_rest = set(spec.schema.attribute_names) - set(known.known_attributes()) - {"status"}
        assert set(suggestion.derivable_attributes) == expected_rest

    def test_kept_rules_are_conflict_free(self, george_pipeline):
        spec, encoder, deduced, known = george_pipeline
        suggestion = suggest(encoder, deduced, known)
        assert suggestion.kept_rules
        targets = [rule.target_attribute for rule in suggestion.kept_rules]
        assert len(targets) == len(set(targets))

    def test_greedy_options_still_produce_sufficient_suggestion(self, george_pipeline):
        spec, encoder, deduced, known = george_pipeline
        options = SuggestOptions(clique_method="greedy", maxsat_strategy="greedy")
        suggestion = suggest(encoder, deduced, known, options)
        covered = set(suggestion.attributes) | set(suggestion.derivable_attributes) | set(known.known_attributes())
        assert covered == set(spec.schema.attribute_names)


class TestSuggestEdgeCases:
    def test_no_rules_means_ask_for_everything_unresolved(self):
        schema = RelationSchema("r", ["a", "b"])
        spec = Specification.from_rows(
            schema, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        )
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        known = extract_true_values(spec, deduced)
        suggestion = suggest(encoder, deduced, known)
        assert set(suggestion.attributes) == {"a", "b"}
        assert suggestion.derivable_attributes == ()

    def test_fully_resolved_specification_yields_empty_suggestion(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        known = extract_true_values(edith_spec, deduced)
        suggestion = suggest(encoder, deduced, known)
        assert suggestion.is_empty()
        assert str(suggestion) == "(no input needed)"

    def test_candidate_values_are_listed_for_asked_attributes(self):
        schema = RelationSchema("r", ["status", "job"])
        sigma = [CurrencyConstraint.order_propagation(["status"], "job")]
        spec = Specification.from_rows(
            schema,
            [{"status": "a", "job": "x"}, {"status": "b", "job": "y"}],
            sigma,
        )
        encoder = IncrementalEncoder(spec)
        deduced = deduce_order(encoder)
        known = extract_true_values(spec, deduced)
        suggestion = suggest(encoder, deduced, known)
        assert "status" in suggestion.attributes
        assert set(suggestion.candidates["status"]) == {"a", "b"}
