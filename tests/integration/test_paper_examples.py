"""Integration tests reproducing the paper's running example end to end.

Every step the paper walks through in Examples 1–13 must fall out of the
public API: the Edith entity resolves fully automatically to the tuple of
Example 2, George needs exactly the suggestion of Example 12, and confirming
status=retired yields the tuple of Example 6.
"""

import pytest

from repro.core import values_equal
from repro.encoding import IncrementalEncoder
from repro.resolution import (
    ConflictResolver,
    SilentOracle,
    check_validity,
    deduce_order,
    extract_true_values,
    naive_deduce,
    suggest,
)
from repro.evaluation import GroundTruthOracle
from repro.datasets import GeneratedEntity

from tests.conftest import EDITH_TRUTH, GEORGE_TRUTH


class TestExample2Edith:
    """Steps (a)–(e) of Example 2."""

    def test_specification_is_valid(self, edith_spec):
        assert check_validity(IncrementalEncoder(edith_spec)).valid

    def test_full_true_tuple_is_deduced_automatically(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        truth = extract_true_values(edith_spec, deduce_order(encoder))
        for attribute, value in EDITH_TRUTH.items():
            assert values_equal(truth[attribute], value), attribute

    def test_step_a_status(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert deduced.holds("status", "working", "deceased")
        assert deduced.holds("status", "retired", "deceased")

    def test_step_b_kids(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert deduced.holds("kids", 0, 3)
        assert deduced.holds("kids", None, 3)

    def test_step_d_city_through_cfd(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert deduced.holds("city", "NY", "LA")
        assert deduced.holds("city", "SFC", "LA")

    def test_step_e_county_through_phi8(self, edith_spec):
        encoder = IncrementalEncoder(edith_spec)
        deduced = deduce_order(encoder)
        assert deduced.holds("county", "Manhattan", "Vermont")
        assert deduced.holds("county", "Dogtown", "Vermont")

    def test_brute_force_agrees(self, edith_spec):
        reference = edith_spec.true_value_brute_force()
        assert reference is not None
        for attribute, value in EDITH_TRUTH.items():
            assert values_equal(reference[attribute], value)


class TestExample3And12George:
    def test_only_name_and_kids_are_automatic(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        truth = extract_true_values(george_spec, deduce_order(encoder))
        assert set(truth.known_attributes()) == {"name", "kids"}
        assert truth["kids"] == 2

    def test_suggestion_is_status_with_two_candidates(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        deduced = deduce_order(encoder)
        known = extract_true_values(george_spec, deduced)
        suggestion = suggest(encoder, deduced, known)
        assert suggestion.attributes == ("status",)
        assert set(suggestion.candidates["status"]) == {"retired", "unemployed"}

    def test_naive_deduce_agrees_with_deduce_order(self, george_spec):
        encoder = IncrementalEncoder(george_spec)
        fast = extract_true_values(george_spec, deduce_order(encoder))
        slow = extract_true_values(george_spec, naive_deduce(encoder))
        assert set(fast.known_attributes()) == set(slow.known_attributes())


class TestExample6And9Interactive:
    def test_confirming_retired_resolves_george(self, george_spec, vj_schema):
        entity = GeneratedEntity(
            name="George",
            rows=[t.as_dict() for t in george_spec.instance],
            true_values=dict(GEORGE_TRUTH),
        )
        result = ConflictResolver().resolve(george_spec, GroundTruthOracle(entity))
        assert result.complete
        assert result.interaction_rounds == 1
        for attribute, value in GEORGE_TRUTH.items():
            assert values_equal(result.resolved_tuple[attribute], value), attribute

    def test_edith_needs_no_interaction(self, edith_spec):
        result = ConflictResolver().resolve(edith_spec, SilentOracle())
        assert result.complete and result.interaction_rounds == 0
